// Shared GF(2) linear solver over byte-buffer cells.
//
// XOR-structured codes (X-Code, WEAVER) both reduce erasure recovery
// to the same shape: a set of parity equations, each XOR-ing some known
// cells (surviving payloads) with some unknown cells (erased payloads).
// This solver does the rank test and the Gauss-Jordan solve with the row
// operations applied to byte-buffer right-hand sides.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace ecfrm::gf {

/// One recovery system: equation e says
///   XOR_{u : coeffs[e][u] == 1} unknown_u  ==  XOR_{c in knowns[e]} cell_c.
struct Gf2System {
    std::vector<std::vector<std::uint8_t>> coeffs;  // [equation][unknown], 0/1
    std::vector<std::vector<int>> knowns;           // surviving cell ids per equation
    std::vector<int> unknown_cells;                 // cell id per unknown
};

/// Rank of a dense 0/1 matrix over GF(2) (input by value; destroyed).
int gf2_rank(std::vector<std::vector<std::uint8_t>> m);

/// True when the system determines every unknown.
bool gf2_solvable(const Gf2System& system);

/// Solve the system and write each unknown's payload into
/// cells[unknown_cells[u]]. `cells` indexes every cell id used by the
/// system; all spans share one length. Fails when under-determined.
Status gf2_solve(Gf2System system, const std::vector<ByteSpan>& cells);

}  // namespace ecfrm::gf

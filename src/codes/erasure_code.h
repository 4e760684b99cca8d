// The candidate-code abstraction of the paper: a systematic linear erasure
// code whose stripe is ONE row of n elements (k data + n-k parity).
//
// Everything downstream (layouts, EC-FRM, planners, the store) talks to
// codes exclusively through this interface, so adding a new candidate code
// is a matter of producing its systematic generator matrix and, optionally,
// cheaper repair hints.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "matrix/matrix.h"

namespace ecfrm {
class ThreadPool;
}  // namespace ecfrm

namespace ecfrm::codes {

/// How one erased element is rebuilt: XOR of coeff * source over the listed
/// code positions (positions index the n elements of one stripe-row).
struct RepairTerm {
    int source_position;
    std::uint8_t coeff;
};

struct ElementRepair {
    int target_position;
    std::vector<RepairTerm> terms;
};

/// Identity of one repair solve: a target and the exact source list, in
/// the order given (the solve's pivots, and so its terms, follow it).
struct RepairKeyView {
    int target = 0;
    std::span<const int> sources;
};

/// RepairKeyView's owning form, the key a RepairMap stores.
struct RepairKey {
    int target = 0;
    std::vector<int> sources;

    operator RepairKeyView() const { return {target, sources}; }
};

/// Transparent hash and equality over RepairKey and RepairKeyView, so a
/// RepairMap is searched with a view and no key is built for a lookup.
struct RepairKeyHash {
    using is_transparent = void;
    std::size_t operator()(RepairKeyView key) const {
        std::uint64_t h = static_cast<std::uint64_t>(key.target) * 0x9E3779B97F4A7C15ULL;
        for (int p : key.sources) h = (h ^ static_cast<std::uint64_t>(p)) * 0xC2B2AE3D27D4EB4FULL;
        return static_cast<std::size_t>(h ^ (h >> 31));
    }
};
struct RepairKeyEq {
    using is_transparent = void;
    bool operator()(RepairKeyView a, RepairKeyView b) const {
        return a.target == b.target && std::equal(a.sources.begin(), a.sources.end(),
                                                  b.sources.begin(), b.sources.end());
    }
};

template <typename Value>
using RepairMap = std::unordered_map<RepairKey, Value, RepairKeyHash, RepairKeyEq>;

/// A full decode plan: one ElementRepair per wanted-but-missing position.
struct DecodePlan {
    std::vector<ElementRepair> repairs;
};

/// Hints the degraded-read planner uses to pick repair sources.
struct RepairSpec {
    /// True when ANY k surviving positions can rebuild the target (MDS).
    bool any_k = false;
    /// Minimal fixed repair set (e.g. the LRC local group). Empty when the
    /// code has no cheap structured repair for this position.
    std::vector<int> preferred;
};

/// Systematic linear erasure code over GF(2^8) with one-row stripes.
class ErasureCode {
  public:
    ErasureCode();
    virtual ~ErasureCode();
    ErasureCode(const ErasureCode&) = delete;
    ErasureCode& operator=(const ErasureCode&) = delete;

    /// Total elements per stripe-row.
    int n() const { return generator().rows(); }
    /// Data elements per stripe-row.
    int k() const { return generator().cols(); }
    /// Parity elements per stripe-row.
    int m() const { return n() - k(); }

    virtual std::string name() const = 0;

    /// Number of arbitrary concurrent node (disk) failures the code is
    /// guaranteed to survive. For sub-packetized codes a node failure
    /// erases all sub_packetization() elements of that node at once.
    virtual int fault_tolerance() const = 0;

    /// Sub-packetization w: how many stripe sub-rows (substripes) one
    /// code instance spreads each node over. Classic horizontal codes are
    /// w = 1 (element == node); piggybacked/elastic codes set w > 1 and
    /// their n()/k() then count ELEMENTS, not disks.
    virtual int sub_packetization() const { return 1; }

    /// Storage nodes (disk columns) of one code instance.
    int nodes() const { return n() / sub_packetization(); }
    int data_nodes() const { return k() / sub_packetization(); }
    int parity_nodes() const { return nodes() - data_nodes(); }

    /// Substripe-major position convention shared by every sub-packetized
    /// code (and trivially by w = 1 codes): data position p lives on node
    /// p % data_nodes() in substripe p / data_nodes(); parity position p
    /// lives on node data_nodes() + (p - k()) % parity_nodes() in
    /// substripe (p - k()) / parity_nodes(). Consecutive data positions
    /// therefore land on distinct nodes, which is what keeps the paper's
    /// ceil-shaped max-load arguments intact under sub-packetization.
    int node_of(int position) const;
    int substripe_of(int position) const;
    int position_of(int node, int substripe) const;

    /// Declared single-node repair download, in elements read per group
    /// (the code's theoretical bound; the conformance suite asserts the
    /// planner never exceeds it). Default: the union of the node's
    /// per-position preferred repair sets, or a generic k-survivor read
    /// when a position has no structured repair.
    virtual std::int64_t repair_elements_bound(int node) const;

    /// Systematic n x k generator: row i gives element i as a combination
    /// of the k data elements; rows 0..k-1 form the identity.
    virtual const matrix::Matrix& generator() const = 0;

    /// Repair hints for a single erased position (see RepairSpec).
    virtual RepairSpec repair_spec(int position) const;

    /// Compute the m parity buffers from the k data buffers in one fused
    /// multi-destination kernel pass (gf::encode_regions). All spans must
    /// have equal length; parity spans are overwritten. Large regions are
    /// chunked across `pool` when one is given.
    void encode(const std::vector<ConstByteSpan>& data, const std::vector<ByteSpan>& parity,
                ThreadPool* pool = nullptr) const;

    /// True when the k data elements are recoverable from `available`
    /// positions (rank test).
    bool decodable(const std::vector<int>& available) const;

    /// Solve for the repair coefficients of `target` over exactly the
    /// positions in `sources` (fails when the target row is outside the
    /// row span of the sources). Zero-coefficient terms are pruned.
    Result<ElementRepair> solve_repair(int target, const std::vector<int>& sources) const;

    /// solve_repair(), solved once per (target, source list) and kept for
    /// the code's lifetime: the repair is immutable and stays valid as
    /// long as the code does, so a plan may refer to it instead of owning
    /// a copy. Null when the target is outside the sources' span.
    /// Thread-safe; a hit takes one lock and allocates nothing.
    const ElementRepair* cached_repair(int target, std::span<const int> sources) const;

    /// Identity of this code's repair cache: nonzero and never reused in
    /// the process, so a memo of cached_repair() results keyed by it can
    /// never mistake a later code at the same address for this one.
    std::uint64_t repair_cache_id() const;

    /// Build a decode plan recovering every position in `wanted` from
    /// `available`. Positions already available get no repair entry.
    Result<DecodePlan> plan_decode(const std::vector<int>& available, const std::vector<int>& wanted) const;

    /// Execute a plan against element buffers (buffers[i] is position i's
    /// payload; repaired targets are overwritten in place). Each repair is
    /// one fused multi-source kernel pass, pool-chunked when `pool` is set.
    static void apply_plan(const DecodePlan& plan, std::span<const ByteSpan> buffers,
                           ThreadPool* pool = nullptr);

    /// Execute one repair against position-indexed element buffers, as
    /// apply_plan does for each of its repairs; allocation-free for
    /// repairs of up to 64 sources.
    static void apply_repair(const ElementRepair& repair, std::span<const ByteSpan> buffers,
                             ThreadPool* pool = nullptr);

  private:
    struct RepairCache;
    std::unique_ptr<RepairCache> repair_cache_;
};

}  // namespace ecfrm::codes

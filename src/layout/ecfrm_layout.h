// The EC-FRM layout (paper Section IV-B).
//
// With n total and k data elements per candidate row and r = gcd(n, k),
// one super-stripe is an (n/r) x n grid:
//   * rows [0, k/r) hold data, laid ROW-MAJOR: data element e of the
//     stripe sits at row e / n, column e mod n — logical contiguity thus
//     spans all n disks (Equation 1);
//   * rows [k/r, n/r) hold parity: group i's q-th parity (q in [0, n-k))
//     sits at row k/r + q/r, column (i*k + k + q) mod n (Equation 2).
// Group i consists of data elements [i*k, (i+1)*k) of the stripe plus its
// n-k parities; the columns covered are the n consecutive values
// (i*k .. i*k + n - 1) mod n, hence all n disks exactly once (Section IV-B).
#pragma once

#include <numeric>
#include <vector>

#include "layout/layout.h"

namespace ecfrm::layout {

class EcfrmLayout final : public Layout {
  public:
    EcfrmLayout(int n, int k);

    std::string name() const override { return "ecfrm"; }
    int rows_per_stripe() const override { return rows_; }
    int groups_per_stripe() const override { return rows_; }
    int data_rows_per_stripe() const override { return k_ / r_; }

    Location locate(const GroupCoord& c) const override;
    GroupCoord coord_at(Location loc) const override;

    /// r = gcd(n, k): the row-count divisor of the construction.
    int r() const { return r_; }

  private:
    struct Cell {
        int group;
        int position;
    };

    int r_;
    int rows_;  // n / r: rows, and groups, per super-stripe
    // Forward map (group, position) -> (row-in-stripe, disk) and the
    // inverse grid, both precomputed from the closed-form equations.
    std::vector<Location> forward_;    // indexed group * n + position
    std::vector<Cell> grid_;           // indexed row_in_stripe * n + disk
};

}  // namespace ecfrm::layout

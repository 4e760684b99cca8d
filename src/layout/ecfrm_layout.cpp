#include "layout/ecfrm_layout.h"

#include <cassert>

namespace ecfrm::layout {

EcfrmLayout::EcfrmLayout(int n, int k) : Layout(n, k), r_(std::gcd(n, k)), rows_(n / r_) {
    assert(n > k && k > 0);
    const int groups = n_ / r_;
    const int rows = n_ / r_;
    forward_.assign(static_cast<std::size_t>(groups) * n_, Location{});
    grid_.assign(static_cast<std::size_t>(rows) * n_, Cell{-1, -1});

    for (int g = 0; g < groups; ++g) {
        // Data positions: stripe-sequential, row-major (Equation 1).
        for (int t = 0; t < k_; ++t) {
            const int e = g * k_ + t;            // within-stripe data index
            const int row = e / n_;
            const int disk = e % n_;
            forward_[static_cast<std::size_t>(g) * n_ + t] = {disk, row};
            grid_[static_cast<std::size_t>(row) * n_ + disk] = {g, t};
        }
        // Parity positions (Equation 2): q-th parity of group g.
        for (int q = 0; q < n_ - k_; ++q) {
            const int row = k_ / r_ + q / r_;
            const int disk = (g * k_ + k_ + q) % n_;
            forward_[static_cast<std::size_t>(g) * n_ + k_ + q] = {disk, row};
            grid_[static_cast<std::size_t>(row) * n_ + disk] = {g, k_ + q};
        }
    }

    // The construction must tile the grid exactly (paper Section IV-B);
    // assert it here so a bad parameterisation cannot ship silent holes.
    for (const Cell& cell : grid_) {
        assert(cell.group >= 0 && "EC-FRM grid has an unassigned cell");
        (void)cell;
    }
}

Location EcfrmLayout::locate(const GroupCoord& c) const {
    assert(c.group >= 0 && c.group < groups_per_stripe());
    assert(c.position >= 0 && c.position < n_);
    Location in_stripe = forward_[static_cast<std::size_t>(c.group) * n_ + c.position];
    in_stripe.row += c.stripe * rows_per_stripe();
    return in_stripe;
}

GroupCoord EcfrmLayout::coord_at(Location loc) const {
    assert(loc.disk >= 0 && loc.disk < n_);
    const int rows = rows_per_stripe();
    const StripeId stripe = loc.row / rows;
    const int row_in_stripe = static_cast<int>(loc.row % rows);
    const Cell& cell = grid_[static_cast<std::size_t>(row_in_stripe) * n_ + loc.disk];
    return {stripe, cell.group, cell.position};
}

}  // namespace ecfrm::layout

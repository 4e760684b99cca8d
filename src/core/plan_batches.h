// PlanBatches: how a plan's element accesses become per-disk device
// calls — the one schedule model of reads (AccessPlan) and writes
// (WritePlan) alike.
//
// A plan's accesses are grouped per disk, row-sorted: one DiskBatch per
// disk that serves at least one element, in ascending disk order. The
// executor issues each batch as one submission queue of chunked vectored
// device calls, the simulators price each batch as one disk job, and
// `ecfrm_cli explain` reports the batches — so simulated, explained and
// real execution can never drift.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace ecfrm::core {

/// One disk's share of a plan: the vectored submission unit. Its spans
/// view the PlanBatches that produced it.
struct DiskBatch {
    DiskId disk = -1;
    /// Indices into the plan's accesses — AccessPlan::fetches() or
    /// WritePlan::writes() — row-ascending.
    std::span<const std::size_t> indices;
    std::span<const RowId> rows;  // parallel to indices
};

/// A plan's per-disk schedule, laid out flat: every batch's indices and
/// rows are slices of two shared arrays, so the schedule costs four
/// allocations whatever the fan-out, and none when refilled into storage
/// that already has room. Move-only, because the batches view the arrays
/// it owns.
class PlanBatches {
  public:
    PlanBatches() = default;
    PlanBatches(PlanBatches&&) noexcept = default;
    PlanBatches& operator=(PlanBatches&&) noexcept = default;
    PlanBatches(const PlanBatches&) = delete;
    PlanBatches& operator=(const PlanBatches&) = delete;

    std::size_t size() const { return batches_.size(); }
    const DiskBatch& operator[](std::size_t i) const { return batches_[i]; }
    std::vector<DiskBatch>::const_iterator begin() const { return batches_.begin(); }
    std::vector<DiskBatch>::const_iterator end() const { return batches_.end(); }

    /// Refill with `items` (accesses with a `loc`) grouped per disk;
    /// `per_disk[d]` must count the items on disk d.
    template <typename Item>
    void fill(std::span<const Item> items, std::span<const int> per_disk) {
        const std::size_t n = items.size();
        indices_.resize(n);
        rows_.resize(n);
        batches_.clear();
        cursor_.resize(per_disk.size());
        // Counting sort by disk: each disk's slice starts where the lower
        // disks' loads end, and items keep plan order inside it.
        std::size_t offset = 0;
        std::size_t fanout = 0;
        for (std::size_t d = 0; d < per_disk.size(); ++d) {
            cursor_[d] = offset;
            offset += static_cast<std::size_t>(per_disk[d]);
            fanout += per_disk[d] > 0 ? 1 : 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Location& loc = items[i].loc;
            const std::size_t at = cursor_[static_cast<std::size_t>(loc.disk)]++;
            indices_[at] = i;
            rows_[at] = loc.row;
        }
        batches_.reserve(fanout);
        const std::span<const std::size_t> indices(indices_);
        const std::span<const RowId> rows(rows_);
        offset = 0;
        for (std::size_t d = 0; d < per_disk.size(); ++d) {
            const auto load = static_cast<std::size_t>(per_disk[d]);
            if (load == 0) continue;
            // Row-sort the slice (ties: plan order) unless plan order
            // already ascends, as it does for contiguous reads.
            const auto first_row = rows_.begin() + static_cast<std::ptrdiff_t>(offset);
            if (!std::is_sorted(first_row, first_row + static_cast<std::ptrdiff_t>(load))) {
                const auto first = indices_.begin() + static_cast<std::ptrdiff_t>(offset);
                std::sort(first, first + static_cast<std::ptrdiff_t>(load),
                          [items](std::size_t a, std::size_t b) {
                              const RowId ra = items[a].loc.row;
                              const RowId rb = items[b].loc.row;
                              return ra != rb ? ra < rb : a < b;
                          });
                for (std::size_t k = offset; k < offset + load; ++k) {
                    rows_[k] = items[indices_[k]].loc.row;
                }
            }
            batches_.push_back({static_cast<DiskId>(d), indices.subspan(offset, load),
                                rows.subspan(offset, load)});
            offset += load;
        }
    }

  private:
    std::vector<std::size_t> indices_;
    std::vector<RowId> rows_;
    std::vector<DiskBatch> batches_;
    std::vector<std::size_t> cursor_;  // per disk: next free slot while filling
};

}  // namespace ecfrm::core

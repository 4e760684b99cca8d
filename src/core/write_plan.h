// WritePlan: the I/O schedule the write path emits — the mutation-side
// sibling of AccessPlan.
//
// A plan lists every element placement (data and parity) of one logical
// write (a stripe commit, a parity flush, an overwrite's RMW set), each
// bound to a payload index the executor resolves at submission time. Like
// AccessPlan, the per-disk batches() grouping is the shared schedule
// model: the executor issues each batch as chunked write_batch calls, the
// cluster simulator prices each batch as one job, and tests assert on the
// same grouping — so simulated and real write execution cannot drift.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "layout/layout.h"

namespace ecfrm::core {

/// One element write.
struct WriteAccess {
    Location loc;              // physical slot to write
    layout::GroupCoord coord;  // candidate-code coordinates
    std::size_t payload = 0;   // index into the caller's payload array
    bool is_parity = false;    // parity placement (vs user data)
};

/// One disk's share of a write plan: the vectored submission unit.
struct WriteBatch {
    DiskId disk = -1;
    std::vector<std::size_t> write_indices;  // indices into writes(), row-ascending
    std::vector<RowId> rows;                 // parallel to write_indices
};

class WritePlan {
  public:
    explicit WritePlan(int disks) : per_disk_(static_cast<std::size_t>(disks), 0) {}

    /// Room for `writes` placements without regrowing.
    void reserve(std::size_t writes) { writes_.reserve(writes); }

    /// Record a placement; the caller guarantees (disk, row) is distinct.
    void add_write(const WriteAccess& access) {
        writes_.push_back(access);
        ++per_disk_[static_cast<std::size_t>(access.loc.disk)];
    }

    const std::vector<WriteAccess>& writes() const { return writes_; }
    const std::vector<int>& per_disk_loads() const { return per_disk_; }

    /// Placements grouped per disk, row-sorted: one WriteBatch per disk
    /// that receives at least one element, in ascending disk order.
    std::vector<WriteBatch> batches() const {
        std::vector<WriteBatch> out;
        out.reserve(static_cast<std::size_t>(
            std::count_if(per_disk_.begin(), per_disk_.end(), [](int n) { return n > 0; })));
        std::vector<int> slot(per_disk_.size(), -1);
        for (std::size_t d = 0; d < per_disk_.size(); ++d) {
            if (per_disk_[d] == 0) continue;
            slot[d] = static_cast<int>(out.size());
            out.push_back(WriteBatch{static_cast<DiskId>(d), {}, {}});
            out.back().write_indices.reserve(static_cast<std::size_t>(per_disk_[d]));
        }
        for (std::size_t i = 0; i < writes_.size(); ++i) {
            const auto d = static_cast<std::size_t>(writes_[i].loc.disk);
            out[static_cast<std::size_t>(slot[d])].write_indices.push_back(i);
        }
        for (WriteBatch& batch : out) {
            std::sort(batch.write_indices.begin(), batch.write_indices.end(),
                      [this](std::size_t a, std::size_t b) {
                          return writes_[a].loc.row != writes_[b].loc.row
                                     ? writes_[a].loc.row < writes_[b].loc.row
                                     : a < b;
                      });
            batch.rows.reserve(batch.write_indices.size());
            for (std::size_t i : batch.write_indices) batch.rows.push_back(writes_[i].loc.row);
        }
        return out;
    }

    /// Elements placed on the most-loaded disk — bounds the parallel write
    /// latency exactly as AccessPlan::max_load bounds reads.
    int max_load() const {
        int max = 0;
        for (int v : per_disk_) max = std::max(max, v);
        return max;
    }

    std::int64_t total_writes() const { return static_cast<std::int64_t>(writes_.size()); }

    std::int64_t parity_writes() const {
        std::int64_t n = 0;
        for (const WriteAccess& w : writes_) n += w.is_parity ? 1 : 0;
        return n;
    }
    std::int64_t data_writes() const { return total_writes() - parity_writes(); }

  private:
    std::vector<WriteAccess> writes_;
    std::vector<int> per_disk_;
};

}  // namespace ecfrm::core

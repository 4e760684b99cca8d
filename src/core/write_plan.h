// WritePlan: the I/O schedule the write path emits — the mutation-side
// sibling of AccessPlan.
//
// A plan lists every element placement (data and parity) of one logical
// write (a stripe commit, a parity flush, an overwrite's RMW set), each
// bound to a payload index the executor resolves at submission time. Its
// per-disk schedule, batches(), is a PlanBatches filled by the same
// counting sort as AccessPlan's: the executor issues each batch as
// chunked write_batch calls and the cluster simulator prices each batch
// as one job, so simulated and real write execution cannot drift.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/plan_batches.h"
#include "layout/layout.h"

namespace ecfrm::core {

/// One element write.
struct WriteAccess {
    Location loc;              // physical slot to write
    layout::GroupCoord coord;  // candidate-code coordinates
    std::size_t payload = 0;   // index into the caller's payload array
    bool is_parity = false;    // parity placement (vs user data)
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

    /// Placements grouped per disk, row-sorted (see PlanBatches); batch
    /// indices index writes().
    PlanBatches batches() const {
        PlanBatches out;
        out.fill<WriteAccess>(writes_, per_disk_);
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

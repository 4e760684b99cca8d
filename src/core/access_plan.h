// AccessPlan: the I/O schedule a read planner emits.
//
// A plan lists every distinct element to fetch (each exactly once — reads
// are deduplicated across direct service and repair traffic), plus the
// per-group decode recipes needed to materialise elements that live on a
// failed disk. Its per-disk schedule, batches(), is the PlanBatches that
// the simulators price, `explain` reports and the store executes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/erasure_code.h"
#include "common/types.h"
#include "core/plan_batches.h"
#include "layout/layout.h"

namespace ecfrm::core {

/// One element fetch.
struct Access {
    Location loc;                 // physical slot to read
    layout::GroupCoord coord;     // candidate-code coordinates
    bool requested = false;       // true when the user asked for this element
};

/// Decode recipe for one group that lost an element the user wants (or,
/// in a reconstruction plan, an element being rebuilt).
struct GroupDecode {
    StripeId stripe = 0;
    int group = 0;
    /// The code's cached repair (codes::ErasureCode::cached_repair):
    /// positions are candidate-code positions, and the plan is valid only
    /// while the scheme's code lives.
    const codes::ElementRepair* repair = nullptr;
};

class AccessPlan {
  public:
    explicit AccessPlan(int disks = 0) : per_disk_(static_cast<std::size_t>(disks), 0) {}

    /// Empty the plan for `disks` disks, keeping its storage.
    void reset(int disks) {
        fetches_.clear();
        decodes_.clear();
        per_disk_.assign(static_cast<std::size_t>(disks), 0);
        requested_ = 0;
    }

    /// Room for `fetches` fetches without regrowing.
    void reserve(std::size_t fetches) { fetches_.reserve(fetches); }

    /// Record a fetch; the caller guarantees it is not a duplicate.
    void add_fetch(const Access& access) {
        fetches_.push_back(access);
        ++per_disk_[static_cast<std::size_t>(access.loc.disk)];
    }

    void add_decode(const GroupDecode& decode) { decodes_.push_back(decode); }

    const std::vector<Access>& fetches() const { return fetches_; }
    const std::vector<GroupDecode>& decodes() const { return decodes_; }
    const std::vector<int>& per_disk_loads() const { return per_disk_; }

    /// Fetches grouped per disk, row-sorted (see PlanBatches); batch
    /// indices index fetches().
    PlanBatches batches() const {
        PlanBatches out;
        batches(out);
        return out;
    }

    /// batches(), refilled into `out`'s storage.
    void batches(PlanBatches& out) const {
        out.fill<Access>(fetches_, per_disk_);
    }

    /// Disks serving at least one fetch: the number of batches().
    int fanout() const {
        int disks = 0;
        for (int v : per_disk_) disks += v > 0 ? 1 : 0;
        return disks;
    }

    /// Elements fetched from the most-loaded disk — the quantity the paper
    /// argues bounds parallel read latency.
    int max_load() const {
        int max = 0;
        for (int v : per_disk_) max = std::max(max, v);
        return max;
    }

    /// Total distinct elements fetched.
    std::int64_t total_fetched() const { return static_cast<std::int64_t>(fetches_.size()); }

    /// Elements the user asked for (satisfied directly or via decode).
    std::int64_t requested() const { return requested_; }
    void set_requested(std::int64_t count) { requested_ = count; }

    /// Degraded read cost: total elements read per user element — the
    /// network-bandwidth metric of Figure 9(a)/(b).
    double cost() const {
        return requested_ == 0 ? 0.0
                               : static_cast<double>(total_fetched()) / static_cast<double>(requested_);
    }

  private:
    std::vector<Access> fetches_;
    std::vector<GroupDecode> decodes_;
    std::vector<int> per_disk_;
    std::int64_t requested_ = 0;
};

}  // namespace ecfrm::core

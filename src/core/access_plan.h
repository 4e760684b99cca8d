// AccessPlan: the I/O schedule a read planner emits.
//
// A plan lists every distinct element to fetch (each exactly once — reads
// are deduplicated across direct service and repair traffic), plus the
// per-group decode recipes needed to materialise elements that live on a
// failed disk. The simulator prices a plan; the store executes one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/erasure_code.h"
#include "common/types.h"
#include "layout/layout.h"

namespace ecfrm::core {

/// One element fetch.
struct Access {
    Location loc;                 // physical slot to read
    layout::GroupCoord coord;     // candidate-code coordinates
    bool requested = false;       // true when the user asked for this element
};

/// One disk's share of a plan: the vectored submission unit. This is the
/// schedule model shared by the executor (which issues each batch as
/// chunked read_batch calls), the cluster simulator (which prices each
/// batch as one job), and `ecfrm_cli explain` (which reports it) — so
/// simulated, explained and real execution can never drift. Its spans
/// view the PlanBatches that produced it.
struct DiskBatch {
    DiskId disk = -1;
    std::span<const std::size_t> fetch_indices;  // indices into fetches(), row-ascending
    std::span<const RowId> rows;                 // parallel to fetch_indices
};

/// A plan's per-disk schedule (AccessPlan::batches()), laid out flat:
/// every batch's fetch indices and rows are slices of two shared arrays,
/// so the schedule costs a fixed handful of allocations whatever the
/// fan-out, and none when refilled into storage that already has room.
/// Move-only, because the batches view the arrays it owns.
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

  private:
    friend class AccessPlan;
    std::vector<std::size_t> fetch_indices_;
    std::vector<RowId> rows_;
    std::vector<DiskBatch> batches_;
    std::vector<std::size_t> cursor_;  // per disk: next free slot while filling
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

    /// Fetches grouped per disk, row-sorted: one DiskBatch per disk that
    /// serves at least one element, in ascending disk order.
    PlanBatches batches() const {
        PlanBatches out;
        batches(out);
        return out;
    }

    /// batches(), refilled into `out`'s storage.
    void batches(PlanBatches& out) const {
        const std::size_t n = fetches_.size();
        out.fetch_indices_.resize(n);
        out.rows_.resize(n);
        out.batches_.clear();
        out.cursor_.resize(per_disk_.size());
        // Counting sort by disk: each disk's slice starts where the lower
        // disks' loads end, and fetches keep plan order inside it.
        std::size_t offset = 0;
        for (std::size_t d = 0; d < per_disk_.size(); ++d) {
            out.cursor_[d] = offset;
            offset += static_cast<std::size_t>(per_disk_[d]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Location& loc = fetches_[i].loc;
            const std::size_t at = out.cursor_[static_cast<std::size_t>(loc.disk)]++;
            out.fetch_indices_[at] = i;
            out.rows_[at] = loc.row;
        }
        out.batches_.reserve(static_cast<std::size_t>(fanout()));
        const std::span<const std::size_t> indices(out.fetch_indices_);
        const std::span<const RowId> rows(out.rows_);
        offset = 0;
        for (std::size_t d = 0; d < per_disk_.size(); ++d) {
            const auto load = static_cast<std::size_t>(per_disk_[d]);
            if (load == 0) continue;
            // Row-sort the slice (ties: plan order) unless plan order
            // already ascends, as it does for contiguous reads.
            const auto first_row = out.rows_.begin() + static_cast<std::ptrdiff_t>(offset);
            if (!std::is_sorted(first_row, first_row + static_cast<std::ptrdiff_t>(load))) {
                const auto first = out.fetch_indices_.begin() + static_cast<std::ptrdiff_t>(offset);
                std::sort(first, first + static_cast<std::ptrdiff_t>(load),
                          [this](std::size_t a, std::size_t b) {
                              const RowId ra = fetches_[a].loc.row;
                              const RowId rb = fetches_[b].loc.row;
                              return ra != rb ? ra < rb : a < b;
                          });
                for (std::size_t k = offset; k < offset + load; ++k) {
                    out.rows_[k] = fetches_[out.fetch_indices_[k]].loc.row;
                }
            }
            out.batches_.push_back({static_cast<DiskId>(d), indices.subspan(offset, load),
                                    rows.subspan(offset, load)});
            offset += load;
        }
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

// Read planners: translate a user read request into an AccessPlan.
//
// Normal reads fetch exactly the requested elements (every disk is healthy,
// every requested element is read from its home slot). Degraded reads
// replace each requested element that lives on the failed disk with a
// repair fetch set, chosen to (a) reuse elements the plan already reads and
// (b) greedily minimise the maximum per-disk load — the quantity that
// bounds parallel read latency (paper Section III).
#pragma once

#include <span>
#include <vector>

#include "common/result.h"
#include "core/access_plan.h"
#include "core/scheme.h"

namespace ecfrm::obs {
class MetricRegistry;
}

namespace ecfrm::core {

/// Attach process-wide planner metrics: every subsequent plan records its
/// fan-out (distinct disks touched), total fetches, and max per-disk load
/// (the paper's headline metric) into ecfrm_planner_*{plan=kind}
/// histograms. Pass nullptr to detach. Not synchronised against planners
/// already running on other threads — attach before planning starts. An
/// unattached planner pays one relaxed atomic load per plan.
void attach_planner_metrics(obs::MetricRegistry* registry);

/// Plan a failure-free read of `count` logical elements starting at `start`.
AccessPlan plan_normal_read(const Scheme& scheme, ElementId start, std::int64_t count);
/// plan_normal_read(), refilled into `plan`'s storage.
void plan_normal_read(const Scheme& scheme, ElementId start, std::int64_t count, AccessPlan& plan);

/// Working storage of the degraded and reconstruction planners, kept by a
/// caller that plans repeatedly so a plan reuses the last one's capacity
/// and repair solves.
struct PlanScratch {
    std::vector<char> seen;         // dedup flag per element of the stripe window
    std::vector<char> disk_failed;  // per disk
    std::vector<layout::GroupCoord> lost;  // requested elements on failed disks
    std::vector<int> survivors;     // repair candidates of one lost element
    std::vector<int> sources;       // one candidate source set
    std::vector<int> loads;         // projected per-disk loads
    /// Memo of one code's cached repairs (codes::ErasureCode::
    /// cached_repair), null for a source set that cannot rebuild its
    /// target: a plan that meets a (target, sources) pair again takes no
    /// lock and allocates nothing. Reset when the planned code changes;
    /// repair_code is that code's repair_cache_id(), 0 for none.
    std::uint64_t repair_code = 0;
    codes::RepairMap<const codes::ElementRepair*> repairs;
};

/// Repair-source policy for degraded reads.
enum class DegradedPolicy {
    /// Structured repair first (LRC local sets): minimal repair traffic,
    /// the policy the paper's cost figures assume. Default.
    local_first,
    /// Consider both the structured set and a greedy any-k choice, pick
    /// whichever yields the lower max per-disk load (ties: fewer fetches).
    /// Trades network bytes for parallel latency.
    balance,
};

/// Plan a read of `count` elements starting at `start` while `failed_disk`
/// is unavailable. Fails only if some required element is unrecoverable
/// (impossible for the shipped codes under a single disk failure).
Result<AccessPlan> plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                                      DiskId failed_disk);

/// General form: any set of concurrently failed disks. Structured repairs
/// (LRC local sets) are used when fully alive; otherwise the planner falls
/// back to MDS any-k selection or the full survivor set. Fails with
/// Error::undecodable when a required element cannot be rebuilt.
///
/// `stragglers` (optional, indexed by DiskId, 1 = flagged — typically
/// obs::DiskHeatModel::straggler_mask) adds a health-aware tie-break:
/// repair sources avoid flagged disks when an equally-balanced healthy
/// choice exists, and an intact structured set that would touch a
/// straggler competes against the greedy alternative instead of winning
/// outright. Flagged disks are still *eligible* — health never makes a
/// plan infeasible, it only reorders preferences.
Result<AccessPlan> plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                                      const std::vector<DiskId>& failed_disks,
                                      DegradedPolicy policy = DegradedPolicy::local_first,
                                      const std::vector<char>* stragglers = nullptr);
/// plan_degraded_read(), refilled into `plan`'s storage with `scratch`
/// as working memory; `stragglers` may be empty (no health tie-break).
Status plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                          std::span<const DiskId> failed_disks, DegradedPolicy policy,
                          std::span<const char> stragglers, PlanScratch& scratch,
                          AccessPlan& plan);

/// Plan the offline reconstruction of every element of `failed_disk` over
/// `stripes` stored stripes: the row-range form below over all of the
/// disk's rows, with no other disk failed.
Result<AccessPlan> plan_reconstruction(const Scheme& scheme, DiskId failed_disk, StripeId stripes);

/// Plan the reconstruction of rows [first_row, first_row + rows) of
/// `target_disk` while every disk in `failed_disks` is unavailable too
/// (the target counts as lost whether listed or not): one decode per
/// row, repair sources chosen with the same structured-first, then
/// load-balancing-greedy policy as degraded reads, and each source
/// fetched once however many rows share it. The plan's fetches are the
/// rebuild's read traffic; requested() counts the elements to rebuild.
/// Fills `plan` with `scratch` as working memory. Fails with
/// Error::undecodable when some row cannot be rebuilt from the disks
/// left.
Status plan_reconstruction(const Scheme& scheme, DiskId target_disk, RowId first_row, RowId rows,
                           std::span<const DiskId> failed_disks, PlanScratch& scratch,
                           AccessPlan& plan);

}  // namespace ecfrm::core

#include "core/read_planner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <string>
#include <tuple>

#include "obs/metrics.h"

namespace ecfrm::core {

namespace {

using layout::GroupCoord;

/// Per-plan-kind histogram bundle, published atomically so the planners
/// stay lock-free: one relaxed load when detached, three histogram
/// records when attached.
struct PlanKindMetrics {
    obs::Histogram* max_load = nullptr;
    obs::Histogram* fanout = nullptr;
    obs::Histogram* fetches = nullptr;
};

struct PlannerMetrics {
    PlanKindMetrics normal;
    PlanKindMetrics degraded;
    PlanKindMetrics reconstruction;
};

PlannerMetrics g_planner_metrics_storage;
std::atomic<const PlannerMetrics*> g_planner_metrics{nullptr};

void note_plan(const AccessPlan& plan, PlanKindMetrics PlannerMetrics::* kind) {
    const PlannerMetrics* all = g_planner_metrics.load(std::memory_order_acquire);
    if (all == nullptr) return;
    const PlanKindMetrics& m = all->*kind;
    m.max_load->record(plan.max_load());
    m.fetches->record(static_cast<double>(plan.total_fetched()));
    m.fanout->record(plan.fanout());
}

/// Bookkeeping shared by the degraded and reconstruction planners. It
/// fills a caller's plan and works in a caller's scratch, so a caller
/// that plans repeatedly reuses both.
struct PlanBuilder {
    /// Plans fetches within stripes [first_stripe, first_stripe + stripes).
    PlanBuilder(const Scheme& scheme, StripeId first_stripe, StripeId stripes,
                std::size_t fetch_hint, std::span<const char> stragglers, PlanScratch& scratch,
                AccessPlan& plan)
        : scheme(scheme),
          plan(plan),
          s(scratch),
          stragglers(stragglers),
          first_stripe(first_stripe),
          groups(scheme.layout().groups_per_stripe()),
          positions(scheme.code().n()) {
        plan.reset(scheme.disks());
        plan.reserve(fetch_hint);
        s.seen.assign(static_cast<std::size_t>(stripes * groups * positions), 0);
    }

    /// Fetch the element at `coord` once; later duplicate fetches are
    /// no-ops. All requested fetches happen before any repair fetch, so a
    /// duplicate can never need a requested-flag upgrade.
    void fetch(const GroupCoord& coord, bool requested) {
        char& flag = s.seen[slot(coord)];
        if (flag != 0) return;
        flag = 1;
        Access access;
        access.coord = coord;
        access.loc = scheme.layout().locate(coord);
        access.requested = requested;
        plan.add_fetch(access);
    }

    bool fetched(const GroupCoord& coord) const { return s.seen[slot(coord)] != 0; }

    int disk_load(DiskId d) const { return plan.per_disk_loads()[static_cast<std::size_t>(d)]; }

    bool straggler(DiskId d) const {
        return d >= 0 && static_cast<std::size_t>(d) < stragglers.size() &&
               stragglers[static_cast<std::size_t>(d)] != 0;
    }

    /// Flat dedup index: one flag per element of the stripe window, so a
    /// check is O(1) and whole-disk reconstruction plans stay linear.
    std::size_t slot(const GroupCoord& c) const {
        assert(c.stripe >= first_stripe);
        const auto i = ((c.stripe - first_stripe) * groups + c.group) * positions + c.position;
        assert(static_cast<std::size_t>(i) < s.seen.size());
        return static_cast<std::size_t>(i);
    }

    const Scheme& scheme;
    AccessPlan& plan;
    PlanScratch& s;
    std::span<const char> stragglers;
    StripeId first_stripe;
    std::int64_t groups;
    std::int64_t positions;
};

/// Sort the target group's survivor positions greedily: free riders
/// (already being fetched) first, then healthy disks before flagged
/// stragglers, then least-loaded disks. (A free rider on a straggler
/// stays first: that disk is already on the critical path and the extra
/// source costs nothing; remaining ties keep position order.)
void greedy_order(PlanBuilder& b, const GroupCoord& target, std::vector<int>& order) {
    const auto& layout = b.scheme.layout();
    std::sort(order.begin(), order.end(), [&](int a, int c) {
        const GroupCoord ca{target.stripe, target.group, a};
        const GroupCoord cc{target.stripe, target.group, c};
        const bool fa = b.fetched(ca);
        const bool fc = b.fetched(cc);
        if (fa != fc) return fa;
        const DiskId da = layout.locate(ca).disk;
        const DiskId dc = layout.locate(cc).disk;
        const bool sa = b.straggler(da);
        const bool sc = b.straggler(dc);
        if (sa != sc) return sc;
        const int la = b.disk_load(da);
        const int lc = b.disk_load(dc);
        return la != lc ? la < lc : a < c;
    });
}

/// The code's cached repair of `target` over `sources`, through the
/// scratch's memo: a repeated (target, sources) pair takes no lock and
/// allocates nothing. Null when the sources do not span the target.
const codes::ElementRepair* repair_for(PlanBuilder& b, int target, std::span<const int> sources) {
    const auto& code = b.scheme.code();
    PlanScratch& s = b.s;
    if (s.repair_code != code.repair_cache_id()) {
        s.repairs.clear();
        s.repair_code = code.repair_cache_id();
    }
    if (auto it = s.repairs.find(codes::RepairKeyView{target, sources}); it != s.repairs.end()) {
        return it->second;
    }
    const codes::ElementRepair* repair = code.cached_repair(target, sources);
    s.repairs.emplace(codes::RepairKey{target, {sources.begin(), sources.end()}}, repair);
    return repair;
}

/// Smallest greedy prefix of the survivors (b.s.survivors, reordered in
/// place) that spans the target (k for MDS codes; possibly more for LRC
/// when the local set is broken, fewer for sub-packetized codes whose
/// substripes decode independently). Null when no prefix does.
const codes::ElementRepair* greedy_repair(PlanBuilder& b, const GroupCoord& target) {
    const auto& code = b.scheme.code();
    std::vector<int>& order = b.s.survivors;
    greedy_order(b, target, order);
    const std::size_t min_count =
        std::min<std::size_t>(static_cast<std::size_t>(code.data_nodes()), order.size());
    for (std::size_t count = min_count; count <= order.size(); ++count) {
        std::vector<int>& sources = b.s.sources;
        sources.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(count));
        std::sort(sources.begin(), sources.end());
        if (const codes::ElementRepair* repair = repair_for(b, target.position, sources)) {
            return repair;
        }
    }
    return nullptr;
}

/// Cost of a candidate repair, in comparison order: max per-disk load
/// the plan would have after adding the repair's missing fetches, then
/// the number of those new fetches landing on flagged straggler disks
/// (the health tie-break), then the total new-fetch count.
std::tuple<int, int, int> projected_cost(PlanBuilder& b, const GroupCoord& target,
                                         const codes::ElementRepair& repair) {
    const auto& layout = b.scheme.layout();
    std::vector<int>& loads = b.s.loads;
    loads.assign(b.plan.per_disk_loads().begin(), b.plan.per_disk_loads().end());
    int new_fetches = 0;
    int straggler_fetches = 0;
    for (const auto& term : repair.terms) {
        const GroupCoord c{target.stripe, target.group, term.source_position};
        if (b.fetched(c)) continue;
        const DiskId d = layout.locate(c).disk;
        ++loads[static_cast<std::size_t>(d)];
        ++new_fetches;
        if (b.straggler(d)) ++straggler_fetches;
    }
    int max = 0;
    for (int v : loads) max = std::max(max, v);
    return {max, straggler_fetches, new_fetches};
}

/// Does this repair add a fetch on a flagged straggler disk?
bool touches_straggler(PlanBuilder& b, const GroupCoord& target,
                       const codes::ElementRepair& repair) {
    const auto& layout = b.scheme.layout();
    for (const auto& term : repair.terms) {
        const GroupCoord c{target.stripe, target.group, term.source_position};
        if (b.fetched(c)) continue;
        if (b.straggler(layout.locate(c).disk)) return true;
    }
    return false;
}

/// Shared repair-source policy: structured set first (when fully alive),
/// then a greedy survivor prefix. Under DegradedPolicy::balance both
/// candidates compete on projected max load. b.s.disk_failed marks the
/// unavailable disks. Null when the survivors cannot rebuild the target.
const codes::ElementRepair* choose_repair(PlanBuilder& b, const GroupCoord& target,
                                          DegradedPolicy policy) {
    const auto& code = b.scheme.code();
    const auto& layout = b.scheme.layout();
    auto alive = [&](int position) {
        const Location loc = layout.locate({target.stripe, target.group, position});
        return b.s.disk_failed[static_cast<std::size_t>(loc.disk)] == 0;
    };

    std::vector<int>& survivors = b.s.survivors;
    survivors.clear();
    survivors.reserve(static_cast<std::size_t>(code.n()) - 1);
    for (int p = 0; p < code.n(); ++p) {
        if (p != target.position && alive(p)) survivors.push_back(p);
    }

    // Structured candidate (e.g. the LRC local set), if fully alive.
    const codes::RepairSpec spec = code.repair_spec(target.position);
    bool intact = !spec.preferred.empty();
    for (int p : spec.preferred) intact = intact && alive(p);
    if (!intact) return greedy_repair(b, target);
    const codes::ElementRepair* structured = repair_for(b, target.position, spec.preferred);

    // local_first keeps the structured set unless health says otherwise:
    // a structured repair that would drag a flagged straggler into the
    // read competes against the greedy alternative instead of winning
    // outright.
    if (policy == DegradedPolicy::local_first && structured != nullptr &&
        !touches_straggler(b, target, *structured)) {
        return structured;
    }

    const codes::ElementRepair* greedy = greedy_repair(b, target);
    if (structured == nullptr) return greedy;
    if (greedy == nullptr) return structured;
    return projected_cost(b, target, *greedy) < projected_cost(b, target, *structured) ? greedy
                                                                                        : structured;
}

/// Plan `target`'s repair into the plan: its sources' fetches (each
/// deduplicated against the plan) and its decode recipe.
Status add_repair(PlanBuilder& b, const GroupCoord& target, DegradedPolicy policy) {
    const codes::ElementRepair* repair = choose_repair(b, target, policy);
    if (repair == nullptr) {
        return Error::undecodable("element at position " + std::to_string(target.position) +
                                  " cannot be rebuilt from the surviving disks");
    }
    for (const auto& term : repair->terms) {
        b.fetch({target.stripe, target.group, term.source_position}, /*requested=*/false);
    }
    b.plan.add_decode({target.stripe, target.group, repair});
    return Status::success();
}

}  // namespace

void attach_planner_metrics(obs::MetricRegistry* registry) {
    if (registry == nullptr) {
        g_planner_metrics.store(nullptr, std::memory_order_release);
        return;
    }
    auto fill = [registry](PlanKindMetrics& m, const char* kind) {
        const obs::Labels labels{{"plan", kind}};
        m.max_load = &registry->histogram("ecfrm_planner_max_load", labels);
        m.fanout = &registry->histogram("ecfrm_planner_fanout_disks", labels);
        m.fetches = &registry->histogram("ecfrm_planner_fetches", labels);
    };
    fill(g_planner_metrics_storage.normal, "normal");
    fill(g_planner_metrics_storage.degraded, "degraded");
    fill(g_planner_metrics_storage.reconstruction, "reconstruction");
    g_planner_metrics.store(&g_planner_metrics_storage, std::memory_order_release);
}

AccessPlan plan_normal_read(const Scheme& scheme, ElementId start, std::int64_t count) {
    AccessPlan plan;
    plan_normal_read(scheme, start, count, plan);
    return plan;
}

void plan_normal_read(const Scheme& scheme, ElementId start, std::int64_t count, AccessPlan& plan) {
    // Distinct data elements never collide, so there is nothing to dedup.
    // Logical order is position-, then group-, then stripe-major, so the
    // coordinates are walked by carrying instead of divided out per
    // element.
    const auto& layout = scheme.layout();
    const int k = layout.data_per_group();
    const int groups = layout.groups_per_stripe();
    plan.reset(scheme.disks());
    plan.reserve(static_cast<std::size_t>(count));
    GroupCoord coord = count > 0 ? layout.coord_of_data(start) : GroupCoord{};
    for (std::int64_t i = 0; i < count; ++i) {
        plan.add_fetch({layout.locate(coord), coord, /*requested=*/true});
        if (++coord.position == k) {
            coord.position = 0;
            if (++coord.group == groups) {
                coord.group = 0;
                ++coord.stripe;
            }
        }
    }
    plan.set_requested(count);
    note_plan(plan, &PlannerMetrics::normal);
}

Result<AccessPlan> plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                                      DiskId failed_disk) {
    return plan_degraded_read(scheme, start, count, std::vector<DiskId>{failed_disk});
}

Result<AccessPlan> plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                                      const std::vector<DiskId>& failed_disks, DegradedPolicy policy,
                                      const std::vector<char>* stragglers) {
    PlanScratch scratch;
    AccessPlan plan;
    auto status = plan_degraded_read(
        scheme, start, count, failed_disks, policy,
        stragglers != nullptr ? std::span<const char>(*stragglers) : std::span<const char>(),
        scratch, plan);
    if (!status.ok()) return status.error();
    return plan;
}

Status plan_degraded_read(const Scheme& scheme, ElementId start, std::int64_t count,
                          std::span<const DiskId> failed_disks, DegradedPolicy policy,
                          std::span<const char> stragglers, PlanScratch& scratch,
                          AccessPlan& plan) {
    const auto& layout = scheme.layout();
    // Repair sources share their target's group, so every fetch lies in
    // the stripes the request spans.
    const StripeId first_stripe = count > 0 ? layout.coord_of_data(start).stripe : 0;
    const StripeId stripes =
        count > 0 ? layout.coord_of_data(start + count - 1).stripe - first_stripe + 1 : 0;
    PlanBuilder b(scheme, first_stripe, stripes, static_cast<std::size_t>(count), stragglers,
                  scratch, plan);

    std::vector<char>& disk_failed = scratch.disk_failed;
    disk_failed.assign(static_cast<std::size_t>(scheme.disks()), 0);
    for (DiskId d : failed_disks) {
        if (d < 0 || d >= scheme.disks()) return Error::range("no such disk");
        disk_failed[static_cast<std::size_t>(d)] = 1;
    }

    // Pass 1: requested elements on surviving disks are plain fetches.
    std::vector<GroupCoord>& lost = scratch.lost;
    lost.clear();
    for (std::int64_t i = 0; i < count; ++i) {
        const GroupCoord coord = layout.coord_of_data(start + i);
        if (disk_failed[static_cast<std::size_t>(layout.locate(coord).disk)] == 0) {
            b.fetch(coord, /*requested=*/true);
        } else {
            lost.push_back(coord);
        }
    }

    // Pass 2: plan repair traffic for each failed requested element.
    // A disk holds sub_packetization() elements of each group (one per
    // substripe; exactly one for classic w = 1 codes), so f failed disks
    // erase up to f * w elements per group — each gets its own repair,
    // with the dedup in fetch() sharing sources across them.
    for (const GroupCoord& target : lost) {
        auto added = add_repair(b, target, policy);
        if (!added.ok()) return added;
    }

    plan.set_requested(count);
    note_plan(plan, &PlannerMetrics::degraded);
    return Status::success();
}

Result<AccessPlan> plan_reconstruction(const Scheme& scheme, DiskId failed_disk, StripeId stripes) {
    PlanScratch scratch;
    AccessPlan plan;
    auto status = plan_reconstruction(scheme, failed_disk, 0, scheme.rows_for(stripes), {},
                                      scratch, plan);
    if (!status.ok()) return status.error();
    return plan;
}

Status plan_reconstruction(const Scheme& scheme, DiskId target_disk, RowId first_row, RowId rows,
                           std::span<const DiskId> failed_disks, PlanScratch& scratch,
                           AccessPlan& plan) {
    if (target_disk < 0 || target_disk >= scheme.disks()) return Error::range("no such disk");
    if (first_row < 0 || rows < 0) return Error::range("negative row range");
    const auto& layout = scheme.layout();
    // Repair sources share their target's group, so every fetch lies in
    // the stripes the rows span.
    const int rows_per_stripe = layout.rows_per_stripe();
    const StripeId first_stripe = first_row / rows_per_stripe;
    const StripeId stripes =
        rows > 0 ? (first_row + rows - 1) / rows_per_stripe - first_stripe + 1 : 0;
    PlanBuilder b(scheme, first_stripe, stripes, static_cast<std::size_t>(rows * scheme.code().k()),
                  {}, scratch, plan);

    scratch.disk_failed.assign(static_cast<std::size_t>(scheme.disks()), 0);
    scratch.disk_failed[static_cast<std::size_t>(target_disk)] = 1;
    for (DiskId d : failed_disks) {
        if (d < 0 || d >= scheme.disks()) return Error::range("no such disk");
        scratch.disk_failed[static_cast<std::size_t>(d)] = 1;
    }

    for (RowId row = first_row; row < first_row + rows; ++row) {
        auto added = add_repair(b, layout.coord_at({target_disk, row}), DegradedPolicy::local_first);
        if (!added.ok()) return added;
    }
    plan.set_requested(rows);
    note_plan(plan, &PlannerMetrics::reconstruction);
    return Status::success();
}

}  // namespace ecfrm::core

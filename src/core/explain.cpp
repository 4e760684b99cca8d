#include "core/explain.h"

#include <cstdio>

#include "obs/metrics.h"  // json_escape

namespace ecfrm::core {

namespace {

const char* policy_name(DegradedPolicy policy) {
    return policy == DegradedPolicy::balance ? "balance" : "local_first";
}

}  // namespace

Result<std::string> explain_read_json(const Scheme& scheme, ElementId start, std::int64_t count,
                                      const std::vector<DiskId>& failed_disks,
                                      DegradedPolicy policy) {
    if (start < 0) return Error::invalid("explain: negative start");
    if (count <= 0) return Error::invalid("explain: count must be positive");
    for (DiskId d : failed_disks) {
        if (d < 0 || d >= scheme.disks()) {
            return Error::invalid("explain: failed disk " + std::to_string(d) +
                                  " out of range for " + std::to_string(scheme.disks()) + " disks");
        }
    }

    AccessPlan plan(scheme.disks());
    if (failed_disks.empty()) {
        plan = plan_normal_read(scheme, start, count);
    } else {
        auto degraded = plan_degraded_read(scheme, start, count, failed_disks, policy);
        if (!degraded.ok()) {
            if (degraded.error().code == Error::Code::undecodable) {
                return Error::beyond_tolerance("explain: " + degraded.error().message);
            }
            return degraded.error();
        }
        plan = std::move(degraded).take();
    }

    // The plan's schedule model: one submission batch per serving disk —
    // the same grouping the executor issues and the simulator prices.
    const PlanBatches batches = plan.batches();
    const int fan_out = static_cast<int>(batches.size());

    std::string out = "{\"schema\":\"ecfrm.explain.v1\"";
    out += ",\"scheme\":\"" + obs::json_escape(scheme.name()) + "\"";
    out += ",\"layout\":\"" + std::string(layout::to_string(scheme.kind())) + "\"";
    out += ",\"code\":\"" + obs::json_escape(scheme.code().name()) + "\"";
    out += ",\"disks\":" + std::to_string(scheme.disks());
    // How much more damage the read path could route around: the code's
    // guaranteed tolerance minus the failures already being planned over
    // (negative only for luckily-decodable beyond-guarantee patterns).
    out += ",\"fault_tolerance\":" + std::to_string(scheme.code().fault_tolerance());
    out += ",\"tolerance_remaining\":" +
           std::to_string(scheme.code().fault_tolerance() -
                          static_cast<int>(failed_disks.size()));

    out += ",\"request\":{\"start\":" + std::to_string(start);
    out += ",\"count\":" + std::to_string(count);
    out += ",\"failed_disks\":[";
    for (std::size_t i = 0; i < failed_disks.size(); ++i) {
        if (i != 0) out += ",";
        out += std::to_string(failed_disks[i]);
    }
    out += "],\"policy\":\"" + std::string(policy_name(policy)) + "\"}";

    out += ",\"plan\":{\"per_disk_load\":[";
    for (std::size_t i = 0; i < plan.per_disk_loads().size(); ++i) {
        if (i != 0) out += ",";
        out += std::to_string(plan.per_disk_loads()[i]);
    }
    out += "],\"max_load\":" + std::to_string(plan.max_load());
    out += ",\"fan_out\":" + std::to_string(fan_out);
    out += ",\"total_fetched\":" + std::to_string(plan.total_fetched());
    out += ",\"requested\":" + std::to_string(plan.requested());
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.17g", plan.cost());
    out += std::string(",\"cost\":") + cost;

    out += ",\"fetches\":[";
    for (std::size_t i = 0; i < plan.fetches().size(); ++i) {
        const Access& a = plan.fetches()[i];
        if (i != 0) out += ",";
        out += "{\"disk\":" + std::to_string(a.loc.disk);
        out += ",\"row\":" + std::to_string(a.loc.row);
        out += ",\"stripe\":" + std::to_string(a.coord.stripe);
        out += ",\"group\":" + std::to_string(a.coord.group);
        out += ",\"position\":" + std::to_string(a.coord.position);
        out += std::string(",\"requested\":") + (a.requested ? "true" : "false") + "}";
    }
    out += "]";

    out += ",\"batches\":[";
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const DiskBatch& b = batches[i];
        if (i != 0) out += ",";
        out += "{\"disk\":" + std::to_string(b.disk);
        out += ",\"depth\":" + std::to_string(b.rows.size());
        out += ",\"rows\":[";
        for (std::size_t r = 0; r < b.rows.size(); ++r) {
            if (r != 0) out += ",";
            out += std::to_string(b.rows[r]);
        }
        out += "]}";
    }
    out += "]";

    out += ",\"decodes\":[";
    for (std::size_t i = 0; i < plan.decodes().size(); ++i) {
        const GroupDecode& d = plan.decodes()[i];
        if (i != 0) out += ",";
        out += "{\"stripe\":" + std::to_string(d.stripe);
        out += ",\"group\":" + std::to_string(d.group);
        out += ",\"lost_position\":" + std::to_string(d.repair->target_position);
        out += ",\"sources\":[";
        // Map each source's code position back to its physical disk so the
        // repair equation reads as actual I/O, not abstract algebra.
        const auto locations = scheme.group_locations(d.stripe, d.group);
        for (std::size_t t = 0; t < d.repair->terms.size(); ++t) {
            const codes::RepairTerm& term = d.repair->terms[t];
            if (t != 0) out += ",";
            const DiskId disk =
                term.source_position >= 0 &&
                        term.source_position < static_cast<int>(locations.size())
                    ? locations[static_cast<std::size_t>(term.source_position)].disk
                    : -1;
            out += "{\"position\":" + std::to_string(term.source_position);
            out += ",\"disk\":" + std::to_string(disk);
            out += ",\"coeff\":" + std::to_string(static_cast<int>(term.coeff)) + "}";
        }
        out += "]}";
    }
    out += "]}}\n";
    return out;
}

}  // namespace ecfrm::core

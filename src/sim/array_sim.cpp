#include "sim/array_sim.h"

#include <algorithm>
#include <string>

namespace ecfrm::sim {

ReadTiming simulate_read(const core::AccessPlan& plan, const DiskModel& model, Rng& rng,
                         obs::MetricRegistry* metrics) {
    double slowest = 0.0;
    for (const core::DiskBatch& batch : plan.batches()) {
        const double t = model.service_seconds({batch.rows.begin(), batch.rows.end()}, rng);
        slowest = std::max(slowest, t);
        if (metrics != nullptr) {
            const obs::Labels labels{{"disk", std::to_string(batch.disk)}};
            metrics->histogram("ecfrm_sim_disk_service_seconds", labels).record(t);
            metrics->counter("ecfrm_sim_disk_elements_total", labels)
                .add(static_cast<std::int64_t>(batch.rows.size()));
        }
    }

    ReadTiming timing;
    timing.seconds = slowest;
    timing.requested_bytes = plan.requested() * model.element_bytes();
    return timing;
}

ReadTiming simulate_read_with_network(const core::AccessPlan& plan, const DiskModel& model,
                                      double link_mb_s, Rng& rng, obs::MetricRegistry* metrics) {
    ReadTiming timing = simulate_read(plan, model, rng, metrics);
    const double wire_bytes = static_cast<double>(plan.total_fetched() * model.element_bytes());
    const double wire_seconds = wire_bytes / (link_mb_s * 1e6);
    timing.seconds = std::max(timing.seconds, wire_seconds);
    return timing;
}

}  // namespace ecfrm::sim

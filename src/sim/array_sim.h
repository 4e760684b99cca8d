// Per-request array simulation: price an AccessPlan against a disk array.
//
// The request is issued to all disks in parallel; it completes when the
// slowest involved disk finishes its batch — the mechanism the paper's
// measurements hinge on (Section III-A).
#pragma once

#include "common/rng.h"
#include "core/access_plan.h"
#include "obs/metrics.h"
#include "sim/disk_model.h"

namespace ecfrm::sim {

struct ReadTiming {
    double seconds = 0.0;
    std::int64_t requested_bytes = 0;

    /// Delivered user bandwidth in MB/s (the paper's "read speed").
    double mb_per_s() const {
        return seconds <= 0.0 ? 0.0 : static_cast<double>(requested_bytes) / 1e6 / seconds;
    }
};

/// Simulate one read request described by `plan`: each batch of
/// plan.batches() — the executor's submission units — is priced as one
/// disk job, in ascending disk order, so the same plan draws the same
/// service times here as in a one-request run_cluster. With a registry
/// attached, each disk batch feeds its simulated service time
/// into ecfrm_sim_disk_service_seconds{disk=i} and its element count
/// into ecfrm_sim_disk_elements_total{disk=i}.
ReadTiming simulate_read(const core::AccessPlan& plan, const DiskModel& model, Rng& rng,
                         obs::MetricRegistry* metrics = nullptr);

/// Same, with a finite client network link: every fetched element (repair
/// traffic included) crosses one shared link, so completion time is
/// max(slowest disk batch, total fetched bytes / link rate). Models the
/// paper's "sufficient bandwidth" assumption breaking down (Section III).
ReadTiming simulate_read_with_network(const core::AccessPlan& plan, const DiskModel& model,
                                      double link_mb_s, Rng& rng,
                                      obs::MetricRegistry* metrics = nullptr);

}  // namespace ecfrm::sim

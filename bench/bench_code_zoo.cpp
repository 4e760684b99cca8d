// Repair-efficient code zoo: repair traffic and degraded tail latency for
// the piggybacked codes (Hitchhiker-XOR, HTEC) against plain RS at the
// same node geometry.
//
// Part 1 is deterministic plan accounting: single-node reconstruction
// bytes per rebuilt byte, measured on AccessPlan batch schedules. The
// headline ratio — HHXOR(6,4) repair bytes over RS(6,4)'s — is recorded
// as a scalar and must stay at or below 0.75 (it is 2/3 by construction:
// k + |G| = 8 element reads against RS's 2k = 12).
//
// Part 2 prices degraded reads on the calibrated disk array model under
// the EC-FRM layout and reports mean speed and p99 latency. The piggyback
// structure pays a small degraded-read premium (repairing a substripe-a
// element reads k + |G| sources instead of k) in exchange for the repair
// savings; the gate keeps that premium from silently growing.
#include "harness.h"

#include "sim/array_sim.h"

namespace {

using namespace ecfrm;
using namespace ecfrm::bench;

struct RepairRow {
    std::string name;
    double avg_bytes_per_rebuilt = 0.0;  // over all data nodes
    double worst_bytes_per_rebuilt = 0.0;
};

/// Single-node reconstruction traffic, averaged over every data node:
/// fetched elements per rebuilt element, from the real plan's batches.
RepairRow measure_repair(const std::string& spec) {
    const core::Scheme scheme = make_scheme(spec, layout::LayoutKind::standard);
    const auto& code = scheme.code();
    RepairRow row;
    row.name = scheme.code().name();
    double sum = 0.0;
    for (int node = 0; node < code.data_nodes(); ++node) {
        auto plan = core::plan_reconstruction(scheme, node, /*stripes=*/4);
        if (!plan.ok()) {
            std::fprintf(stderr, "reconstruction plan failed for %s node %d: %s\n", spec.c_str(),
                         node, plan.error().message.c_str());
            std::abort();
        }
        std::int64_t fetched = 0;
        for (const auto& batch : plan->batches()) {
            fetched += static_cast<std::int64_t>(batch.indices.size());
        }
        const double ratio = static_cast<double>(fetched) / static_cast<double>(plan->requested());
        sum += ratio;
        if (ratio > row.worst_bytes_per_rebuilt) row.worst_bytes_per_rebuilt = ratio;
    }
    row.avg_bytes_per_rebuilt = sum / code.data_nodes();
    ArtifactWriter::instance().add_scalar("repair_bytes_per_rebuilt/" + row.name, "x rebuilt",
                                          Direction::lower_is_better, row.avg_bytes_per_rebuilt);
    return row;
}

struct DegradedRow {
    double speed_mb_s = 0.0;
    double p99_us = 0.0;
    double cost = 0.0;
};

/// Degraded reads under the paper protocol on the EC-FRM layout,
/// reporting the tail as well as the mean.
DegradedRow measure_degraded(const std::string& spec, const Protocol& proto) {
    const core::Scheme scheme = make_scheme(spec, layout::LayoutKind::ecfrm);
    const std::int64_t elements =
        static_cast<std::int64_t>(proto.stripes_stored) * scheme.layout().data_per_stripe();
    sim::DiskModel model(sim::DiskProfile::savvio_10k3(), proto.element_bytes);
    Rng rng(proto.seed + 1);
    obs::MetricRegistry* metrics = metrics_sidecar();
    SampleSet speeds;
    SampleSet latencies_us;
    SampleSet costs;
    for (int t = 0; t < proto.degraded_trials; ++t) {
        const auto req = workload::random_degraded_read(rng, elements, scheme.disks(),
                                                        proto.max_request_elements);
        auto plan = core::plan_degraded_read(scheme, req.read.start, req.read.count, req.failed_disk);
        if (!plan.ok()) {
            std::fprintf(stderr, "degraded plan failed: %s\n", plan.error().message.c_str());
            std::abort();
        }
        const sim::ReadTiming timing = sim::simulate_read(plan.value(), model, rng, metrics);
        speeds.add(timing.mb_per_s());
        latencies_us.add(timing.seconds * 1e6);
        costs.add(plan->cost());
    }
    const std::string name = scheme.code().name();
    ArtifactWriter::instance().add_samples("degraded_speed/" + name, "MB/s",
                                           Direction::higher_is_better, speeds);
    ArtifactWriter::instance().add_samples("degraded_latency/" + name, "us",
                                           Direction::lower_is_better, latencies_us);
    DegradedRow row;
    row.speed_mb_s = speeds.stats().mean();
    row.p99_us = latencies_us.percentile(0.99);
    row.cost = costs.stats().mean();
    return row;
}

}  // namespace

int main() {
    Protocol proto;
    record_protocol(proto);

    // Each zoo code against RS at the SAME node geometry: HHXOR(6,4)
    // stores on 6+4 nodes like RS(6,4); HTEC(9,6,3) on 9 like RS(6,3).
    const std::vector<std::pair<std::string, std::string>> matchups{
        {"hhxor:6,4", "rs:6,4"},
        {"htec:9,6,3", "rs:6,3"},
    };

    std::printf("=== Code zoo: single-node repair traffic (standard layout) ===\n");
    std::printf("%-14s %-12s %10s %10s %10s\n", "code", "baseline", "avg x", "worst x",
                "vs RS");
    for (const auto& [zoo_spec, rs_spec] : matchups) {
        const RepairRow zoo = measure_repair(zoo_spec);
        const RepairRow rs = measure_repair(rs_spec);
        const double ratio = zoo.avg_bytes_per_rebuilt / rs.avg_bytes_per_rebuilt;
        std::printf("%-14s %-12s %10.3f %10.3f %9.1f%%\n", zoo.name.c_str(), rs.name.c_str(),
                    zoo.avg_bytes_per_rebuilt, zoo.worst_bytes_per_rebuilt, ratio * 100.0);
        ArtifactWriter::instance().add_scalar("repair_ratio_vs_rs/" + zoo.name, "ratio",
                                              Direction::lower_is_better, ratio);
    }

    std::printf("\n=== Code zoo: degraded reads (ecfrm layout, %d trials) ===\n",
                proto.degraded_trials);
    std::printf("%-14s %12s %12s %10s\n", "code", "speed MB/s", "p99 us", "cost");
    for (const auto& [zoo_spec, rs_spec] : matchups) {
        for (const std::string& spec : {rs_spec, zoo_spec}) {
            const core::Scheme scheme = make_scheme(spec, layout::LayoutKind::ecfrm);
            const DegradedRow row = measure_degraded(spec, proto);
            std::printf("%-14s %12.2f %12.1f %10.3f\n", scheme.code().name().c_str(),
                        row.speed_mb_s, row.p99_us, row.cost);
        }
    }
    return 0;
}

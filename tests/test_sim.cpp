// Simulator: disk model pricing, per-request array timing, DES cluster
// behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "codes/factory.h"
#include "core/read_planner.h"
#include "sim/array_sim.h"
#include "obs/request_trace.h"
#include "sim/cluster_sim.h"
#include "sim/disk_model.h"
#include "sim/event_queue.h"

namespace ecfrm::sim {
namespace {

using layout::LayoutKind;

DiskProfile no_jitter_profile() {
    DiskProfile p = DiskProfile::savvio_10k3();
    p.seek_jitter = 0.0;
    p.full_rotation_ms = 0.0;  // deterministic positioning
    return p;
}

TEST(DiskModel, EmptyBatchIsFree) {
    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(model.service_seconds({}, rng), 0.0);
}

TEST(DiskModel, SingleElementIsSeekPlusTransfer) {
    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng(1);
    const double t = model.service_seconds({5}, rng);
    EXPECT_NEAR(t, 4.1e-3 + model.transfer_seconds(), 1e-12);
}

TEST(DiskModel, ContiguousRunCostsOneSeek) {
    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng(1);
    const double contig = model.service_seconds({3, 4, 5, 6}, rng);
    const double spread = model.service_seconds({3, 10, 20, 30}, rng);
    // Contiguous run: one full positioning. Spread run: full positioning
    // for the first extent, short (near) seeks for the other three.
    EXPECT_NEAR(contig, 4.1e-3 + 4 * model.transfer_seconds(), 1e-12);
    EXPECT_NEAR(spread, 4.1e-3 + 3 * 1.0e-3 + 4 * model.transfer_seconds(), 1e-12);
    EXPECT_LT(contig, spread);
}

TEST(DiskModel, UnsortedInputIsHandled) {
    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng(1);
    EXPECT_DOUBLE_EQ(model.service_seconds({6, 3, 5, 4}, rng), model.service_seconds({3, 4, 5, 6}, rng));
}

TEST(DiskModel, JitterStaysInBounds) {
    DiskProfile p = DiskProfile::savvio_10k3();  // jitter 0.5, rotation 6ms
    DiskModel model(p, 1 << 20);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double t = model.service_seconds({0}, rng);
        const double lo = 4.1e-3 * 0.5 + model.transfer_seconds();
        const double hi = 4.1e-3 * 1.5 + 6e-3 + model.transfer_seconds();
        EXPECT_GE(t, lo - 1e-12);
        EXPECT_LE(t, hi + 1e-12);
    }
}

TEST(ArraySim, CompletionIsSlowestDisk) {
    // Build a plan by hand: 3 elements on disk 0, 1 on disk 1.
    core::AccessPlan plan(4);
    core::Access a;
    for (RowId r : {0, 2, 4}) {
        a.loc = {0, r};
        plan.add_fetch(a);
    }
    a.loc = {1, 0};
    plan.add_fetch(a);
    plan.set_requested(4);

    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng(1);
    const auto timing = simulate_read(plan, model, rng);
    // Disk 0: 3 non-contiguous extents (1 full + 2 near positionings).
    EXPECT_NEAR(timing.seconds, 4.1e-3 + 2 * 1.0e-3 + 3 * model.transfer_seconds(), 1e-12);
    EXPECT_EQ(timing.requested_bytes, 4 << 20);
    EXPECT_GT(timing.mb_per_s(), 0.0);
}

TEST(ArraySim, BalancedPlanBeatsSkewedPlan) {
    auto code = codes::make_lrc(6, 2, 2);
    ASSERT_TRUE(code.ok());
    core::Scheme standard(code.value(), LayoutKind::standard);
    core::Scheme ecfrm(code.value(), LayoutKind::ecfrm);

    DiskModel model(no_jitter_profile(), 1 << 20);
    Rng rng1(3), rng2(3);
    const auto t_std = simulate_read(core::plan_normal_read(standard, 0, 8), model, rng1);
    const auto t_frm = simulate_read(core::plan_normal_read(ecfrm, 0, 8), model, rng2);
    EXPECT_LT(t_frm.seconds, t_std.seconds);  // max load 1 vs 2
}

TEST(ArraySim, NetworkCapBindsWhenLinkIsSlow) {
    auto code = codes::make_lrc(6, 2, 2);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::ecfrm);
    DiskModel model(no_jitter_profile(), 1 << 20);
    const auto plan = core::plan_normal_read(scheme, 0, 10);

    Rng r1(5), r2(5), r3(5);
    const auto unlimited = simulate_read(plan, model, r1);
    const auto fast_link = simulate_read_with_network(plan, model, 1e6, r2);
    EXPECT_DOUBLE_EQ(fast_link.seconds, unlimited.seconds);

    // 10 MB over a 10 MB/s link takes 1 s — far beyond any disk batch.
    const auto slow_link = simulate_read_with_network(plan, model, 10.0, r3);
    EXPECT_NEAR(slow_link.seconds, 10.0 * (1 << 20) / 10e6, 1e-9);
    EXPECT_GT(slow_link.seconds, unlimited.seconds);
}

TEST(ArraySim, NetworkCountsRepairTrafficToo) {
    // A degraded read fetches more than it delivers; the wire time must be
    // priced on the fetched bytes, not the requested bytes.
    auto code = codes::make_rs(6, 3);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::standard);
    DiskModel model(no_jitter_profile(), 1 << 20);
    auto plan = core::plan_degraded_read(scheme, 0, 1, 0);  // 1 wanted, 6 fetched
    ASSERT_TRUE(plan.ok());
    Rng rng(7);
    const double link = 100.0;  // MB/s
    const auto t = simulate_read_with_network(plan.value(), model, link, rng);
    EXPECT_NEAR(t.seconds, 6.0 * (1 << 20) / (link * 1e6), 1e-9);
    EXPECT_EQ(t.requested_bytes, 1 << 20);
}

TEST(EventQueue, OrdersByTimeThenInsertion) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(2.0, [&] { order.push_back(3); });
    q.schedule_at(1.0, [&] { order.push_back(1); });
    q.schedule_at(1.0, [&] { order.push_back(2); });  // same time: insertion order
    const double end = q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(end, 2.0);
}

TEST(EventQueue, HandlersCanScheduleMore) {
    EventQueue q;
    int fired = 0;
    q.schedule_at(1.0, [&] {
        ++fired;
        q.schedule_in(0.5, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(q.now(), 1.5);
}

TEST(ClusterSim, SequentialRequestsQueueOnOneDisk) {
    auto code = codes::make_rs(6, 3);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::standard);
    DiskModel model(no_jitter_profile(), 1 << 20);

    // Two single-element requests for the same element arriving together:
    // the second must wait for the first (FIFO on the disk).
    std::vector<ClusterRequest> reqs;
    reqs.push_back({0.0, core::plan_normal_read(scheme, 0, 1)});
    reqs.push_back({0.0, core::plan_normal_read(scheme, 0, 1)});
    Rng rng(1);
    const auto stats = run_cluster(std::move(reqs), model, scheme.disks(), rng);
    ASSERT_EQ(stats.results.size(), 2u);
    const double one = 4.1e-3 + model.transfer_seconds();
    EXPECT_NEAR(stats.results[0].latency_seconds(), one, 1e-9);
    EXPECT_NEAR(stats.results[1].latency_seconds(), 2 * one, 1e-9);
    EXPECT_NEAR(stats.makespan_seconds, 2 * one, 1e-9);
}

TEST(ClusterSim, DisjointDisksProceedInParallel) {
    auto code = codes::make_rs(6, 3);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::standard);
    DiskModel model(no_jitter_profile(), 1 << 20);

    std::vector<ClusterRequest> reqs;
    reqs.push_back({0.0, core::plan_normal_read(scheme, 0, 1)});  // disk 0
    reqs.push_back({0.0, core::plan_normal_read(scheme, 1, 1)});  // disk 1
    Rng rng(1);
    const auto stats = run_cluster(std::move(reqs), model, scheme.disks(), rng);
    const double one = 4.1e-3 + model.transfer_seconds();
    EXPECT_NEAR(stats.results[0].latency_seconds(), one, 1e-9);
    EXPECT_NEAR(stats.results[1].latency_seconds(), one, 1e-9);
}

TEST(ClusterSim, ForensicsRecordSimTimeSpanTrees) {
    // With a RequestForensics attached, every simulated request gets a
    // span tree on the virtual clock: root -> fetch phase -> per-disk
    // batch (and queue-wait) spans, with degraded classification for
    // plans that decode and latencies matching the DES results exactly.
    auto code = codes::make_rs(6, 3);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::standard);
    DiskModel model(no_jitter_profile(), 1 << 20);

    // Two same-disk requests (the second queues) plus one degraded read.
    auto broken = core::plan_degraded_read(scheme, 0, 1, 0);
    ASSERT_TRUE(broken.ok());
    std::vector<ClusterRequest> reqs;
    reqs.push_back({0.0, core::plan_normal_read(scheme, 0, 1)});
    reqs.push_back({0.0, core::plan_normal_read(scheme, 0, 1)});
    reqs.push_back({0.1, std::move(broken).take()});
    Rng rng(1);
    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = 0.0;  // capture every request
    obs::RequestForensics forensics(fopts);
    const auto stats = run_cluster(std::move(reqs), model, scheme.disks(), rng,
                                   nullptr, &forensics);
    ASSERT_EQ(stats.results.size(), 3u);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::normal), 2);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::degraded), 1);

    // The degraded request's sim-time root duration matches the DES
    // latency (seconds -> microseconds) exactly.
    const auto exemplars = forensics.exemplars();
    ASSERT_EQ(exemplars.size(), 3u);
    const auto degraded_it =
        std::find_if(exemplars.begin(), exemplars.end(), [](const auto& e) {
            return e->cls() == obs::RequestClass::degraded;
        });
    ASSERT_NE(degraded_it, exemplars.end());
    const auto& rt = **degraded_it;
    EXPECT_EQ(rt.cls(), obs::RequestClass::degraded);
    EXPECT_TRUE(rt.ok());
    EXPECT_NEAR(rt.dur_us(), stats.results[2].latency_seconds() * 1e6, 1e-3);
    EXPECT_GT(rt.decodes(), 0);

    // Tree shape: a fetch phase under the root, disk.batch spans under
    // the fetch (6 sources for the RS(6,3) repair), queue waits only
    // where the disk was busy.
    bool saw_fetch = false;
    int disk_batches = 0;
    for (const auto& node : rt.nodes()) {
        if (node.name == "fetch") {
            saw_fetch = true;
            EXPECT_EQ(node.parent, obs::RequestTrace::kRoot);
        }
        if (node.name == "disk.batch") ++disk_batches;
    }
    EXPECT_TRUE(saw_fetch);
    EXPECT_EQ(disk_batches, 6);

    // The windowed percentile lives on the same virtual clock: query at
    // the makespan and the slowest normal request is visible.
    const double now_us = stats.makespan_seconds * 1e6;
    EXPECT_NEAR(forensics.windowed_percentile(obs::RequestClass::normal, 1.0, now_us),
                stats.results[1].latency_seconds() * 1e6,
                0.05 * stats.results[1].latency_seconds() * 1e6);
}

TEST(ClusterSim, StatsAggregations) {
    ClusterStats stats;
    stats.makespan_seconds = 2.0;
    for (int i = 0; i < 100; ++i) {
        RequestResult r;
        r.arrival_seconds = 0.0;
        r.completion_seconds = 0.01 * (i + 1);
        r.requested_bytes = 1 << 20;
        stats.results.push_back(r);
    }
    EXPECT_NEAR(stats.mean_latency(), 0.505, 1e-9);
    EXPECT_NEAR(stats.p99_latency(), 0.99, 1e-2);
    EXPECT_NEAR(stats.throughput_mb_s(), 100.0 * 1.048576 / 2.0, 1e-6);
}

TEST(ArraySim, PricesTheSameBatchesAsOneRequestCluster) {
    // simulate_read and run_cluster both price plan.batches(), one disk
    // job per batch in ascending disk order, so a lone request arriving
    // at t=0 draws the same service times and completes at the same
    // instant, bit for bit.
    auto code = codes::make_rs(6, 3);
    ASSERT_TRUE(code.ok());
    DiskModel model(DiskProfile::savvio_10k3(), 1 << 20);
    for (LayoutKind kind : {LayoutKind::standard, LayoutKind::rotated, LayoutKind::ecfrm}) {
        core::Scheme scheme(code.value(), kind);
        for (bool degraded : {false, true}) {
            SCOPED_TRACE(std::string(layout::to_string(kind)) + (degraded ? "/degraded" : ""));
            for (std::int64_t count : {1, 7, 18, 40}) {
                core::AccessPlan plan = core::plan_normal_read(scheme, 5, count);
                if (degraded) {
                    auto planned = core::plan_degraded_read(scheme, 5, count, 1);
                    ASSERT_TRUE(planned.ok());
                    plan = std::move(planned).take();
                }
                Rng array_rng(99);
                const double array = simulate_read(plan, model, array_rng).seconds;
                std::vector<ClusterRequest> reqs;
                reqs.push_back({0.0, std::move(plan)});
                Rng cluster_rng(99);
                const auto stats = run_cluster(std::move(reqs), model, scheme.disks(), cluster_rng);
                ASSERT_EQ(stats.results.size(), 1u);
                EXPECT_EQ(array, stats.results[0].latency_seconds()) << "count " << count;
            }
        }
    }
}

TEST(Determinism, SameSeedSameTimings) {
    auto code = codes::make_lrc(6, 2, 2);
    ASSERT_TRUE(code.ok());
    core::Scheme scheme(code.value(), LayoutKind::ecfrm);
    DiskModel model(DiskProfile::savvio_10k3(), 1 << 20);
    Rng a(42), b(42);
    const auto plan = core::plan_normal_read(scheme, 3, 12);
    EXPECT_DOUBLE_EQ(simulate_read(plan, model, a).seconds, simulate_read(plan, model, b).seconds);
}

}  // namespace
}  // namespace ecfrm::sim

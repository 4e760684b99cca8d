// DiskHeatModel: windowed per-device health stats, straggler flagging,
// the adaptive hedge deadline, and the predicted-vs-measured balance
// loop against core/analysis::closed_form_max_load.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/factory.h"
#include "core/analysis.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "store/stripe_store.h"

namespace ecfrm::obs {
namespace {

using layout::LayoutKind;

TEST(WindowedCounter, TotalsDecayWithTheWindow) {
    WindowedCounter c(60.0, 6);  // 10 s sub-windows
    c.add(5, 100.0);
    c.add(7, 115.0);
    EXPECT_EQ(c.total(115.0), 12);
    EXPECT_DOUBLE_EQ(c.rate(115.0), 12.0 / 60.0);

    // 60 s later the first sub-window has slid out; 5 of the deltas
    // expire with it.
    EXPECT_EQ(c.total(165.0), 7);
    // Far beyond the window everything decays to zero.
    EXPECT_EQ(c.total(400.0), 0);
    EXPECT_DOUBLE_EQ(c.rate(400.0), 0.0);
}

TEST(DiskHeatModel, WindowedStatsAndEwmaPerDisk) {
    DiskHeatModel heat(3);
    const double t = 1000.0;
    heat.on_issue(1);
    EXPECT_EQ(heat.in_flight(1), 1);

    heat.on_complete(1, 4, 4096, 200.0, t);
    EXPECT_EQ(heat.in_flight(1), 0);
    heat.on_issue(1);
    heat.on_complete(1, 2, 2048, 400.0, t + 1.0);

    const auto d = heat.disk_snapshot(1, t + 1.0);
    EXPECT_EQ(d.disk, 1);
    EXPECT_EQ(d.total_ops, 6);
    EXPECT_EQ(d.total_bytes, 6144);
    EXPECT_EQ(d.ops, 6);
    EXPECT_EQ(d.bytes, 6144);
    EXPECT_GT(d.ops_per_sec, 0.0);
    // Windowed mean is per completion (two queue completions), EWMA is
    // primed by the first sample then blended: 200 + 0.2 * (400 - 200).
    EXPECT_NEAR(d.mean_latency_us, 300.0, 30.0);
    EXPECT_NEAR(d.ewma_latency_us, 240.0, 1e-9);
    EXPECT_GE(d.p99_latency_us, d.mean_latency_us);

    // Untouched disks stay zero; out-of-range ids are tolerated no-ops.
    EXPECT_EQ(heat.disk_snapshot(0, t + 1.0).ops, 0);
    heat.on_complete(99, 1, 1, 1.0, t);
    heat.on_issue(-4);
    EXPECT_EQ(heat.in_flight(99), 0);
}

TEST(DiskHeatModel, ErrorTimeoutRetryRates) {
    DiskHeatModel heat(2);
    const double t = 50.0;
    for (int i = 0; i < 10; ++i) heat.on_complete(0, 1, 64, 100.0, t);
    heat.on_error(0, t);
    heat.on_timeout(0, t);
    heat.on_timeout(0, t);
    heat.on_retry(0, t);

    const auto d = heat.disk_snapshot(0, t);
    EXPECT_EQ(d.errors, 1);
    EXPECT_EQ(d.timeouts, 2);
    EXPECT_EQ(d.retries, 1);
    EXPECT_NEAR(d.error_rate, 3.0 / 10.0, 1e-9);
}

TEST(DiskHeatModel, StragglerFlaggedAgainstFleetMedian) {
    HeatOptions opts;
    opts.min_ops = 4;
    DiskHeatModel heat(4, opts);
    const double t = 10.0;
    for (int i = 0; i < 6; ++i) {
        heat.on_complete(0, 1, 64, 100.0, t);
        heat.on_complete(1, 1, 64, 110.0, t);
        heat.on_complete(2, 1, 64, 90.0, t);
        heat.on_complete(3, 1, 64, 5000.0, t);  // ~50x the fleet median
    }

    const auto cluster = heat.snapshot(t);
    ASSERT_EQ(cluster.stragglers.size(), 1u);
    EXPECT_EQ(cluster.stragglers[0], 3);
    EXPECT_GT(cluster.fleet_median_latency_us, 0.0);

    const auto slow = heat.disk_snapshot(3, t);
    EXPECT_TRUE(slow.straggler);
    EXPECT_GT(slow.straggler_score, heat.options().straggler_factor);
    EXPECT_FALSE(heat.disk_snapshot(0, t).straggler);

    const auto mask = heat.straggler_mask(t);
    ASSERT_EQ(mask.size(), 4u);
    EXPECT_EQ(mask[3], 1);
    EXPECT_EQ(mask[0] + mask[1] + mask[2], 0);
}

TEST(DiskHeatModel, ColdFleetIsNeverJudged) {
    // Below min_ops nothing is flagged and the adaptive deadline refuses
    // to fire, however skewed the few samples look.
    DiskHeatModel heat(3);
    const double t = 5.0;
    heat.on_complete(0, 1, 64, 10.0, t);
    heat.on_complete(1, 1, 64, 90000.0, t);
    EXPECT_TRUE(heat.snapshot(t).stragglers.empty());
    EXPECT_EQ(heat.hedge_deadline_ms({0, 1, 2}, 3.0, 0.5, t), 0.0);
}

TEST(DiskHeatModel, HedgeDeadlineTracksMedianP99) {
    HeatOptions opts;
    opts.min_ops = 4;
    DiskHeatModel heat(3, opts);
    const double t = 20.0;
    for (int i = 0; i < 8; ++i) {
        heat.on_complete(0, 1, 64, 2000.0, t);  // p99 ~2 ms
        heat.on_complete(1, 1, 64, 4000.0, t);  // p99 ~4 ms
        heat.on_complete(2, 1, 64, 80000.0, t);  // the straggler's own tail
    }
    // Median p99 of the three participants is disk 1's ~4 ms: the one
    // slow disk cannot drag the deadline up to its own 80 ms tail.
    const double ms = heat.hedge_deadline_ms({0, 1, 2}, 3.0, 0.5, t);
    EXPECT_GT(ms, 3.0 * 3.0);
    EXPECT_LT(ms, 3.0 * 6.0);

    // The floor applies when the fleet is very fast.
    DiskHeatModel fast(2, opts);
    for (int i = 0; i < 8; ++i) {
        fast.on_complete(0, 1, 64, 1.0, t);
        fast.on_complete(1, 1, 64, 1.0, t);
    }
    EXPECT_DOUBLE_EQ(fast.hedge_deadline_ms({0, 1}, 3.0, 0.5, t), 0.5);
}

TEST(DiskHeatModel, JsonExports) {
    DiskHeatModel heat(2);
    const double t = 30.0;
    heat.on_complete(0, 3, 192, 150.0, t);
    heat.on_request(3, t);

    const std::string disks = heat.disks_json(t);
    EXPECT_NE(disks.find("ecfrm.disks.v1"), std::string::npos);
    EXPECT_NE(disks.find("\"disk\":0"), std::string::npos);
    EXPECT_NE(disks.find("\"in_flight\""), std::string::npos);

    const std::string cluster = heat.heat_json(t);
    EXPECT_NE(cluster.find("ecfrm.heat.v1"), std::string::npos);
    EXPECT_NE(cluster.find("\"measured_max_load\""), std::string::npos);
    EXPECT_NE(cluster.find("\"stragglers\""), std::string::npos);

    // NDJSON: one object per disk per line.
    const std::string nd = heat.disks_ndjson(t);
    int lines = 0;
    for (char c : nd) lines += c == '\n';
    EXPECT_EQ(lines, 2);
}

// ---- predicted vs measured balance ----------------------------------------

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

TEST(HeatBalance, MeasuredMaxLoadMatchesClosedForm) {
    // Fixed-size uniform reads through a real store with heat attached:
    // the windowed mean of per-request max batch depth must land on the
    // closed-form prediction exactly (the paper's load figure, which is
    // offset-independent for the standard and EC-FRM layouts).
    const std::int64_t elem = 64;
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (const LayoutKind kind : {LayoutKind::standard, LayoutKind::ecfrm}) {
            auto scheme = make_scheme(spec, kind);
            const int n = scheme.disks();
            const int k = scheme.code().k();
            const std::int64_t per_stripe = scheme.layout().data_per_stripe();

            store::StripeStore store(make_scheme(spec, kind), elem);
            std::vector<std::uint8_t> payload(static_cast<std::size_t>(6 * per_stripe * elem));
            for (std::size_t i = 0; i < payload.size(); ++i) {
                payload[i] = static_cast<std::uint8_t>(i & 0xff);
            }
            ASSERT_TRUE(store.append(ConstByteSpan(payload.data(), payload.size())).ok());
            ASSERT_TRUE(store.flush().ok());

            for (const int request_elems : {1, 4, 7}) {
                const int predicted = core::closed_form_max_load(kind, n, k, request_elems);
                ASSERT_GT(predicted, 0) << spec;

                DiskHeatModel heat(n);
                store.attach_observability(nullptr, nullptr, &heat);
                std::vector<std::uint8_t> out(static_cast<std::size_t>(request_elems * elem));
                for (ElementId start = 0; start < per_stripe; ++start) {
                    ASSERT_TRUE(store
                                    .read_elements(start, request_elems,
                                                   ByteSpan(out.data(), out.size()))
                                    .ok());
                }
                const auto cluster = heat.snapshot(DiskHeatModel::now_seconds());
                EXPECT_EQ(cluster.requests, per_stripe);
                EXPECT_NEAR(cluster.measured_max_load, static_cast<double>(predicted), 1e-9)
                    << spec << " kind " << static_cast<int>(kind) << " E " << request_elems;
                EXPECT_GE(cluster.load_factor, 1.0);
                store.attach_observability(nullptr);
            }
        }
    }
}

TEST(HeatBalance, RotatedLayoutHasNoClosedFormToCompare) {
    EXPECT_EQ(core::closed_form_max_load(LayoutKind::rotated, 9, 6, 10), -1);
}

TEST(IoStatsGauge, InFlightTracksIssueAndSettle) {
    MetricRegistry registry("ecfrm_test");
    IoStats stats = registry.disk_io_stats(2);
    ASSERT_NE(stats.in_flight, nullptr);
    stats.on_issue(3);
    EXPECT_DOUBLE_EQ(stats.in_flight->value(), 3.0);
    stats.on_settled(2);
    stats.on_settled();
    EXPECT_DOUBLE_EQ(stats.in_flight->value(), 0.0);

    // The gauge is registered per disk and shows up in the exposition.
    const std::string prom = registry.to_prometheus();
    EXPECT_NE(prom.find("ecfrm_disk_in_flight_ops"), std::string::npos);
}

}  // namespace
}  // namespace ecfrm::obs

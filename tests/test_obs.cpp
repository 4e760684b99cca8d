// Observability substrate: counters, gauges, log-bucketed histograms,
// registry identity, exporters, and the per-disk IoStats account that
// the store's executor keeps — including a threaded stress run that
// doubles as the sanitizer target (build with
// -DECFRM_SANITIZE=address or =undefined). Also the
// tail-forensics layer: sliding-window histograms, the SLO tracker,
// per-request span trees, the exemplar store and its chrome export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/json.h"
#include "obs/request_trace.h"
#include "obs/window.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"

namespace ecfrm::obs {
namespace {

TEST(Counter, AddsAndReads) {
    Counter c;
    EXPECT_EQ(c.value(), 0);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, SetAndAdd) {
    Gauge g;
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(-1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketEdgesAreConsistent) {
    // Every probed value must land in a bucket whose [lower, upper) range
    // contains it, and bucket lower edges must be monotonically increasing.
    std::vector<double> probes;
    for (int e = -30; e <= 30; ++e) {
        const double base = std::ldexp(1.0, e);
        probes.push_back(base);
        probes.push_back(base * 1.03125);
        probes.push_back(base * 1.5);
        probes.push_back(base * 1.999);
    }
    for (double v : probes) {
        const int i = Histogram::bucket_index(v);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, Histogram::kBuckets);
        EXPECT_LE(Histogram::bucket_lower(i), v) << "value " << v;
        EXPECT_GT(Histogram::bucket_upper(i), v) << "value " << v;
    }
    for (int i = 1; i < Histogram::kBuckets; ++i) {
        ASSERT_LT(Histogram::bucket_lower(i - 1), Histogram::bucket_lower(i));
        ASSERT_DOUBLE_EQ(Histogram::bucket_upper(i - 1), Histogram::bucket_lower(i));
    }
}

TEST(Histogram, BucketIndexEdgeCases) {
    EXPECT_EQ(Histogram::bucket_index(0.0), 0);
    EXPECT_EQ(Histogram::bucket_index(-3.0), 0);
    EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
    EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_index(1e-300), 0);
}

TEST(Histogram, BasicMoments) {
    Histogram h;
    EXPECT_EQ(h.count(), 0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);

    h.record(1.0);
    h.record(2.0);
    h.record(3.0);
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 6.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 3.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, PercentileTracksExactSampleSet) {
    // Log-spaced latency-like samples: histogram quantiles must stay
    // within the bucket resolution (~1/(2*16) ≈ 3% relative) of the exact
    // nearest-rank answer from SampleSet.
    Histogram h;
    SampleSet exact;
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        // 10^[-4, -1): spans ten octaves.
        const double v = std::pow(10.0, -4.0 + 3.0 * rng.next_double());
        h.record(v);
        exact.add(v);
    }
    for (double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
        const double approx = h.percentile(q);
        const double truth = exact.percentile(q);
        EXPECT_NEAR(approx, truth, 0.06 * truth) << "q=" << q;
    }
    // Extremes clamp into the observed range.
    EXPECT_GE(h.percentile(0.0), exact.stats().min());
    EXPECT_LE(h.percentile(1.0), exact.stats().max());
}

TEST(Histogram, PercentileClampsQ) {
    Histogram h;
    h.record(5.0);
    h.record(10.0);
    EXPECT_DOUBLE_EQ(h.percentile(-2.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(7.0), h.percentile(1.0));
    EXPECT_DOUBLE_EQ(h.percentile(std::nan("")), h.percentile(0.0));
}

TEST(Registry, SameNameAndLabelsShareOneInstance) {
    MetricRegistry reg("test");
    Counter& a = reg.counter("ecfrm_test_total", {{"disk", "1"}, {"op", "read"}});
    // Label order must not matter: the registry canonicalises by key.
    Counter& b = reg.counter("ecfrm_test_total", {{"op", "read"}, {"disk", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(reg.size(), 1u);

    Counter& c = reg.counter("ecfrm_test_total", {{"disk", "2"}, {"op", "read"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);

    // Same name under a different kind is a distinct entry, not a clash.
    Histogram& h = reg.histogram("ecfrm_test_total");
    h.record(1.0);
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(a.value(), 0);
}

TEST(Registry, EntriesKeepRegistrationOrder) {
    MetricRegistry reg;
    reg.counter("b_total");
    reg.gauge("a_value");
    reg.histogram("c_seconds");
    const auto entries = reg.entries();
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0]->name, "b_total");
    EXPECT_EQ(entries[0]->kind, MetricKind::counter);
    EXPECT_EQ(entries[1]->name, "a_value");
    EXPECT_EQ(entries[1]->kind, MetricKind::gauge);
    EXPECT_EQ(entries[2]->name, "c_seconds");
    EXPECT_EQ(entries[2]->kind, MetricKind::histogram);
}

TEST(Registry, JsonExportIsBalancedNdjson) {
    MetricRegistry reg;
    reg.counter("ecfrm_x_total", {{"disk", "0"}}).add(3);
    reg.gauge("ecfrm_x_depth").set(1.5);
    Histogram& h = reg.histogram("ecfrm_x_seconds");
    h.record(0.25);
    h.record(0.5);

    const std::string json = reg.to_json();
    ASSERT_FALSE(json.empty());
    // One object per line, braces balanced on each line.
    std::size_t lines = 0;
    std::size_t pos = 0;
    while (pos < json.size()) {
        const std::size_t eol = json.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string line = json.substr(pos, eol - pos);
        int depth = 0;
        for (char c : line) {
            if (c == '{') ++depth;
            if (c == '}') --depth;
            ASSERT_GE(depth, 0);
        }
        EXPECT_EQ(depth, 0) << line;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++lines;
        pos = eol + 1;
    }
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(json.find("\"value\":3"), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
}

TEST(Registry, PrometheusEscapesLabelValues) {
    MetricRegistry reg;
    reg.counter("ecfrm_esc_total", {{"path", "a\\b\"c\nd"}}).add(1);
    const std::string prom = reg.to_prometheus();
    EXPECT_NE(prom.find("# TYPE ecfrm_esc_total counter"), std::string::npos);
    EXPECT_NE(prom.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
    // The raw newline must not appear inside the label value.
    EXPECT_EQ(prom.find("c\nd"), std::string::npos);
}

TEST(Registry, PrometheusHistogramAsSummary) {
    MetricRegistry reg;
    Histogram& h = reg.histogram("ecfrm_lat_seconds", {{"disk", "0"}});
    for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
    const std::string prom = reg.to_prometheus();
    EXPECT_NE(prom.find("# TYPE ecfrm_lat_seconds summary"), std::string::npos);
    EXPECT_NE(prom.find("quantile=\"0.5\""), std::string::npos);
    EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(prom.find("ecfrm_lat_seconds_sum{disk=\"0\"} 5050"), std::string::npos);
    EXPECT_NE(prom.find("ecfrm_lat_seconds_count{disk=\"0\"} 100"), std::string::npos);
}

TEST(Registry, EscapeHelpers) {
    EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(prometheus_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(Registry, DiskIoStatsRegistersFullFamily) {
    MetricRegistry reg;
    IoStats io = reg.disk_io_stats(3);
    ASSERT_NE(io.read_ops, nullptr);
    ASSERT_NE(io.write_seconds, nullptr);
    EXPECT_TRUE(io.timed(/*read=*/true));
    EXPECT_TRUE(io.timed(/*read=*/false));
    io.on_issue(3);
    io.on_call(/*read=*/true, 2, 2, false, 4096, 0.004);
    io.on_call(/*read=*/false, 1, 1, false, 512, 0.003);
    EXPECT_EQ(io.read_ops->value(), 2);
    EXPECT_EQ(io.read_bytes->value(), 8192);
    EXPECT_EQ(io.read_seconds->count(), 2);
    EXPECT_DOUBLE_EQ(io.read_seconds->sum(), 0.004);
    EXPECT_EQ(io.write_ops->value(), 1);
    EXPECT_EQ(io.write_bytes->value(), 512);
    EXPECT_DOUBLE_EQ(io.in_flight->value(), 0.0);
    // Same disk again: same instances.
    IoStats again = reg.disk_io_stats(3);
    EXPECT_EQ(again.read_ops, io.read_ops);
    // Unattached bundle is a no-op, not a crash.
    IoStats detached;
    detached.on_issue(1);
    detached.on_call(/*read=*/true, 1, 0, true, 1, 1.0);
    EXPECT_FALSE(detached.timed(/*read=*/true));
}

std::unique_ptr<store::StripeStore> open_store(const store::FaultPlan& plan) {
    auto code = codes::make_code("rs:6,3");
    EXPECT_TRUE(code.ok());
    auto opened = store::StripeStore::open(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                           64, store::faulty_memory_factory(64, plan));
    EXPECT_TRUE(opened.ok());
    return std::move(opened).take();
}

// Appends `stripes` full stripes and reads them back, counted into `reg`.
void write_and_read(store::StripeStore& st, MetricRegistry& reg, int stripes) {
    st.attach_observability(&reg);
    const std::vector<std::uint8_t> data(static_cast<std::size_t>(stripes * st.stripe_data_bytes()),
                                         0xAB);
    ASSERT_TRUE(st.append(ConstByteSpan(data.data(), data.size())).ok());
    auto out = st.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), data);
    st.attach_observability(nullptr);
}

// The store's executor is the one per-disk account: every element a
// store write or read moves is one op of its disk, with its bytes and
// one latency sample.
TEST(Registry, DiskInstrumentationCountsDeviceOps) {
    MetricRegistry reg;
    auto st = open_store({});
    write_and_read(*st, reg, 2);
    std::int64_t writes = 0;
    std::int64_t reads = 0;
    for (int d = 0; d < 9; ++d) {
        const Labels disk{{"disk", std::to_string(d)}};
        const std::int64_t w = reg.counter("ecfrm_disk_write_ops_total", disk).value();
        const std::int64_t r = reg.counter("ecfrm_disk_read_ops_total", disk).value();
        EXPECT_EQ(reg.counter("ecfrm_disk_write_bytes_total", disk).value(), 64 * w);
        EXPECT_EQ(reg.counter("ecfrm_disk_read_bytes_total", disk).value(), 64 * r);
        EXPECT_EQ(reg.histogram("ecfrm_disk_write_seconds", disk).count(), w);
        EXPECT_EQ(reg.histogram("ecfrm_disk_read_seconds", disk).count(), r);
        writes += w;
        reads += r;
    }
    // A healthy read fetches the data only; a stripe writes its data and
    // its parity, 9 elements per 6 of data.
    const std::int64_t data_elements = 2 * st->stripe_data_bytes() / 64;
    EXPECT_EQ(reads, data_elements);
    EXPECT_EQ(writes, data_elements * 9 / 6);
}

// Disk 2's first write and its first two reads fail once each and are
// retried: each op type counts its errors and their bytes, and the
// failed ops are never served I/O — disk 2 serves exactly the ops of a
// fault-free twin.
TEST(Registry, IoErrorsCountedPerDiskAndOp) {
    store::FaultPlan plan;
    store::FaultRule write_eio;
    write_eio.kind = store::FaultKind::transient;
    write_eio.disk = 2;
    write_eio.op = store::FaultOp::write;
    write_eio.first_op = 0;
    store::FaultRule read_eio = write_eio;
    read_eio.op = store::FaultOp::read;
    read_eio.count = 2;
    plan.rules = {write_eio, read_eio};
    MetricRegistry reg;
    MetricRegistry clean;
    auto st = open_store(plan);
    write_and_read(*st, reg, 5);
    auto twin = open_store({});
    write_and_read(*twin, clean, 5);

    const Labels read_labels{{"disk", "2"}, {"op", "read"}};
    const Labels write_labels{{"disk", "2"}, {"op", "write"}};
    EXPECT_EQ(reg.counter("ecfrm_store_io_errors_total", read_labels).value(), 2);
    EXPECT_EQ(reg.counter("ecfrm_store_io_error_bytes_total", read_labels).value(), 128);
    EXPECT_EQ(reg.counter("ecfrm_store_io_errors_total", write_labels).value(), 1);
    EXPECT_EQ(reg.counter("ecfrm_store_io_error_bytes_total", write_labels).value(), 64);
    for (const char* name : {"ecfrm_disk_read_ops_total", "ecfrm_disk_write_ops_total"}) {
        const std::int64_t served = reg.counter(name, {{"disk", "2"}}).value();
        EXPECT_GT(served, 0) << name;
        EXPECT_EQ(served, clean.counter(name, {{"disk", "2"}}).value()) << name;
    }
    EXPECT_NE(reg.help("ecfrm_store_io_errors_total"), "");
}

TEST(ThreadPool, AttachMetricsTracksQueueAndExecution) {
    MetricRegistry reg;
    Gauge& depth = reg.gauge("ecfrm_pool_queue_depth");
    Counter& executed = reg.counter("ecfrm_pool_tasks_executed_total");

    constexpr int kTasks = 64;
    ThreadPool pool(3);
    pool.attach_metrics(&depth, &executed);
    for (int i = 0; i < kTasks; ++i) pool.submit([] {});
    pool.wait_idle();
    EXPECT_EQ(executed.value(), kTasks);
    EXPECT_DOUBLE_EQ(depth.value(), 0.0);  // everything drained

    // Null attachments are a supported no-op.
    ThreadPool quiet(2);
    quiet.attach_metrics(nullptr, nullptr);
    quiet.submit([] {});
    quiet.wait_idle();
    EXPECT_EQ(executed.value(), kTasks);
}

TEST(ThreadedStress, SharedMetricsStayExact) {
    // Hammer one counter, one gauge and one histogram from every pool
    // thread; totals must be exact (the CAS loops lose no updates). Under
    // -DECFRM_SANITIZE this doubles as the data-race / UB check.
    MetricRegistry reg;
    Counter& ops = reg.counter("ecfrm_stress_ops_total");
    Gauge& acc = reg.gauge("ecfrm_stress_acc");
    Histogram& lat = reg.histogram("ecfrm_stress_seconds");

    ThreadPool pool(4);
    constexpr int kTasks = 32;
    constexpr int kPerTask = 2000;
    parallel_for(pool, kTasks, [&](std::size_t) {
        for (int i = 0; i < kPerTask; ++i) {
            ops.add(1);
            acc.add(0.5);
            lat.record(1e-3 * static_cast<double>(1 + (i % 7)));
        }
    });

    EXPECT_EQ(ops.value(), static_cast<std::int64_t>(kTasks) * kPerTask);
    EXPECT_DOUBLE_EQ(acc.value(), 0.5 * kTasks * kPerTask);
    EXPECT_EQ(lat.count(), static_cast<std::int64_t>(kTasks) * kPerTask);
    EXPECT_NEAR(lat.max(), 7e-3, 7e-3 * 0.04);
}

TEST(WindowedHistogramTest, ExpiresOldSubWindows) {
    WindowedHistogram win(60.0, 6);  // 10 s sub-windows
    EXPECT_DOUBLE_EQ(win.window_seconds(), 60.0);
    win.record(100.0, 5.0);
    win.record(200.0, 55.0);
    EXPECT_EQ(win.count(55.0), 2);
    EXPECT_DOUBLE_EQ(win.sum(55.0), 300.0);
    // now = 61 s -> live epochs [1, 6]; the t = 5 s sample (epoch 0) is out.
    EXPECT_EQ(win.count(61.0), 1);
    EXPECT_DOUBLE_EQ(win.sum(61.0), 200.0);
    // A long stall decays the window to empty.
    EXPECT_EQ(win.count(500.0), 0);
    EXPECT_DOUBLE_EQ(win.percentile(0.99, 500.0), 0.0);
}

TEST(WindowedHistogramTest, MatchesCumulativeHistogramGeometry) {
    // Same bucket geometry and midpoint/clamp convention as Histogram:
    // with every sample inside the window the two must agree exactly.
    WindowedHistogram win(60.0, 6);
    Histogram hist;
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const double v = 10.0 + static_cast<double>(rng.next_below(1000));
        win.record(v, 30.0);
        hist.record(v);
    }
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(win.percentile(q, 30.0), hist.percentile(q)) << "q=" << q;
    }
    EXPECT_EQ(win.count(30.0), hist.count());
    EXPECT_DOUBLE_EQ(win.mean(30.0), hist.mean());
}

TEST(SloTrackerTest, BurnRatesAndBudget) {
    SloTracker::Options opts;
    opts.target_latency_us = 1000.0;
    opts.objective = 0.9;  // 10% error budget
    opts.window_seconds = 60.0;
    opts.sub_windows = 6;
    SloTracker slo(opts);

    // Idle tracker reports full compliance and no burn.
    auto idle = slo.snapshot(0.0);
    EXPECT_EQ(idle.total, 0);
    EXPECT_DOUBLE_EQ(idle.compliance, 1.0);
    EXPECT_DOUBLE_EQ(idle.fast_burn, 0.0);

    // 8 good + 1 over-target + 1 failed at t = 5 s: bad fraction 0.2
    // against a 0.1 budget -> burn rate 2.0 in both windows (the only
    // live sub-window is also the newest).
    for (int i = 0; i < 8; ++i) slo.record(500.0, true, 5.0);
    slo.record(2000.0, true, 5.0);   // breach: over target
    slo.record(500.0, false, 5.0);   // breach: failed outright
    auto burst = slo.snapshot(5.0);
    EXPECT_EQ(burst.total, 10);
    EXPECT_EQ(burst.breaches, 2);
    EXPECT_DOUBLE_EQ(burst.compliance, 0.8);
    EXPECT_DOUBLE_EQ(burst.fast_burn, 2.0);
    EXPECT_DOUBLE_EQ(burst.slow_burn, 2.0);
    EXPECT_DOUBLE_EQ(burst.budget_remaining, 0.0);

    // A clean next sub-window: the fast burn pages off immediately while
    // the slow burn still remembers the burst.
    for (int i = 0; i < 10; ++i) slo.record(500.0, true, 15.0);
    auto calm = slo.snapshot(15.0);
    EXPECT_EQ(calm.total, 20);
    EXPECT_EQ(calm.breaches, 2);
    EXPECT_DOUBLE_EQ(calm.fast_burn, 0.0);
    EXPECT_DOUBLE_EQ(calm.slow_burn, 1.0);
    EXPECT_DOUBLE_EQ(calm.budget_remaining, 0.0);

    // Once the burst sub-window expires, the budget recovers fully.
    for (int i = 0; i < 10; ++i) slo.record(500.0, true, 65.0);
    auto healed = slo.snapshot(65.0);
    EXPECT_EQ(healed.breaches, 0);
    EXPECT_DOUBLE_EQ(healed.slow_burn, 0.0);
    EXPECT_DOUBLE_EQ(healed.budget_remaining, 1.0);
}

TEST(WindowedHistogramTest, P99ConvergesAndDetectsLatencyStep) {
    // Property: under a stationary workload the windowed p99 converges
    // to the cumulative estimate, yet a latency step shows up within one
    // sub-window — the whole point of forgetting.
    WindowedHistogram win(60.0, 6);
    Histogram cumulative;
    SampleSet exact;
    Rng rng(42);
    auto base_sample = [&] { return 50.0 + static_cast<double>(rng.next_below(100)); };

    // 60 s of stationary load at 100 req/s.
    for (int i = 0; i < 6000; ++i) {
        const double t = static_cast<double>(i) * 0.01;
        const double v = base_sample();
        win.record(v, t);
        cumulative.record(v);
        exact.add(v);
    }
    const double windowed_p99 = win.percentile(0.99, 59.99);
    EXPECT_NEAR(windowed_p99, cumulative.percentile(0.99), 0.08 * cumulative.percentile(0.99));
    EXPECT_NEAR(windowed_p99, exact.percentile(0.99), 0.08 * exact.percentile(0.99));

    // Step: latency jumps 10x at t = 60 s. One sub-window of slow
    // samples is enough to drag the windowed p99 into the new regime,
    // while the cumulative estimate barely moves.
    for (int i = 0; i < 1000; ++i) {
        const double t = 60.0 + static_cast<double>(i) * 0.01;
        const double v = 10.0 * base_sample();
        win.record(v, t);
        cumulative.record(v);
    }
    const double stepped_p99 = win.percentile(0.99, 69.99);
    EXPECT_GE(stepped_p99, 5.0 * windowed_p99);

    // Recovery: once the step sub-window slides out, the windowed p99
    // returns to the stationary value; the cumulative one stays stuck in
    // the slow regime forever (the step is 1/7 of its denominator).
    for (int i = 0; i < 7000; ++i) {
        const double t = 70.0 + static_cast<double>(i) * 0.01;
        const double v = base_sample();
        win.record(v, t);
        cumulative.record(v);
    }
    const double healed_p99 = win.percentile(0.99, 139.99);
    EXPECT_NEAR(healed_p99, windowed_p99, 0.08 * windowed_p99);
    EXPECT_GE(cumulative.percentile(0.99), 5.0 * windowed_p99);
}

TEST(RequestTraceTest, TreeAttrsAndPhaseTotals) {
    RequestTrace rt(7, RequestClass::normal, 1000.0);
    EXPECT_EQ(rt.id(), 7u);
    EXPECT_DOUBLE_EQ(rt.start_us(), 1000.0);
    rt.complete(RequestTrace::kRoot, "plan", 1000.0, 10.0);
    rt.complete(RequestTrace::kRoot, "plan", 1010.0, 5.0);
    const std::uint32_t fetch = rt.begin(RequestTrace::kRoot, "fetch", 1015.0);
    rt.attr(fetch, "batches", static_cast<std::int64_t>(3));
    const std::uint32_t batch = rt.begin(fetch, "disk.batch", 1016.0);
    rt.attr(batch, "disk", std::string("2"));
    rt.end(batch, 1018.0);
    rt.end(fetch, 1035.0);

    const auto nodes = rt.nodes();
    ASSERT_EQ(nodes.size(), 5u);
    EXPECT_EQ(nodes[0].id, RequestTrace::kRoot);
    EXPECT_EQ(nodes[0].parent, 0u);
    EXPECT_EQ(nodes[0].name, "request");
    EXPECT_EQ(nodes[0].seq, 0u);
    for (std::size_t i = 1; i < nodes.size(); ++i) {
        EXPECT_EQ(nodes[i].seq, static_cast<std::uint64_t>(i));
        EXPECT_NE(nodes[i].tid, 0u);
    }
    EXPECT_EQ(nodes[3].parent, RequestTrace::kRoot);  // fetch
    EXPECT_EQ(nodes[4].parent, fetch);                // disk.batch
    ASSERT_EQ(nodes[4].attrs.size(), 1u);
    EXPECT_EQ(nodes[4].attrs[0].first, "disk");

    // Root children merged by name, first-appearance order.
    const auto phases = rt.phase_totals();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].first, "plan");
    EXPECT_DOUBLE_EQ(phases[0].second, 15.0);
    EXPECT_EQ(phases[1].first, "fetch");
    EXPECT_DOUBLE_EQ(phases[1].second, 20.0);

    rt.finish(true, 1040.0);
    EXPECT_TRUE(rt.finished());
    EXPECT_TRUE(rt.ok());
    EXPECT_DOUBLE_EQ(rt.dur_us(), 40.0);
}

TEST(RequestTraceTest, BeginPhaseTilesTheRequestExactly) {
    // Phases chain off phase_cursor_us, so their durations sum to the
    // end-to-end latency by construction — no wall-clock double-sampling
    // gap, however the scheduler interleaves the recording thread.
    RequestTrace rt(1, RequestClass::normal, 100.0);
    EXPECT_DOUBLE_EQ(rt.phase_cursor_us(), 100.0);
    const std::uint32_t plan = rt.begin_phase("plan");
    rt.end(plan, 110.0);
    const std::uint32_t fetch = rt.begin_phase("fetch");
    rt.end(fetch, 135.0);
    rt.complete(RequestTrace::kRoot, "decode", 135.0, 15.0);
    const std::uint32_t assemble = rt.begin_phase("assemble");
    rt.end(assemble, 160.0);
    EXPECT_DOUBLE_EQ(rt.phase_cursor_us(), 160.0);

    const auto nodes = rt.nodes();
    ASSERT_EQ(nodes.size(), 5u);
    EXPECT_DOUBLE_EQ(nodes[1].ts_us, 100.0);  // first phase pinned to trace start
    EXPECT_DOUBLE_EQ(nodes[2].ts_us, 110.0);  // each next phase at the prior end
    EXPECT_DOUBLE_EQ(nodes[4].ts_us, 150.0);

    rt.finish(true, rt.phase_cursor_us());
    double phase_sum = 0.0;
    for (const auto& [name, us] : rt.phase_totals()) phase_sum += us;
    EXPECT_DOUBLE_EQ(phase_sum, rt.dur_us());
    EXPECT_DOUBLE_EQ(rt.dur_us(), 60.0);
}

TEST(RequestTraceTest, NodeBudgetDropsAndCounts) {
    RequestTrace rt(1, RequestClass::normal, 0.0, /*max_nodes=*/3);
    const std::uint32_t a = rt.begin(RequestTrace::kRoot, "a", 1.0);
    const std::uint32_t b = rt.begin(RequestTrace::kRoot, "b", 2.0);
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_EQ(rt.begin(RequestTrace::kRoot, "over", 3.0), 0u);
    EXPECT_EQ(rt.complete(RequestTrace::kRoot, "over2", 4.0, 1.0), 0u);
    EXPECT_EQ(rt.dropped(), 2u);
    EXPECT_EQ(rt.node_count(), 3u);
    // Operations on the sentinel id 0 are harmless no-ops.
    rt.attr(0, "k", std::string("v"));
    rt.end(0, 9.0);
    EXPECT_EQ(rt.node_count(), 3u);
}

TEST(RequestTraceTest, FinishIsIdempotentAndClosesOpenSpans) {
    RequestTrace rt(1, RequestClass::scrub, 0.0);
    const std::uint32_t open = rt.begin(RequestTrace::kRoot, "scan", 10.0);
    rt.finish(true, 50.0);
    const auto nodes = rt.nodes();
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_DOUBLE_EQ(nodes[1].dur_us, 40.0);  // closed at the request end
    EXPECT_DOUBLE_EQ(rt.dur_us(), 50.0);
    // A second finish must not change the verdict or the timing.
    rt.finish(false, 70.0);
    EXPECT_TRUE(rt.ok());
    EXPECT_DOUBLE_EQ(rt.dur_us(), 50.0);
    rt.end(open, 90.0);  // late end after finish is ignored too
    EXPECT_DOUBLE_EQ(rt.nodes()[1].dur_us, 40.0);
}

TEST(RequestTraceTest, ThreadedAppendsKeepSeqConsecutive) {
    // Hedge/pool threads append concurrently; every span must land with
    // a unique consecutive seq under the per-trace mutex.
    RequestTrace rt(1, RequestClass::degraded, 0.0, /*max_nodes=*/512);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rt, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const double ts = static_cast<double>(t * kPerThread + i);
                rt.complete(RequestTrace::kRoot, "op", ts, 0.5,
                            {{"thread", std::to_string(t)}});
            }
        });
    }
    for (auto& t : threads) t.join();
    const auto nodes = rt.nodes();
    ASSERT_EQ(nodes.size(), 1u + kThreads * kPerThread);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(nodes[i].seq, static_cast<std::uint64_t>(i));
        EXPECT_EQ(nodes[i].id, static_cast<std::uint32_t>(i + 1));
    }
    EXPECT_EQ(rt.dropped(), 0u);
}

TEST(RequestForensicsTest, CapturePolicyAndEviction) {
    ForensicsOptions opts;
    opts.slow_threshold_us = 1000.0;
    opts.max_exemplars = 2;
    RequestForensics forensics(opts);

    // Fast, clean, cold ladder: not an exemplar.
    auto fast = forensics.start_at(RequestClass::normal, 0.0);
    forensics.finish_at(fast, true, 500.0);
    EXPECT_EQ(forensics.captured(), 0u);

    // Over the latency threshold: captured even though the ladder is cold.
    auto slow = forensics.start_at(RequestClass::normal, 0.0);
    forensics.finish_at(slow, true, 5000.0);
    EXPECT_EQ(forensics.captured(), 1u);
    EXPECT_NE(forensics.find(slow->id()), nullptr);

    // Fast but recovery-active: captured.
    auto hedged = forensics.start_at(RequestClass::normal, 0.0);
    hedged->count_timeout();
    forensics.finish_at(hedged, true, 200.0);
    EXPECT_EQ(forensics.captured(), 2u);

    // Failed outright: captured, evicting the oldest exemplar (FIFO).
    auto failed = forensics.start_at(RequestClass::normal, 0.0);
    forensics.finish_at(failed, false, 100.0);
    EXPECT_EQ(forensics.captured(), 2u);
    EXPECT_EQ(forensics.evicted(), 1u);
    EXPECT_EQ(forensics.find(slow->id()), nullptr);
    EXPECT_NE(forensics.find(failed->id()), nullptr);

    const auto exemplars = forensics.exemplars();
    ASSERT_EQ(exemplars.size(), 2u);
    EXPECT_EQ(exemplars[0]->id(), hedged->id());  // oldest first
    EXPECT_EQ(exemplars[1]->id(), failed->id());

    EXPECT_EQ(forensics.finished_total(RequestClass::normal), 4);
    EXPECT_EQ(forensics.finished_total(RequestClass::degraded), 0);
    // All four requests ended inside the window; the quantile sees them.
    EXPECT_GT(forensics.windowed_percentile(RequestClass::normal, 0.99, 5000.0), 0.0);
    // Double-finish folds nothing in twice.
    forensics.finish_at(fast, true, 900.0);
    EXPECT_EQ(forensics.finished_total(RequestClass::normal), 4);
}

TEST(RequestForensicsTest, SloAndSlowExports) {
    ForensicsOptions opts;
    opts.slow_threshold_us = 1000.0;
    opts.slo_target_us = 1000.0;
    RequestForensics forensics(opts);
    auto ok = forensics.start_at(RequestClass::normal, 0.0);
    forensics.finish_at(ok, true, 400.0);
    auto slow = forensics.start_at(RequestClass::degraded, 0.0);
    slow->count_replan();
    slow->add_decodes(3);
    forensics.finish_at(slow, true, 2500.0);

    const std::string slo = forensics.slo_json(3000.0);
    EXPECT_NE(slo.find("\"ecfrm.slo.v1\""), std::string::npos);
    for (const char* cls : {"normal", "degraded", "scrub"}) {
        EXPECT_NE(slo.find(cls), std::string::npos) << cls;
    }
    EXPECT_NE(slo.find("burn"), std::string::npos);

    const std::string summaries = forensics.slow_json();
    EXPECT_NE(summaries.find("\"ecfrm.slow.v1\""), std::string::npos);
    EXPECT_EQ(summaries.find("\"tree\""), std::string::npos);  // summaries only

    const std::string ndjson = forensics.slowlog_ndjson();
    EXPECT_NE(ndjson.find("\"tree\""), std::string::npos);
    EXPECT_NE(ndjson.find("\"replans\":1"), std::string::npos);

    const auto captured = forensics.find(slow->id());
    ASSERT_NE(captured, nullptr);
    const std::string chrome = captured->chrome_json();
    ASSERT_FALSE(chrome.empty());
    EXPECT_EQ(chrome.front(), '[');
    EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(chrome.find("\"seq\":"), std::string::npos);
}

TEST(RequestForensicsTest, ChromeJsonExportsEveryHeldRequest) {
    // Threshold 0 captures every request: the combined export is one
    // chrome array with one pid per held request, oldest evicted first.
    ForensicsOptions opts;
    opts.slow_threshold_us = 0.0;
    opts.max_exemplars = 3;
    RequestForensics forensics(opts);
    std::vector<std::uint64_t> ids;
    for (int r = 0; r < 5; ++r) {
        const double t0 = 100.0 * r;
        auto rt = forensics.start_at(r % 2 == 0 ? RequestClass::normal : RequestClass::rebuild, t0);
        const std::uint32_t batch = rt->complete(RequestTrace::kRoot, "disk.batch", t0, 5.0,
                                                 {{"disk", "2"}, {"quote", "a\"b"}});
        EXPECT_NE(batch, 0u);
        forensics.finish_at(rt, true, t0 + 10.0);
        ids.push_back(rt->id());
    }
    EXPECT_EQ(forensics.captured(), 3u);
    EXPECT_EQ(forensics.evicted(), 2u);

    const std::string chrome = forensics.chrome_json();
    EXPECT_NE(chrome.find("a\\\"b"), std::string::npos);  // escaped quote
    auto doc = json::parse(chrome);
    ASSERT_TRUE(doc.ok()) << doc.error().message << "\n" << chrome;
    ASSERT_TRUE(doc->is_array());
    ASSERT_EQ(doc->items().size(), 6u);  // root + batch of each held request

    // The held requests are the newest three, in order; each is one pid
    // whose cat is its class, with seq counting its spans from 0.
    std::vector<std::uint64_t> pids;
    for (const json::Value& event : doc->items()) {
        EXPECT_EQ(event.string_or("ph", ""), "X");
        const auto pid = static_cast<std::uint64_t>(event.number_or("pid", -1.0));
        if (pids.empty() || pids.back() != pid) pids.push_back(pid);
        const std::size_t r = static_cast<std::size_t>(
            std::find(ids.begin(), ids.end(), pid) - ids.begin());
        ASSERT_LT(r, ids.size());
        EXPECT_EQ(event.string_or("cat", ""), r % 2 == 0 ? "normal" : "rebuild");
        const json::Value* args = event.find("args");
        ASSERT_NE(args, nullptr);
        const std::string name = event.string_or("name", "");
        EXPECT_EQ(args->string_or("seq", ""), name == "request" ? "0" : "1");
        if (name == "disk.batch") {
            EXPECT_EQ(args->string_or("quote", ""), "a\"b");
        }
    }
    EXPECT_EQ(pids, (std::vector<std::uint64_t>{ids[2], ids[3], ids[4]}));
}

}  // namespace
}  // namespace ecfrm::obs

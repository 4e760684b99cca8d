// bench_online_rebuild: foreground read tail latency vs rebuild time
// under the EcPipeline repair scheduler, end to end against a real
// StripeStore.
//
// A failed disk is reconstructed by the pipeline's background scheduler
// while reader threads keep issuing paced random reads. The devices are
// BusyDisk decorators — in-memory disks that hold their service lock
// across a per-batch latency sleep — so rebuild chunks and foreground
// batches genuinely queue behind each other, like jobs on one spindle.
// Phases:
//   baseline    no failure, no rebuild: the foreground's floor
//   immediate   policy=immediate — unthrottled rebuild trampling reads
//   delayed     policy=delayed — rate-limited, starts after a beat
//   threshold   policy=threshold — rate-limited AND yielding to the
//               foreground whenever its fast SLO burn rate spikes
// The headline figure is fg p99 during the rebuild window per policy,
// with the ratio vs baseline gated: threshold must stay under 2x the
// no-rebuild floor while the rebuild still completes; immediate is the
// unbounded-degradation comparator.
//
// Series (gated by ecfrm_report against BENCH_online_pipeline.json):
//   <phase>/fg_read_latency_us   samples, lower_is_better (p99 gated)
//   <phase>/rebuild_seconds      info
//   ratio/threshold_vs_baseline_p99   lower_is_better (the contract)
//   ratio/immediate_vs_baseline_p99   info (expected >> threshold ratio)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact.h"
#include "codes/factory.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/scheme.h"
#include "obs/request_trace.h"
#include "store/disk.h"
#include "store/ec_pipeline.h"
#include "store/stripe_store.h"

namespace ecfrm {
namespace {

constexpr std::int64_t kElementBytes = 4096;
constexpr std::uint64_t kSeed = 2015;
constexpr int kReaderThreads = 4;
constexpr int kMaxReadElements = 4;
constexpr double kPaceUs = 1200.0;       // foreground inter-arrival per reader
constexpr double kBusyBaseUs = 120.0;    // per-batch seek share
constexpr double kBusyPerElemUs = 40.0;  // per-element transfer share
constexpr double kRepairRate = 400.0;    // rows/s for the paced policies
constexpr double kSloTargetUs = 1200.0;  // foreground latency objective

int baseline_requests() {
    if (const char* trials = std::getenv("ECFRM_BENCH_TRIALS");
        trials != nullptr && std::atoi(trials) > 0) {
        return std::atoi(trials);
    }
    return 400;
}

/// In-memory disk with a calibrated service time: the internal mutex is
/// held ACROSS the latency sleep, so concurrent batches serialise FIFO —
/// the queueing contention a rebuild inflicts on foreground reads.
/// (FaultDevice's latency rules sleep outside its lock, which models
/// slowness but not contention; this bench needs the queue.)
class BusyDisk final : public store::BlockDevice {
  public:
    explicit BusyDisk(std::int64_t element_bytes) : inner_(element_bytes) {}

    std::int64_t element_bytes() const override { return inner_.element_bytes(); }

    Status write(RowId row, ConstByteSpan data) override {
        std::lock_guard<std::mutex> lock(mu_);
        serve(1);
        return inner_.write(row, data);
    }
    Status read(RowId row, ByteSpan out) const override {
        std::lock_guard<std::mutex> lock(mu_);
        serve(1);
        return inner_.read(row, out);
    }
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override {
        std::lock_guard<std::mutex> lock(mu_);
        serve(rows.size());
        return inner_.read_batch(rows, outs, completed);
    }
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override {
        std::lock_guard<std::mutex> lock(mu_);
        serve(rows.size());
        return inner_.write_batch(rows, payloads, completed);
    }
    void fail() override { inner_.fail(); }
    void replace() override { inner_.replace(); }
    bool failed() const override { return inner_.failed(); }
    RowId rows() const override { return inner_.rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_.corrupt_byte(row, offset);
    }

  private:
    void serve(std::size_t elements) const {
        const double us = kBusyBaseUs + kBusyPerElemUs * static_cast<double>(elements);
        std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
    }

    mutable std::mutex mu_;
    store::Disk inner_;
};

std::uint8_t pattern_byte(std::int64_t i) {
    return static_cast<std::uint8_t>((i * 167) ^ (i >> 7));
}

struct PhaseResult {
    SampleSet fg_latency_us;
    double rebuild_seconds = 0.0;
    bool rebuild_done = true;
};

/// One phase: fill through the pipeline, optionally fail disk 0 and let
/// the repair scheduler rebuild it while readers hammer the store.
PhaseResult run_phase(bool with_rebuild, store::PipelineOptions popts) {
    auto code = codes::make_code("rs:4,2");
    if (!code.ok()) std::abort();
    core::Scheme scheme(code.value(), layout::LayoutKind::ecfrm);
    ThreadPool pool(4);
    auto opened = store::StripeStore::open(
        std::move(scheme), kElementBytes,
        [](int) -> Result<std::unique_ptr<store::BlockDevice>> {
            return {std::make_unique<BusyDisk>(kElementBytes)};
        },
        &pool);
    if (!opened.ok()) {
        std::fprintf(stderr, "open failed: %s\n", opened.error().message.c_str());
        std::abort();
    }
    store::StripeStore& st = *opened.value();

    // Foreground SLO forensics: the threshold policy's yield signal.
    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = -1.0;
    fopts.max_exemplars = 4;
    fopts.slo_target_us = kSloTargetUs;
    fopts.window_seconds = 2.0;
    fopts.sub_windows = 4;
    obs::RequestForensics forensics(fopts);
    st.attach_observability(nullptr, &forensics);

    store::EcPipeline pipeline(st, &pool, popts);
    pipeline.attach_observability(nullptr, &forensics);

    // Fill: enough stripes that the rebuild window is long against the
    // foreground pacing (target rows scale with rows_per_stripe).
    const int stripes = std::max(1, 360 / st.scheme().layout().rows_per_stripe());
    const std::int64_t total = stripes * st.stripe_data_bytes();
    {
        std::vector<std::uint8_t> chunk(static_cast<std::size_t>(st.stripe_data_bytes()));
        std::int64_t written = 0;
        while (written < total) {
            for (std::size_t i = 0; i < chunk.size(); ++i) {
                chunk[i] = pattern_byte(written + static_cast<std::int64_t>(i));
            }
            if (!pipeline.append(ConstByteSpan(chunk.data(), chunk.size())).ok()) std::abort();
            written += static_cast<std::int64_t>(chunk.size());
        }
        if (!pipeline.flush().ok()) std::abort();
    }

    const std::int64_t committed = st.committed_bytes();
    std::atomic<bool> stop{false};
    std::atomic<bool> read_failed{false};
    std::vector<std::vector<double>> lat(kReaderThreads);
    const int cap = with_rebuild ? baseline_requests() * 40 : baseline_requests();

    auto reader = [&](int tid) {
        Rng rng(kSeed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(tid + 1)));
        auto& samples = lat[static_cast<std::size_t>(tid)];
        for (int r = 0; r < cap && !stop.load(std::memory_order_relaxed); ++r) {
            const std::int64_t length =
                kElementBytes *
                (1 + static_cast<std::int64_t>(rng.next_below(kMaxReadElements)));
            const std::int64_t offset = static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(committed - length + 1)));
            const auto t0 = std::chrono::steady_clock::now();
            auto out = st.read_bytes(offset, length);
            const auto t1 = std::chrono::steady_clock::now();
            if (!out.ok()) {
                read_failed.store(true);
                return;
            }
            samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
            std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(kPaceUs));
        }
    };

    PhaseResult result;
    if (with_rebuild) {
        if (!st.fail_disk(0).ok()) std::abort();
        std::vector<std::thread> readers;
        for (int t = 0; t < kReaderThreads; ++t) readers.emplace_back(reader, t);
        const auto r0 = std::chrono::steady_clock::now();
        if (!pipeline.request_repair(0).ok()) std::abort();
        result.rebuild_done = pipeline.wait_repairs().ok();
        result.rebuild_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
        stop.store(true);
        for (auto& t : readers) t.join();
    } else {
        std::vector<std::thread> readers;
        const auto r0 = std::chrono::steady_clock::now();
        for (int t = 0; t < kReaderThreads; ++t) readers.emplace_back(reader, t);
        for (auto& t : readers) t.join();
        result.rebuild_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - r0).count();
    }
    if (read_failed.load()) {
        std::fprintf(stderr, "foreground read failed\n");
        std::abort();
    }
    for (const auto& samples : lat) {
        for (double us : samples) result.fg_latency_us.add(us);
    }
    st.attach_observability(nullptr);
    return result;
}

}  // namespace
}  // namespace ecfrm

int main() {
    using namespace ecfrm;
    bench::ArtifactWriter& writer = bench::ArtifactWriter::instance();
    writer.set_bench_name("online_pipeline");
    writer.set_param("element_bytes", std::to_string(kElementBytes));
    writer.set_param("reader_threads", std::to_string(kReaderThreads));
    writer.set_param("baseline_requests", std::to_string(baseline_requests()));
    writer.set_param("repair_rows_per_second", std::to_string(kRepairRate));
    writer.set_param("seed", std::to_string(kSeed));

    struct Phase {
        const char* name;
        bool rebuild;
        store::PipelineOptions popts;
    };
    std::vector<Phase> phases;
    {
        store::PipelineOptions base;
        base.max_pending_stripes = 4;
        base.repair_chunk_rows = 4;
        base.poll_interval_ms = 1.0;
        Phase baseline{"baseline", false, base};
        Phase immediate{"immediate", true, base};
        immediate.popts.repair_policy = store::RepairPolicy::immediate;
        // The naive comparator rebuilds in big sequential sweeps: long
        // unthrottled batches monopolise each surviving disk's queue.
        immediate.popts.repair_chunk_rows = 32;
        Phase delayed{"delayed", true, base};
        delayed.popts.repair_policy = store::RepairPolicy::delayed;
        delayed.popts.repair_delay_seconds = 0.1;
        delayed.popts.repair_rows_per_second = kRepairRate;
        delayed.popts.repair_burst_rows = 8.0;
        Phase threshold{"threshold", true, base};
        threshold.popts.repair_policy = store::RepairPolicy::threshold;
        // Paced well under the foreground's disk budget: the point of the
        // policy is bounded foreground impact, not rebuild speed.
        threshold.popts.repair_rows_per_second = kRepairRate * 0.375;
        threshold.popts.repair_burst_rows = 4.0;
        threshold.popts.yield_burn_threshold = 2.0;
        phases = {baseline, immediate, delayed, threshold};
    }

    std::printf("=== online rebuild: foreground p99 vs rebuild time, rs(4,2) ecfrm ===\n");
    std::printf("%-12s %10s %12s %12s %14s %8s\n", "phase", "fg reads", "p50 us", "p99 us",
                "rebuild s", "done");
    double baseline_p99 = 0.0;
    double immediate_p99 = 0.0;
    double threshold_p99 = 0.0;
    bool threshold_done = false;
    for (const Phase& phase : phases) {
        const PhaseResult r = run_phase(phase.rebuild, phase.popts);
        const double p99 = r.fg_latency_us.percentile(0.99);
        std::printf("%-12s %10zu %12.1f %12.1f %14.3f %8s\n", phase.name, r.fg_latency_us.size(),
                    r.fg_latency_us.percentile(0.50), p99, phase.rebuild ? r.rebuild_seconds : 0.0,
                    phase.rebuild ? (r.rebuild_done ? "yes" : "NO") : "-");
        const std::string prefix = phase.name;
        writer.add_samples(prefix + "/fg_read_latency_us", "us",
                           bench::Direction::lower_is_better, r.fg_latency_us);
        if (phase.rebuild) {
            writer.add_scalar(prefix + "/rebuild_seconds", "s", bench::Direction::none,
                              r.rebuild_seconds, 1);
        }
        if (std::string(phase.name) == "baseline") baseline_p99 = p99;
        if (std::string(phase.name) == "immediate") immediate_p99 = p99;
        if (std::string(phase.name) == "threshold") {
            threshold_p99 = p99;
            threshold_done = r.rebuild_done;
        }
    }

    const double threshold_ratio = baseline_p99 > 0.0 ? threshold_p99 / baseline_p99 : 0.0;
    const double immediate_ratio = baseline_p99 > 0.0 ? immediate_p99 / baseline_p99 : 0.0;
    writer.add_scalar("ratio/threshold_vs_baseline_p99", "ratio",
                      bench::Direction::lower_is_better, threshold_ratio, 1);
    writer.add_scalar("ratio/immediate_vs_baseline_p99", "ratio", bench::Direction::none,
                      immediate_ratio, 1);
    std::printf("\nfg p99 vs no-rebuild baseline: immediate %.2fx, threshold %.2fx\n",
                immediate_ratio, threshold_ratio);
    std::printf("verdict: threshold policy %s (ratio %.2fx %s 2x, rebuild %s)\n",
                threshold_done && threshold_ratio < 2.0 ? "PASS" : "FAIL", threshold_ratio,
                threshold_ratio < 2.0 ? "<" : ">=", threshold_done ? "completed" : "DID NOT FINISH");
    return threshold_done ? 0 : 1;
}

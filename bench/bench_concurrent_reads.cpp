// bench_concurrent_reads: multi-reader scaling of the real StripeStore.
//
// Unlike the figure benches (which price plans on the calibrated disk
// model), this bench times actual end-to-end reads — plan -> PlanExecutor
// batched fetch -> decode -> assemble — against in-memory disks, with N
// reader threads sharing one store. It measures what the executor refactor
// is for: aggregate throughput and tail latency as readers are added, in
// both healthy and one-disk-degraded configurations.
//
// Series (per scheme/layout/thread-count):
//   <spec>/<layout>/t<N>/throughput_mb_s   higher_is_better
//   <spec>/<layout>/t<N>/read_latency_us   lower_is_better (p99 gated)
//   <spec>/<layout>/t<N>/phase_<p>_us      info (mean per-request phase time)
//   <spec>/<layout>/t<N>/heat_*            info (live balance scoreboard)
// Request forensics AND the disk heat model stay attached while the
// workers run, so the gated latency series price the span-tree and heat
// bookkeeping, the phase_* series attribute where each request's time
// went (plan/fetch/decode/assemble), and the heat_* series put the
// measured per-disk balance next to the closed-form prediction
// (heat_measured_max_load vs closed_form_max_load_e* for the largest
// request size). ECFRM_BENCH_TRIALS caps per-thread requests for CI
// smoke runs. After each timed case the same threads replay the same
// request streams, untimed, and check every byte read against the fill
// pattern: wrong bytes or a failed read abort the bench (non-zero exit).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "artifact.h"
#include "codes/factory.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/analysis.h"
#include "core/scheme.h"
#include "obs/heat.h"
#include "obs/request_trace.h"
#include "store/stripe_store.h"

namespace ecfrm {
namespace {

constexpr std::int64_t kElementBytes = 4096;
constexpr std::int64_t kStripes = 24;
constexpr int kMaxReadElements = 8;
constexpr std::uint64_t kSeed = 2015;

int requests_per_thread() {
    if (const char* trials = std::getenv("ECFRM_BENCH_TRIALS");
        trials != nullptr && std::atoi(trials) > 0) {
        return std::atoi(trials);
    }
    return 200;
}

std::uint8_t pattern_byte(std::int64_t i) {
    return static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
}

struct CaseResult {
    double throughput_mb_s = 0.0;
    SampleSet latencies_us;
    /// Per-phase totals over every request of the case, microseconds
    /// (classes merged), plus the request count to normalise them.
    std::vector<std::pair<std::string, double>> phase_us;
    std::int64_t phase_requests = 0;
    /// Live balance scoreboard at case end (heat model attached for the
    /// whole timed region).
    obs::ClusterHeatSnapshot heat;
    /// Closed-form max load at the largest request size (the predicted
    /// anchor the measured figure is compared against).
    int closed_form_e_max = 0;
};

CaseResult run_case(const std::string& spec, layout::LayoutKind kind, int threads,
                    bool degraded) {
    auto code = codes::make_code(spec);
    if (!code.ok()) {
        std::fprintf(stderr, "bad code spec %s: %s\n", spec.c_str(),
                     code.error().message.c_str());
        std::abort();
    }
    // No internal pool: the reader threads are the concurrency, the shape
    // of a request-serving storage node.
    store::StripeStore st(core::Scheme(code.value(), kind), kElementBytes, nullptr);
    const std::int64_t total =
        kStripes * st.scheme().layout().data_per_stripe() * kElementBytes;
    {
        std::vector<std::uint8_t> chunk(1 << 20);
        std::int64_t written = 0;
        while (written < total) {
            const std::int64_t n = std::min<std::int64_t>(
                static_cast<std::int64_t>(chunk.size()), total - written);
            for (std::int64_t i = 0; i < n; ++i) {
                chunk[static_cast<std::size_t>(i)] = pattern_byte(written + i);
            }
            if (!st.append(ConstByteSpan(chunk.data(), static_cast<std::size_t>(n))).ok() ) {
                std::fprintf(stderr, "fill failed\n");
                std::abort();
            }
            written += n;
        }
        if (!st.flush().ok()) std::abort();
    }
    if (degraded && !st.fail_disk(0).ok()) std::abort();

    // Forensics ride along for the whole timed region: the latency series
    // below therefore gate the tracing overhead. Latency trigger off and
    // a tiny exemplar cap keep the capture path out of the picture.
    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = -1.0;
    fopts.max_exemplars = 8;
    obs::RequestForensics forensics(fopts);
    obs::DiskHeatModel heat(st.scheme().disks());
    st.attach_observability(nullptr, &forensics, &heat);

    const std::int64_t committed = st.committed_bytes();
    const std::int64_t max_len = kMaxReadElements * kElementBytes;
    const int requests = requests_per_thread();

    // Thread `tid`'s request stream, the same in the timed pass and the
    // verification pass: `read(offset, length)` per request, until it
    // returns false.
    auto replay = [&](int tid, auto&& read) {
        Rng rng(kSeed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(tid + 1)));
        for (int r = 0; r < requests; ++r) {
            const std::int64_t length =
                1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_len)));
            const std::int64_t offset = static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(committed - length + 1)));
            if (!read(offset, length)) return;
        }
    };
    auto run_threads = [&](auto&& worker) {
        std::vector<std::thread> pool;
        for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
        for (auto& t : pool) t.join();
    };

    std::vector<std::vector<double>> lat(static_cast<std::size_t>(threads));
    std::atomic<std::int64_t> bytes_read{0};
    std::atomic<bool> failed{false};
    const auto wall0 = std::chrono::steady_clock::now();
    run_threads([&](int tid) {
        auto& samples = lat[static_cast<std::size_t>(tid)];
        samples.reserve(static_cast<std::size_t>(requests));
        replay(tid, [&](std::int64_t offset, std::int64_t length) {
            const auto t0 = std::chrono::steady_clock::now();
            auto out = st.read_bytes(offset, length);
            const auto t1 = std::chrono::steady_clock::now();
            if (!out.ok()) {
                failed.store(true);
                return false;
            }
            samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
            bytes_read.fetch_add(length, std::memory_order_relaxed);
            return true;
        });
    });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    if (failed.load()) {
        std::fprintf(stderr, "read failed in %s case\n", spec.c_str());
        std::abort();
    }

    CaseResult result;
    result.throughput_mb_s =
        wall > 0.0 ? static_cast<double>(bytes_read.load()) / 1e6 / wall : 0.0;
    for (const auto& samples : lat) {
        for (double us : samples) result.latencies_us.add(us);
    }
    for (int c = 0; c < obs::kRequestClasses; ++c) {
        const auto cls = static_cast<obs::RequestClass>(c);
        result.phase_requests += forensics.finished_total(cls);
        for (const auto& [name, us] : forensics.phase_totals(cls)) {
            auto it = std::find_if(result.phase_us.begin(), result.phase_us.end(),
                                   [&](const auto& p) { return p.first == name; });
            if (it == result.phase_us.end()) {
                result.phase_us.emplace_back(name, us);
            } else {
                it->second += us;
            }
        }
    }
    result.heat = heat.snapshot(obs::DiskHeatModel::now_seconds());
    result.closed_form_e_max = core::closed_form_max_load(st.scheme(), kMaxReadElements);
    st.attach_observability(nullptr);

    // Verification pass, outside the wall-clock window and with the
    // observability detached, so the timed series are unchanged: the
    // same threads replay the same request streams concurrently and
    // check every byte against the fill pattern.
    std::atomic<bool> mismatch{false};
    run_threads([&](int tid) {
        replay(tid, [&](std::int64_t offset, std::int64_t length) {
            auto out = st.read_bytes(offset, length);
            if (!out.ok()) {
                failed.store(true);
                return false;
            }
            for (std::int64_t i = 0; i < length; ++i) {
                if (out.value()[static_cast<std::size_t>(i)] != pattern_byte(offset + i)) {
                    mismatch.store(true);
                    return false;
                }
            }
            return true;
        });
    });
    if (failed.load() || mismatch.load()) {
        std::fprintf(stderr, "%s case: verification pass %s\n", spec.c_str(),
                     mismatch.load() ? "read wrong bytes" : "failed a read");
        std::abort();
    }
    return result;
}

}  // namespace
}  // namespace ecfrm

int main() {
    using namespace ecfrm;
    bench::ArtifactWriter& writer = bench::ArtifactWriter::instance();
    writer.set_param("element_bytes", std::to_string(kElementBytes));
    writer.set_param("stripes", std::to_string(kStripes));
    writer.set_param("requests_per_thread", std::to_string(requests_per_thread()));
    writer.set_param("seed", std::to_string(kSeed));

    const int thread_counts[] = {1, 2, 4, 8};
    std::printf("%-28s %8s %14s %12s %12s\n", "case", "threads", "MB/s", "p50 us", "p99 us");
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (layout::LayoutKind kind :
             {layout::LayoutKind::standard, layout::LayoutKind::ecfrm}) {
            for (bool degraded : {false, true}) {
                for (int threads : thread_counts) {
                    // Degraded scaling only needs the endpoints to show the
                    // decode path scales; keep the matrix small.
                    if (degraded && threads != 1 && threads != 8) continue;
                    const CaseResult result = run_case(spec, kind, threads, degraded);
                    const std::string label = std::string(spec) + "/" +
                                              layout::to_string(kind) +
                                              (degraded ? "/degraded" : "");
                    std::printf("%-28s %8d %14.2f %12.1f %12.1f\n", label.c_str(), threads,
                                result.throughput_mb_s, result.latencies_us.percentile(0.50),
                                result.latencies_us.percentile(0.99));
                    const std::string series = label + "/t" + std::to_string(threads);
                    writer.add_scalar(series + "/throughput_mb_s", "MB/s",
                                      bench::Direction::higher_is_better,
                                      result.throughput_mb_s,
                                      static_cast<std::int64_t>(result.latencies_us.size()));
                    writer.add_samples(series + "/read_latency_us", "us",
                                       bench::Direction::lower_is_better, result.latencies_us);
                    for (const auto& [phase, us] : result.phase_us) {
                        if (result.phase_requests <= 0) break;
                        writer.add_scalar(series + "/phase_" + phase + "_us", "us",
                                          bench::Direction::none,
                                          us / static_cast<double>(result.phase_requests),
                                          result.phase_requests);
                    }
                    // Live balance scoreboard next to its closed-form
                    // anchor: random request sizes mean the measured mean
                    // max load sits below the fixed-size prediction at
                    // kMaxReadElements, but both ride in the artifact for
                    // cross-layout comparison.
                    writer.add_scalar(series + "/heat_measured_max_load", "elements",
                                      bench::Direction::none, result.heat.measured_max_load,
                                      result.heat.requests);
                    writer.add_scalar(series + "/heat_load_factor", "ratio",
                                      bench::Direction::none, result.heat.load_factor,
                                      result.heat.requests);
                    writer.add_scalar(series + "/heat_skew_cov", "ratio",
                                      bench::Direction::none, result.heat.skew_cov,
                                      result.heat.requests);
                    writer.add_scalar(series + "/closed_form_max_load_e" +
                                          std::to_string(kMaxReadElements),
                                      "elements", bench::Direction::none,
                                      static_cast<double>(result.closed_form_e_max), 1);
                }
            }
        }
    }
    return 0;
}

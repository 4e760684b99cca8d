// The store workloads and the rounds that run them.
//
// A round is: set up a fresh store (load the user data through the
// workload's write path, fail a disk when the workload serves degraded),
// serve a closed-loop reader, rebuild one disk, then check parity
// and read every user byte back. Untraced runs repeat rounds until the
// run's serving time is spent and report the end-to-end metrics. Traced
// runs serve a fixed number of requests three times over the same
// request streams: untraced (the overhead baseline), traced (timing
// decorator, allocation counts, planner replay and spans), and with
// request forensics attached (executor phase totals and recovery
// counters).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "alloc_counter.h"
#include "bench.h"
#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/analysis.h"
#include "core/read_planner.h"
#include "core/scheme.h"
#include "gf/kernels.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "span_log.h"
#include "store/disk.h"
#include "store/ec_pipeline.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"
#include "timing_device.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace core = ecfrm::core;
namespace store = ecfrm::store;
namespace fs = std::filesystem;
using ecfrm::DiskId;
using ecfrm::Rng;
using ecfrm::Status;
using ecfrm::ThreadPool;

constexpr std::int64_t KiB = 1024;
constexpr std::int64_t MiB = 1024 * KiB;
constexpr int kMaxRequestElements = 20;  // the paper's protocol: 1-20 elements
constexpr std::int64_t kReadBackChunk = 4 * MiB;
constexpr std::int64_t kRebuildChunkBytes = 256 * KiB;  // of the rebuilt disk, per rebuild_rows
constexpr double kMB = 1e6;

int nproc() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

struct Spec {
    const char* name;
    const char* code;
    std::int64_t element_bytes;
    std::int64_t user_bytes;      // loaded at setup
    std::int64_t append_bytes;    // size of one append of the load
    int load_pool_threads;        // >0: load through an EcPipeline on its own pool
    bool file_devices;            // store::open_file_device in a scratch dir
    bool degraded;                // one seed-chosen disk failed while serving
    int rounds;                   // untraced rounds per run
    int rebuild_reps;             // timed rebuilds of one disk per round
    std::int64_t fixed_requests;  // reads per traced-run pass
};

std::vector<Spec> specs() {
    return {
        {"hot_reads", "rs:6,3", 4 * KiB, 32 * MiB, 32 * KiB, std::min(2, nproc()), false, false,
         32, 4, 6000},
        {"degraded_file", "rs:6,3", 256 * KiB, 512 * MiB, 256 * KiB, 0, true, true,
         6, 2, 400},
    };
}

std::uint64_t mix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// User data is a deterministic function of the logical byte offset, so
/// any read can be checked without keeping a copy of what was written.
class Oracle {
  public:
    explicit Oracle(std::uint64_t seed) : key_(mix64(seed ^ 0x0bad5eedULL)) {}

    void fill(std::int64_t offset, std::uint8_t* dst, std::int64_t len) const {
        while (len > 0) {
            const std::uint64_t word = mix64(key_ + static_cast<std::uint64_t>(offset >> 3));
            const std::int64_t from = offset & 7;
            const std::int64_t n = std::min<std::int64_t>(8 - from, len);
            std::uint8_t bytes[8];
            std::memcpy(bytes, &word, 8);
            std::memcpy(dst, bytes + from, static_cast<std::size_t>(n));
            dst += n;
            offset += n;
            len -= n;
        }
    }

    bool matches(std::int64_t offset, const std::uint8_t* data, std::int64_t len) const {
        thread_local std::vector<std::uint8_t> expect;
        constexpr std::int64_t kBlock = 256 * KiB;
        expect.resize(static_cast<std::size_t>(kBlock));
        for (std::int64_t done = 0; done < len; done += kBlock) {
            const std::int64_t n = std::min(kBlock, len - done);
            fill(offset + done, expect.data(), n);
            if (std::memcmp(expect.data(), data + done, static_cast<std::size_t>(n)) != 0) {
                return false;
            }
        }
        return true;
    }

  private:
    std::uint64_t key_;
};

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Read, write and rebuild rates are medians over windows: runs of
/// consecutive calls of one thread whose time inside the call adds up to
/// at least kWindowUs (a call that long is a window by itself). A
/// window's rate is its bytes over that time; time between calls, such
/// as a client's byte check, is not counted. On a shared virtual machine
/// the hypervisor takes a busy vCPU away often (about a hundred times a
/// second, for tens of microseconds to a few milliseconds, on the 4-vCPU
/// Xeon VM of perfbench/README.md). A millisecond window escapes most of
/// those stalls, a stall spoils only the window it lands in, and the
/// median keeps the spoiled ones out of the figure. Latency percentiles
/// are taken over every call of the run.
constexpr double kWindowUs = 1000.0;

/// Cuts one thread's calls, in issue order, into rate windows; calls
/// left over after the last whole window are not counted.
class RateWindows {
  public:
    void add(std::int64_t bytes, double us) {
        bytes_ += static_cast<double>(bytes);
        us_ += us;
        if (us_ < kWindowUs) return;
        rates_.push_back(bytes_ / kMB / (us_ / 1e6));
        bytes_ = us_ = 0.0;
    }
    /// Appends the finished windows' rates (MB/s) to `out` and starts over.
    void drain(std::vector<double>& out) {
        out.insert(out.end(), rates_.begin(), rates_.end());
        *this = RateWindows();
    }

  private:
    std::vector<double> rates_;
    double bytes_ = 0.0;
    double us_ = 0.0;
};

/// Host speed, measured by a fixed kernel that shares no code with the
/// store: a dependent multiply-add chain (core clock), copies of 48 KiB
/// from random places in a 32 MiB buffer (caches) and one 2 MiB copy
/// (memory bandwidth). On a shared virtual machine the same program runs
/// up to 1.5x faster or slower from one minute to the next, as the other
/// tenants' load moves the core clock and fills the shared caches. The
/// timed pass runs this kernel at the start of each round and every
/// kProbeEveryUs while it serves, and multiplies every duration of the
/// run by kProbeRefUs / (the kernel's median time): each timed metric is
/// reported at the speed of a host on which the kernel takes kProbeRefUs.
/// A change to the store does not change the kernel, so it moves the
/// metrics in full. The kernel makes no heap allocation, so a change to
/// the allocator the store links against does not move it either.
class HostProbe {
  public:
    /// The kernel's median time on the reference VM of perfbench/README.md.
    static constexpr double kProbeRefUs = 450.0;
    static constexpr double kProbeEveryUs = 50000.0;

    HostProbe() : buf_(32 * MiB), dst_(2 * MiB) {
        // Distinct bytes, so no page of the buffer is shared with another.
        for (std::size_t i = 0; i < buf_.size(); i += 8) {
            const std::uint64_t word = mix64(i);
            std::memcpy(buf_.data() + i, &word, 8);
        }
    }

    /// Times the kernel once: the fastest of three tries, so a
    /// descheduled vCPU is not counted.
    void sample() {
        double best = 1e18;
        for (int k = 0; k < 3; ++k) best = std::min(best, once());
        probe_us_.push_back(best);
    }
    /// Samples the kernel when kProbeEveryUs has passed since the last sample.
    void tick() {
        if (now_us() < next_us_) return;
        sample();
        next_us_ = now_us() + kProbeEveryUs;
    }
    double median_us() const { return median(probe_us_); }
    std::size_t samples() const { return probe_us_.size(); }
    /// What every duration of the run is multiplied by.
    double scale() const { return kProbeRefUs / median_us(); }

  private:
    static constexpr std::size_t kSmall = 48 * KiB;

    double once() {
        const double t0 = now_us();
        std::uint64_t x = state_;
        for (int i = 0; i < 20000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            asm volatile("" : "+r"(x));  // keep the chain serial
        }
        for (int i = 0; i < 16; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            std::memcpy(dst_.data(), buf_.data() + (x >> 16) % (buf_.size() - kSmall), kSmall);
        }
        std::memcpy(dst_.data(), buf_.data() + (x >> 16) % (buf_.size() - dst_.size()), dst_.size());
        state_ = x ^ dst_[x % dst_.size()];
        return now_us() - t0;
    }

    std::vector<std::uint8_t> buf_;
    std::vector<std::uint8_t> dst_;
    std::uint64_t state_ = 1;
    std::vector<double> probe_us_;
    double next_us_ = 0.0;
};

/// Latencies of a whole run, in log-spaced buckets 0.1 % wide, so a p99
/// over every sample needs no memory that grows with the sample count.
class LatencyHistogram {
  public:
    void add(double us) {
        const double x = std::max(us, kMinUs);
        const auto b = static_cast<std::size_t>(std::log(x / kMinUs) / std::log1p(kWidth));
        ++counts_[std::min(b, counts_.size() - 1)];
        ++total_;
    }
    std::int64_t count() const { return total_; }
    /// Nearest-rank quantile, reported at the bucket's geometric middle.
    double quantile(double q) const {
        if (total_ == 0) return 0.0;
        const auto rank = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total_))));
        std::int64_t seen = 0;
        std::size_t b = 0;
        while (b + 1 < counts_.size() && (seen += counts_[b]) < rank) ++b;
        return kMinUs * std::pow(1.0 + kWidth, static_cast<double>(b) + 0.5);
    }

  private:
    static constexpr double kMinUs = 0.1;
    static constexpr double kWidth = 0.001;
    // 0.1 us .. about 1000 s.
    std::vector<std::int64_t> counts_ = std::vector<std::int64_t>(23000, 0);
    std::int64_t total_ = 0;
};

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;  // ru_maxrss is KiB
}

enum class Pass { timed, baseline, traced, forensic };

/// Read ledger of one round's serving, merged into its pass.
struct ReadTally {
    std::int64_t ops = 0;
    std::int64_t failed = 0;
    std::int64_t bytes = 0;
    // Traced pass only: sums over requests.
    double plan_us = 0.0;
    std::int64_t plan_allocs = 0;
    std::int64_t fanout = 0;
    std::int64_t max_load = 0;
    double cost = 0.0;
    std::int64_t read_allocs = 0;
    double self_us = 0.0;
    std::int64_t dev_calls = 0;
    std::int64_t dev_elements = 0;
    double dev_busy_us = 0.0;
    double dev_crit_us = 0.0;
    std::int64_t measured_max_load = 0;
    std::int64_t closed_form_max_load = 0;
    std::int64_t load_mismatches = 0;
    std::int64_t call_mismatches = 0;
    std::vector<std::string> errors;  // the first few failed reads
    std::string replay_error;         // traced pass: the first failed plan replay

    void merge(const ReadTally& o) {
        ops += o.ops;
        failed += o.failed;
        bytes += o.bytes;
        plan_us += o.plan_us;
        plan_allocs += o.plan_allocs;
        fanout += o.fanout;
        max_load += o.max_load;
        cost += o.cost;
        read_allocs += o.read_allocs;
        self_us += o.self_us;
        dev_calls += o.dev_calls;
        dev_elements += o.dev_elements;
        dev_busy_us += o.dev_busy_us;
        dev_crit_us += o.dev_crit_us;
        measured_max_load += o.measured_max_load;
        closed_form_max_load += o.closed_form_max_load;
        load_mismatches += o.load_mismatches;
        call_mismatches += o.call_mismatches;
        for (const std::string& e : o.errors) {
            if (errors.size() < kMaxErrors) errors.push_back(e);
        }
        if (replay_error.empty()) replay_error = o.replay_error;
    }

    static constexpr std::size_t kMaxErrors = 8;
};

/// Everything one pass (all its rounds) measured.
struct PassStats {
    ReadTally reads;
    std::vector<double> read_mb_s;     // per read window
    LatencyHistogram read_lat;
    LatencyHistogram write_lat;
    std::vector<double> write_mb_s;    // per append window
    std::vector<double> rebuild_mb_s;  // per rebuild window
    std::vector<double> setup_s;       // per round
    double space_amp = 0.0;
    std::int64_t staging_copies = 0;
    // Traced pass only.
    std::int64_t write_bytes = 0;
    std::int64_t appends = 0;
    std::int64_t stripes_committed = 0;
    std::int64_t sync_encodes = 0;
    std::size_t pending_max = 0;
    std::int64_t pool_tasks = 0;
    std::int64_t gf_bytes = 0;
    double dev_write_us = 0.0;
    std::int64_t dev_write_elements = 0;
    std::int64_t elements_rebuilt = 0;
    std::int64_t elements_read_for_rebuild = 0;
    // Forensic pass only.
    std::map<std::string, double> phase_us;
    std::int64_t finished_reads = 0;
    std::int64_t recovery_ops = 0;
};

/// Scratch directory of one round's file devices; removed when dropped.
class ScratchDir {
  public:
    explicit ScratchDir(fs::path path) : path_(std::move(path)) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    const fs::path& path() const { return path_; }

  private:
    fs::path path_;
};

std::int64_t directory_bytes(const fs::path& dir) {
    std::int64_t total = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file()) total += static_cast<std::int64_t>(entry.file_size());
    }
    return total;
}

class Runner {
  public:
    Runner(Spec spec, const Options& options)
        : spec_(std::move(spec)), opt_(options), oracle_(options.seed) {
        auto code = ecfrm::codes::make_code(spec_.code);
        if (!code.ok()) throw std::runtime_error("bad code spec: " + code.error().message);
        code_ = code.value();
        disks_ = make_scheme().disks();
        Rng rng(opt_.seed ^ 0xd15cULL);
        failed_disk_ = static_cast<DiskId>(rng.next_below(static_cast<std::uint64_t>(disks_)));
    }

    Outcome run() {
        print_meta();
        if (opt_.trace) {
            run_traced();
        } else {
            run_timed();
        }
        return std::move(out_);
    }

  private:
    core::Scheme make_scheme() const { return core::Scheme(code_, ecfrm::layout::LayoutKind::ecfrm); }

    void print_meta() const {
        const char* fsync = std::getenv("ECFRM_FSYNC");
        const std::string load = spec_.load_pool_threads > 0
                                     ? "EcPipeline+ThreadPool(" + std::to_string(spec_.load_pool_threads) + ")"
                                     : "StripeStore::append";
        std::printf(
            "meta: {\"workload\": \"%s\", \"seed\": %llu, \"mode\": \"%s\", \"code\": \"%s\", "
            "\"layout\": \"ecfrm\", \"element_bytes\": %lld, \"user_bytes\": %lld, "
            "\"clients\": 1, \"load\": \"%s\", \"io_backend\": \"%s\", \"simd_tier\": \"%s\", "
            "\"nproc\": %d, \"build_type\": \"%s\", \"fsync\": \"%s\", \"failed_disk\": %d}\n",
            spec_.name, static_cast<unsigned long long>(opt_.seed),
            opt_.trace ? "traced" : "untraced", spec_.code,
            static_cast<long long>(spec_.element_bytes), static_cast<long long>(spec_.user_bytes),
            load.c_str(),
            spec_.file_devices ? store::to_string(store::default_io_backend()) : "memory",
            ecfrm::gf::to_string(ecfrm::gf::active_tier()), nproc(), PERFBENCH_BUILD_TYPE,
            fsync != nullptr ? fsync : "default", spec_.degraded ? failed_disk_ : -1);
    }

    // ---- accounting -------------------------------------------------

    void count_op(bool ok, const std::string& what) {
        ++out_.attempted;
        if (!ok) {
            ++out_.failed;
            if (out_.problems.size() < ReadTally::kMaxErrors) out_.problems.push_back(what);
        }
    }

    void check(const Status& status, const char* what) {
        count_op(status.ok(), status.ok() ? "" : std::string(what) + ": " + status.error().message);
    }

    // ---- one round --------------------------------------------------

    std::unique_ptr<store::StripeStore> open_store(bool decorate, const fs::path& dir) const {
        const std::int64_t elem = spec_.element_bytes;
        auto factory = [&](int index) -> ecfrm::Result<std::unique_ptr<store::BlockDevice>> {
            std::unique_ptr<store::BlockDevice> device;
            if (spec_.file_devices) {
                auto opened = store::open_file_device(dir.string(), index, elem);
                if (!opened.ok()) return opened.error();
                device = std::move(opened).take();
            } else {
                device = std::make_unique<store::Disk>(elem);
            }
            if (decorate) device = std::make_unique<TimingDevice>(std::move(device), index);
            return device;
        };
        auto opened = store::StripeStore::open(make_scheme(), elem, factory, nullptr);
        if (!opened.ok()) throw std::runtime_error("store open failed: " + opened.error().message);
        return std::move(opened).take();
    }

    /// Salt of a round's request streams: every traced-run pass serves
    /// the same streams, untraced rounds each get their own.
    static std::uint64_t salt(Pass pass, int round) {
        return pass == Pass::timed ? static_cast<std::uint64_t>(round + 2) : 0x7ace0ULL;
    }

    void run_round(Pass pass, int round, double serve_seconds, PassStats& ps) {
        const bool traced = pass == Pass::traced;
        spans::set_phase(Phase::setup);
        spans::set_enabled(traced);
        if (pass == Pass::timed) probe_.sample();

        const double setup_t0 = now_us();
        std::optional<ScratchDir> dir;
        if (spec_.file_devices) dir.emplace(fs::path(opt_.scratch_dir) / ("round" + std::to_string(round)));
        const fs::path dir_path = dir.has_value() ? dir->path() : fs::path();
        auto st = open_store(traced, dir_path);
        load(*st, traced, ps);
        ps.space_amp = space_amp(*st, dir_path);
        if (spec_.degraded) check(st->fail_disk(failed_disk_), "fail_disk");
        ps.setup_s.push_back((now_us() - setup_t0) / 1e6);

        spans::set_phase(Phase::serve);
        ecfrm::obs::RequestForensics forensics;
        ecfrm::obs::MetricRegistry store_metrics;
        if (pass == Pass::forensic) st->attach_observability(&store_metrics, nullptr, &forensics);
        ecfrm::obs::MetricRegistry gf_metrics;
        if (traced) ecfrm::gf::attach_kernel_metrics(&gf_metrics);
        const std::int64_t copies0 = st->assemble_staging_copies();
        const std::size_t windows0 = ps.read_mb_s.size();

        serve_reads(*st, pass, round, serve_seconds, ps);
        ps.staging_copies += st->assemble_staging_copies() - copies0;
        if (traced) {
            ecfrm::gf::attach_kernel_metrics(nullptr);
            for (int t = 0; t < ecfrm::gf::kSimdTierCount; ++t) {
                const char* tier = ecfrm::gf::to_string(static_cast<ecfrm::gf::SimdTier>(t));
                ps.gf_bytes += gf_metrics.counter("ecfrm_gf_bytes_total", {{"tier", tier}}).value();
            }
        }
        if (pass == Pass::forensic) {
            for (auto cls : {ecfrm::obs::RequestClass::normal, ecfrm::obs::RequestClass::degraded}) {
                ps.finished_reads += forensics.finished_total(cls);
                for (const auto& [phase, us] : forensics.phase_totals(cls)) ps.phase_us[phase] += us;
            }
            for (const char* name : {"ecfrm_store_retries_total", "ecfrm_store_timeouts_total",
                                     "ecfrm_store_hedged_reads_total", "ecfrm_store_replans_total"}) {
                ps.recovery_ops += store_metrics.counter(name).value();
            }
            st->attach_observability(nullptr);
        }

        spans::set_phase(Phase::rebuild);
        rebuild(*st, traced, ps);

        spans::set_enabled(false);
        check(st->verify_parity(), "verify_parity after rebuild");
        read_back(*st);
        st.reset();

        const std::vector<double> mine(ps.read_mb_s.begin() + static_cast<std::ptrdiff_t>(windows0),
                                       ps.read_mb_s.end());
        std::printf("round %d: setup_s=%.4f read_mb_s=%.1f rebuild_mb_s=%.1f (measured, not scaled)\n", round,
                    ps.setup_s.back(), median(mine), ps.rebuild_mb_s.empty() ? 0.0 : ps.rebuild_mb_s.back());
    }

    double space_amp(const store::StripeStore& st, const fs::path& dir) const {
        const auto user = static_cast<double>(st.logical_bytes());
        if (spec_.file_devices) return static_cast<double>(directory_bytes(dir)) / user;
        const core::Scheme& scheme = st.scheme();
        const ecfrm::StripeId stripes = st.stored_data_elements() / scheme.layout().data_per_stripe();
        return static_cast<double>(scheme.rows_for(stripes)) * scheme.disks() *
               static_cast<double>(spec_.element_bytes) / user;
    }

    /// Setup load, timed per append: the workload's write metrics. The
    /// user data goes in append_bytes pieces through StripeStore::append,
    /// or through an EcPipeline whose parity encodes run on a pool of its
    /// own (the store itself stays pool-free for serving), then a flush.
    void load(store::StripeStore& st, bool traced, PassStats& ps) {
        ecfrm::obs::MetricRegistry pool_metrics;
        std::unique_ptr<ThreadPool> pool;
        std::unique_ptr<store::EcPipeline> pipe;
        if (spec_.load_pool_threads > 0) {
            pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(spec_.load_pool_threads));
            pool->attach_metrics(nullptr, &pool_metrics.counter("pool_tasks_total"));
            pipe = std::make_unique<store::EcPipeline>(st, pool.get());
        }
        std::vector<std::uint8_t> chunk(static_cast<std::size_t>(spec_.append_bytes));
        std::int64_t appends = 0;
        RateWindows rates;
        for (std::int64_t off = 0; off < spec_.user_bytes; off += spec_.append_bytes) {
            const std::int64_t n = std::min(spec_.append_bytes, spec_.user_bytes - off);
            oracle_.fill(off, chunk.data(), n);
            const ecfrm::ConstByteSpan data(chunk.data(), static_cast<std::size_t>(n));
            ScopedSpan span("store.append");
            const double t0 = now_us();
            const Status status = pipe != nullptr ? pipe->append(data) : st.append(data);
            const double t1 = now_us();
            span.close();
            check(status, "append");
            ps.write_lat.add(t1 - t0);
            ++appends;
            rates.add(n, t1 - t0);
            if (traced && pipe != nullptr) {
                ps.pending_max = std::max(ps.pending_max, pipe->snapshot().pending_stripes);
            }
        }
        rates.drain(ps.write_mb_s);
        {
            ScopedSpan span("store.flush");
            check(pipe != nullptr ? pipe->flush() : st.flush(), "flush");
        }
        if (!traced) return;
        ps.write_bytes += spec_.user_bytes;
        ps.appends += appends;
        ps.stripes_committed += st.stored_data_elements() / st.scheme().layout().data_per_stripe();
        if (pipe != nullptr) {
            ps.sync_encodes += pipe->snapshot().sync_encodes;
            pipe.reset();
            pool.reset();  // joins the workers: every task has been counted
            ps.pool_tasks += pool_metrics.counter("pool_tasks_total").value();
        }
        for (const SpanRecord& s : spans::collect()) {
            if (s.phase != Phase::setup || std::strncmp(s.name, "dev.write", 9) != 0) continue;
            ps.dev_write_us += s.dur_us();
            ps.dev_write_elements += s.count;
        }
    }

    // ---- serving ----------------------------------------------------

    /// Serve closed-loop reads from this thread: the next read goes out
    /// when the previous one returns. Timed rounds read until `seconds`
    /// is spent; each traced-run pass serves spec_.fixed_requests reads.
    void serve_reads(store::StripeStore& st, Pass pass, int round, double seconds, PassStats& ps) {
        const core::Scheme scheme = make_scheme();
        const std::vector<DiskId> excluded =
            spec_.degraded ? std::vector<DiskId>{failed_disk_} : std::vector<DiskId>{};
        Rng rng(mix64(opt_.seed ^ (salt(pass, round) << 20)));
        const std::int64_t elem = spec_.element_bytes;
        const std::int64_t total_elements = spec_.user_bytes / elem;
        const double deadline_us = now_us() + seconds * 1e6;
        ReadTally t;
        RateWindows rates;
        for (std::int64_t i = 0; pass != Pass::timed ? i < spec_.fixed_requests : now_us() < deadline_us; ++i) {
            const auto req = ecfrm::workload::random_read(rng, total_elements, kMaxRequestElements);
            const std::int64_t off = req.start * elem;
            const std::int64_t len = req.count * elem;
            ecfrm::Result<std::vector<std::uint8_t>> got = ecfrm::Error::internal("not run");
            double lat = 0.0;
            if (pass == Pass::traced) {
                lat = traced_read(st, scheme, excluded, req, static_cast<std::uint64_t>(i + 1), got, t);
            } else {
                const double t0 = now_us();
                got = st.read_bytes(off, len);
                lat = now_us() - t0;
            }
            // The byte check runs after the end timestamp: it is not timed.
            const bool ok = got.ok() && static_cast<std::int64_t>(got.value().size()) == len &&
                            oracle_.matches(off, got.value().data(), len);
            ps.read_lat.add(lat);
            rates.add(len, lat);
            if (pass == Pass::timed) probe_.tick();
            ++t.ops;
            t.bytes += len;
            if (!ok) {
                ++t.failed;
                if (t.errors.size() < ReadTally::kMaxErrors) {
                    t.errors.push_back(got.ok() ? "read returned wrong bytes at offset " + std::to_string(off)
                                                : "read failed: " + got.error().message);
                }
            }
        }
        rates.drain(ps.read_mb_s);
        out_.attempted += t.ops;
        out_.failed += t.failed;
        for (const std::string& e : t.errors) {
            if (out_.problems.size() < ReadTally::kMaxErrors) out_.problems.push_back(e);
        }
        if (!t.replay_error.empty()) out_.problem(t.replay_error);
        ps.reads.merge(t);
    }

    /// One traced request: replay the store's plan, then read through the
    /// decorated store and attribute the device spans the read left on
    /// this thread (the store has no pool, so every device call of the
    /// read runs here). Returns the read latency.
    double traced_read(store::StripeStore& st, const core::Scheme& scheme,
                       const std::vector<DiskId>& excluded,
                       const ecfrm::workload::ReadRequest& req, std::uint64_t rid,
                       ecfrm::Result<std::vector<std::uint8_t>>& got, ReadTally& t) {
        spans::set_request(rid);
        ScopedSpan request_span("request");

        const std::uint64_t a0 = thread_allocs();
        const double p0 = now_us();
        auto plan = excluded.empty()
                        ? ecfrm::Result<core::AccessPlan>(core::plan_normal_read(scheme, req.start, req.count))
                        : core::plan_degraded_read(scheme, req.start, req.count, excluded,
                                                   core::DegradedPolicy::local_first, nullptr);
        const double p1 = now_us();
        const std::uint64_t a1 = thread_allocs();
        spans::record("core.plan", spans::next_id(), request_span.id(), p0, p1, -1,
                      static_cast<std::int64_t>(a1 - a0));

        const std::size_t mark = spans::thread_spans().size();
        ScopedSpan read_span("store.read_bytes");
        const std::uint64_t b0 = thread_allocs();
        const double t0 = now_us();
        got = st.read_bytes(req.start * spec_.element_bytes, req.count * spec_.element_bytes);
        const double t1 = now_us();
        const auto read_allocs = static_cast<std::int64_t>(thread_allocs() - b0);
        read_span.set_count(read_allocs);
        read_span.close();
        request_span.close();
        spans::set_request(0);

        AllocPause pause;
        if (!plan.ok()) {
            if (t.replay_error.empty()) t.replay_error = "plan replay failed: " + plan.error().message;
            return t1 - t0;
        }
        const core::AccessPlan& p = plan.value();
        std::vector<std::int64_t> elements(static_cast<std::size_t>(disks_), 0);
        std::vector<double> busy(static_cast<std::size_t>(disks_), 0.0);
        std::int64_t calls = 0;
        double dev_us = 0.0;
        const std::vector<SpanRecord>& mine = spans::thread_spans();
        for (std::size_t i = mark; i < mine.size(); ++i) {
            const SpanRecord& s = mine[i];
            if (s.parent != read_span.id() || s.disk < 0) continue;
            if (std::strcmp(s.name, "dev.await") != 0) ++calls;
            elements[static_cast<std::size_t>(s.disk)] += s.count;
            busy[static_cast<std::size_t>(s.disk)] += s.dur_us();
            dev_us += s.dur_us();
        }
        const auto fanout = static_cast<std::int64_t>(p.batches().size());
        t.plan_us += p1 - p0;
        t.plan_allocs += static_cast<std::int64_t>(a1 - a0);
        t.fanout += fanout;
        t.max_load += p.max_load();
        t.cost += p.cost();
        t.read_allocs += read_allocs;
        t.self_us += (t1 - t0) - (p1 - p0) - dev_us;
        t.dev_calls += calls;
        t.dev_busy_us += dev_us;
        t.dev_crit_us += *std::max_element(busy.begin(), busy.end());
        for (std::int64_t e : elements) t.dev_elements += e;
        t.measured_max_load += *std::max_element(elements.begin(), elements.end());
        t.closed_form_max_load += core::closed_form_max_load(scheme, req.count);
        for (int d = 0; d < disks_; ++d) {
            if (elements[static_cast<std::size_t>(d)] != p.per_disk_loads()[static_cast<std::size_t>(d)]) {
                ++t.load_mismatches;
                break;
            }
        }
        if (calls != fanout) ++t.call_mismatches;
        return t1 - t0;
    }

    // ---- rebuild and verification -----------------------------------

    /// Rebuild the failed disk through the calls reconstruct_disk is made
    /// of (begin_rebuild, rebuild_rows over every row, finish_rebuild),
    /// with rebuild_rows issued in chunks of about kRebuildChunkBytes of
    /// the disk, as the pipeline's repair scheduler drives it. Each chunk
    /// is timed, so the rate is a median over windows like the others.
    void rebuild(store::StripeStore& st, bool traced, PassStats& ps) {
        const std::int64_t elem = spec_.element_bytes;
        const ecfrm::RowId chunk = std::max<std::int64_t>(1, kRebuildChunkBytes / elem);
        for (int rep = 0; rep < spec_.rebuild_reps; ++rep) {
            // A degraded workload's disk is already failed for the first rebuild.
            if (!spec_.degraded || rep > 0) check(st.fail_disk(failed_disk_), "fail_disk before rebuild");
            ScopedSpan span("store.rebuild");
            const Status began = st.begin_rebuild(failed_disk_);
            check(began, "begin_rebuild");
            auto rows = st.rebuild_target_rows(failed_disk_);
            check(rows.ok() ? Status::success() : Status(rows.error()), "rebuild_target_rows");
            if (!began.ok() || !rows.ok()) return;
            RateWindows rates;
            for (ecfrm::RowId first = 0; first < rows.value(); first += chunk) {
                const double t0 = now_us();
                auto stats = st.rebuild_rows(failed_disk_, first, std::min(chunk, rows.value() - first));
                const double t1 = now_us();
                check(stats.ok() ? Status::success() : Status(stats.error()), "rebuild_rows");
                if (!stats.ok()) {
                    (void)st.abort_rebuild(failed_disk_);
                    return;
                }
                rates.add(stats.value().elements_rebuilt * elem, t1 - t0);
                if (traced) {
                    ps.elements_rebuilt += stats.value().elements_rebuilt;
                    ps.elements_read_for_rebuild += stats.value().elements_read;
                }
            }
            check(st.finish_rebuild(failed_disk_), "finish_rebuild");
            rates.drain(ps.rebuild_mb_s);
        }
    }

    /// Read every committed user byte back and check it.
    void read_back(store::StripeStore& st) {
        const std::int64_t total = st.committed_bytes();
        for (std::int64_t off = 0; off < total; off += kReadBackChunk) {
            const std::int64_t n = std::min(kReadBackChunk, total - off);
            auto got = st.read_bytes(off, n);
            const bool ok = got.ok() && oracle_.matches(off, got.value().data(), n);
            count_op(ok, "read-back mismatch at offset " + std::to_string(off));
        }
    }

    /// Median time of the code's public encode over one stripe of the
    /// workload's geometry (every group of the stripe).
    double replay_encode_us() const {
        const int k = code_->k();
        const int m = code_->m();
        const int groups = make_scheme().layout().groups_per_stripe();
        const auto elem = static_cast<std::size_t>(spec_.element_bytes);
        std::vector<std::uint8_t> data(elem * static_cast<std::size_t>(k));
        std::vector<std::uint8_t> parity(elem * static_cast<std::size_t>(m));
        oracle_.fill(0, data.data(), static_cast<std::int64_t>(data.size()));
        std::vector<ecfrm::ConstByteSpan> srcs;
        std::vector<ecfrm::ByteSpan> dsts;
        for (int j = 0; j < k; ++j) srcs.emplace_back(data.data() + j * elem, elem);
        for (int j = 0; j < m; ++j) dsts.emplace_back(parity.data() + j * elem, elem);
        std::vector<double> samples;
        for (int rep = 0; rep < 101; ++rep) {
            const double t0 = now_us();
            for (int g = 0; g < groups; ++g) code_->encode(srcs, dsts);
            samples.push_back(now_us() - t0);
        }
        return median(samples);
    }

    // ---- the two modes ----------------------------------------------

    void run_timed() {
        // One short unmeasured round first: heap pages, the element arena
        // and the page cache are warm before anything is timed.
        PassStats warmup;
        run_round(Pass::timed, -1, 0.1 * opt_.seconds / spec_.rounds, warmup);
        PassStats ps;
        for (int round = 0; round < spec_.rounds; ++round) {
            run_round(Pass::timed, round, opt_.seconds / spec_.rounds, ps);
        }
        const std::int64_t reads = ps.read_lat.count();
        const std::int64_t writes = ps.write_lat.count();
        std::printf("reads: samples=%lld windows=%zu failed=%lld\n", static_cast<long long>(reads),
                    ps.read_mb_s.size(), static_cast<long long>(ps.reads.failed));
        // The append tail is printed but not a bounded metric: it follows
        // how long the host deschedules the load's threads.
        std::printf("writes: samples=%lld windows=%zu (%s appends of the setup load) "
                    "p50_us=%.2f p99_us=%.2f\n",
                    static_cast<long long>(writes), ps.write_mb_s.size(),
                    spec_.load_pool_threads > 0 ? "EcPipeline" : "StripeStore",
                    ps.write_lat.quantile(0.50), ps.write_lat.quantile(0.99));
        const double scale = probe_.scale();
        std::printf("host: probe kernel median %.2f us over %zu samples (reference %.0f us): "
                    "durations are scaled by %.4f\n",
                    probe_.median_us(), probe_.samples(), HostProbe::kProbeRefUs, scale);
        std::printf("rebuilds: %zu, setups: %zu, staging copies: %lld\n", ps.rebuild_mb_s.size(),
                    ps.setup_s.size(), static_cast<long long>(ps.staging_copies));
        std::printf("failed_op_ratio: %.6f (%lld of %lld operations)\n",
                    static_cast<double>(out_.failed) /
                        static_cast<double>(std::max<std::int64_t>(1, out_.attempted)),
                    static_cast<long long>(out_.failed), static_cast<long long>(out_.attempted));
        if (reads < 1000) out_.problem("fewer than 1000 read samples: p99 is not supported");
        if (writes < 1000) out_.problem("fewer than 1000 write samples: p99 is not supported");
        const double read_mb_s = median(ps.read_mb_s);
        const double read_p50 = ps.read_lat.quantile(0.50);
        const double read_p99 = ps.read_lat.quantile(0.99);
        const double write_mb_s = median(ps.write_mb_s);
        const double rebuild_mb_s = median(ps.rebuild_mb_s);
        const double setup_s = median(ps.setup_s);
        std::printf("measured (not scaled): read_mb_s=%.2f read_p50_us=%.3f read_p99_us=%.3f write_mb_s=%.2f "
                    "rebuild_mb_s=%.2f setup_s=%.5f\n",
                    read_mb_s, read_p50, read_p99, write_mb_s, rebuild_mb_s, setup_s);
        out_.metrics = {
            {"read_mb_s", read_mb_s / scale, "MB/s"},
            {"read_p50_us", read_p50 * scale, "us"},
            {"read_p99_us", read_p99 * scale, "us"},
            {"write_mb_s", write_mb_s / scale, "MB/s"},
            {"rebuild_mb_s", rebuild_mb_s / scale, "MB/s"},
            {"space_amp", ps.space_amp, "ratio"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"setup_s", setup_s * scale, "s"},
        };
    }

    void run_traced() {
        PassStats base;
        PassStats traced;
        PassStats forensic;
        run_round(Pass::baseline, 0, 0.0, base);
        run_round(Pass::traced, 0, 0.0, traced);
        run_round(Pass::forensic, 0, 0.0, forensic);
        if (!opt_.trace_out.empty() && !spans::write_chrome_json(opt_.trace_out)) {
            out_.problem("could not write span dump to " + opt_.trace_out);
        }
        report_per_layer(base, traced, forensic);
    }

    void report_per_layer(PassStats& base, PassStats& tr, const PassStats& fo) {
        const ReadTally& r = tr.reads;
        const auto n = static_cast<double>(std::max<std::int64_t>(1, r.ops));
        auto per = [](double num, std::int64_t den) { return den > 0 ? num / static_cast<double>(den) : 0.0; };
        auto phase = [&](const char* name) {
            auto it = fo.phase_us.find(name);
            return it == fo.phase_us.end() ? 0.0 : per(it->second, fo.finished_reads);
        };
        const double staging_base = per(static_cast<double>(base.staging_copies), base.reads.ops);
        const double staging_traced = per(static_cast<double>(tr.staging_copies), r.ops);
        const double measured_max = static_cast<double>(r.measured_max_load) / n;
        const double closed_form = static_cast<double>(r.closed_form_max_load) / n;
        const double base_p50 = base.read_lat.quantile(0.50);
        const double traced_p50 = tr.read_lat.quantile(0.50);

        std::printf("traced reads: %lld; plan-vs-measured per-disk load mismatches: %lld; "
                    "read calls != plan batches: %lld\n",
                    static_cast<long long>(r.ops), static_cast<long long>(r.load_mismatches),
                    static_cast<long long>(r.call_mismatches));
        std::printf("busiest disk per read: measured %.4f elements, closed_form_max_load %.4f%s\n",
                    measured_max, closed_form,
                    spec_.degraded ? " (the closed form is the healthy-read bound)" : "");
        std::printf("staging copies per read: untraced %.6f, traced %.6f\n", staging_base,
                    staging_traced);

        if (r.load_mismatches != 0) out_.problem("decorator per-disk loads differ from the plan");
        if (!spec_.degraded && r.call_mismatches != 0) {
            out_.problem("dev.read_calls differs from the plan's batch count");
        }
        if (staging_base != staging_traced) out_.problem("staging copies differ between untraced and traced");
        if (base.reads.failed != tr.reads.failed) out_.problem("failures differ between untraced and traced");
        if (fo.recovery_ops != 0) out_.problem("recovery ladder ran (retries/timeouts/hedges/replans)");

        out_.metrics = {
            {"core.plan_us", r.plan_us / n, "us"},
            {"core.plan_allocs", static_cast<double>(r.plan_allocs) / n, "count"},
            {"core.fanout", static_cast<double>(r.fanout) / n, "disks"},
            {"core.max_load", static_cast<double>(r.max_load) / n, "elements"},
            {"core.fetch_per_requested", r.cost / n, "ratio"},
            {"store.read_allocs", static_cast<double>(r.read_allocs) / n, "count"},
            {"store.read_self_us", r.self_us / n, "us"},
            {"store.staging_copies", staging_traced, "count"},
            {"store.recovery_ops", static_cast<double>(fo.recovery_ops), "count"},
            {"exec.fetch_us", phase("fetch"), "us"},
            {"exec.decode_us", phase("decode"), "us"},
            {"exec.assemble_us", phase("assemble"), "us"},
            {"dev.read_calls", static_cast<double>(r.dev_calls) / n, "count"},
            {"dev.read_busy_us", r.dev_busy_us / n, "us"},
            {"dev.read_crit_us", r.dev_crit_us / n, "us"},
            {"dev.read_amp", per(static_cast<double>(r.dev_elements * spec_.element_bytes), r.bytes), "ratio"},
            {"dev.write_busy_us", per(tr.dev_write_us, tr.stripes_committed), "us"},
            {"dev.write_amp", per(static_cast<double>(tr.dev_write_elements * spec_.element_bytes), tr.write_bytes),
             "ratio"},
            {"gf.bytes_per_user_byte", per(static_cast<double>(tr.gf_bytes), r.bytes), "ratio"},
            {"codes.encode_us", replay_encode_us(), "us"},
            {"codes.repair_reads_per_element",
             per(static_cast<double>(tr.elements_read_for_rebuild), tr.elements_rebuilt), "ratio"},
            {"pipeline.sync_encode_ratio", per(static_cast<double>(tr.sync_encodes), tr.stripes_committed),
             "ratio"},
            {"pipeline.pending_max", static_cast<double>(tr.pending_max), "stripes"},
            {"common.pool_tasks_per_op", per(static_cast<double>(tr.pool_tasks), tr.appends), "count"},
            {"obs.trace_overhead_pct", base_p50 > 0 ? (traced_p50 / base_p50 - 1.0) * 100.0 : 0.0, "%"},
        };
    }

    Spec spec_;
    Options opt_;
    Oracle oracle_;
    HostProbe probe_;
    std::shared_ptr<const ecfrm::codes::ErasureCode> code_;
    int disks_ = 0;
    DiskId failed_disk_ = 0;
    Outcome out_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Spec& s : specs()) out.emplace_back(s.name);
        return out;
    }();
    return names;
}

Outcome run_workload(const Options& options) {
    for (const Spec& s : specs()) {
        if (options.workload == s.name) return Runner(s, options).run();
    }
    Outcome out;
    out.problem("unknown workload " + options.workload);
    return out;
}

}  // namespace perfbench

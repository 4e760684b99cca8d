// Lock-cheap metrics substrate: Counter / Gauge / Histogram owned by a
// named MetricRegistry, addressed by (name, labels) pairs following the
// convention ecfrm_<subsystem>_<name>{label="value",...}.
//
// Registration (registry lookup) takes a mutex and may allocate; the hot
// path never does — callers cache the returned reference and each update
// is one (or a few) relaxed atomic operations. Every instrumented call
// site in the tree accepts a null metric pointer and degrades to a no-op
// branch, so the instrumentation costs nothing when no registry is
// attached.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ecfrm::obs {

/// Metric labels: key/value pairs. Order does not matter — the registry
/// canonicalises by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
inline void atomic_add(std::atomic<double>& target, double delta) {
    double old = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(old, old + delta, std::memory_order_relaxed)) {
    }
}
inline void atomic_min(std::atomic<double>& target, double v) {
    double old = target.load(std::memory_order_relaxed);
    while (v < old && !target.compare_exchange_weak(old, v, std::memory_order_relaxed)) {
    }
}
inline void atomic_max(std::atomic<double>& target, double v) {
    double old = target.load(std::memory_order_relaxed);
    while (v > old && !target.compare_exchange_weak(old, v, std::memory_order_relaxed)) {
    }
}
}  // namespace detail

/// Monotonic counter. add() is one relaxed atomic add.
class Counter {
  public:
    void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::int64_t> value_{0};
};

/// Last-value gauge with atomic set/add.
class Gauge {
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    void add(double delta) { detail::atomic_add(value_, delta); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram of non-negative values (latencies, loads,
/// sizes): each power-of-two octave splits into kSubBuckets linear
/// buckets, so any quantile estimate carries at most ~1/(2*kSubBuckets)
/// relative error. record() is a handful of relaxed atomic updates —
/// no locks, no allocation. Covers [2^kMinExp, 2^kMaxExp); values
/// outside clamp into the edge buckets.
class Histogram {
  public:
    static constexpr int kSubBuckets = 16;
    static constexpr int kMinExp = -40;  // lower edge ~9.1e-13
    static constexpr int kMaxExp = 40;   // upper edge ~1.1e12
    static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets;

    void record(double v) {
        buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        detail::atomic_add(sum_, v);
        detail::atomic_min(min_, v);
        detail::atomic_max(max_, v);
    }

    std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double min() const { return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
    double max() const { return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
    double mean() const { return count() == 0 ? 0.0 : sum() / static_cast<double>(count()); }

    /// Nearest-rank quantile estimated from the buckets (bucket midpoint,
    /// clamped into the observed [min, max]). q outside [0, 1] clamps.
    double percentile(double q) const;

    /// Bucket edges: bucket i covers [bucket_lower(i), bucket_upper(i)).
    static int bucket_index(double v);
    static double bucket_lower(int index);
    static double bucket_upper(int index) { return bucket_lower(index + 1); }

    /// Samples recorded into bucket `index` (test/exporter hook).
    std::int64_t bucket_count(int index) const {
        return buckets_[static_cast<std::size_t>(index)].load(std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
    std::atomic<std::int64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{1e300};
    std::atomic<double> max_{-1e300};
};

/// Per-disk I/O accounting bundle. The executor's submission queues are
/// its one writer: they count each device call once, from the call's own
/// result. All pointers may be null: an unattached bundle pays a few
/// branches per call. Latency is only taken when the matching histogram
/// is attached.
struct IoStats {
    Counter* read_ops = nullptr;
    Counter* read_bytes = nullptr;
    Histogram* read_seconds = nullptr;
    Counter* write_ops = nullptr;
    Counter* write_bytes = nullptr;
    Histogram* write_seconds = nullptr;
    // Failed ops and the bytes they attempted — degraded-mode error rates
    // (ecfrm_store_io_errors_total / ecfrm_store_io_error_bytes_total).
    Counter* read_errors = nullptr;
    Counter* read_error_bytes = nullptr;
    Counter* write_errors = nullptr;
    Counter* write_error_bytes = nullptr;
    // Live per-device queue depth: ops issued but not yet settled
    // (ecfrm_disk_in_flight_ops). Incremented at issue, decremented at
    // settle whether the op succeeded or failed.
    Gauge* in_flight = nullptr;

    void on_issue(std::int64_t ops = 1) const {
        if (in_flight != nullptr) in_flight->add(static_cast<double>(ops));
    }
    void on_settled(std::int64_t ops = 1) const {
        if (in_flight != nullptr) in_flight->add(-static_cast<double>(ops));
    }
    /// One device call of `ops` ops, `op_bytes` each, settled: its
    /// `landed` leading ops are served I/O, sharing the call's `seconds`
    /// evenly in the latency histogram, and with `failed` the op after
    /// them is one error with its bytes. Ops past that were not counted
    /// as either.
    void on_call(bool read, std::int64_t ops, std::int64_t landed, bool failed,
                 std::int64_t op_bytes, double seconds) const;
    bool timed(bool read) const { return (read ? read_seconds : write_seconds) != nullptr; }
};

enum class MetricKind { counter, gauge, histogram };

/// One registered metric: (name, canonical labels, kind, instance).
struct MetricEntry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
};

/// Owns every metric of one process/component. Lookups are keyed on
/// (kind, name, sorted labels); repeated lookups return the same
/// instance, whose address stays stable for the registry's lifetime.
class MetricRegistry {
  public:
    explicit MetricRegistry(std::string name = "ecfrm") : name_(std::move(name)) {}

    MetricRegistry(const MetricRegistry&) = delete;
    MetricRegistry& operator=(const MetricRegistry&) = delete;

    const std::string& name() const { return name_; }

    Counter& counter(const std::string& name, Labels labels = {});
    Gauge& gauge(const std::string& name, Labels labels = {});
    Histogram& histogram(const std::string& name, Labels labels = {});

    /// Attach a HELP string to a metric family (rendered as `# HELP` in
    /// the Prometheus exposition). Later calls overwrite.
    void describe(const std::string& name, std::string help);

    /// HELP string for a family ("" when none was set).
    std::string help(const std::string& name) const;

    /// Per-disk I/O bundle under the ecfrm_disk_* / ecfrm_store_* family.
    IoStats disk_io_stats(int disk);

    std::size_t size() const;

    /// Snapshot of every entry, in registration order (exporters walk
    /// this; the metric pointers stay valid while the registry lives).
    std::vector<const MetricEntry*> entries() const;

    /// Exporters. JSON is newline-delimited (one object per metric);
    /// Prometheus is the text exposition format (histograms as
    /// summaries); console is an aligned human-readable table.
    std::string to_json() const;
    std::string to_prometheus() const;
    std::string to_console() const;

  private:
    MetricEntry& entry(MetricKind kind, const std::string& name, Labels labels);

    std::string name_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<MetricEntry>> entries_;
    std::map<std::string, MetricEntry*> index_;
    std::map<std::string, std::string> help_;
};

/// Escape a string for a JSON string literal (quotes not included).
std::string json_escape(const std::string& s);

/// Escape a Prometheus label value (backslash, quote, newline).
std::string prometheus_escape(const std::string& s);

}  // namespace ecfrm::obs

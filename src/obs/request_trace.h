// Per-request forensics: causal span trees with trace-context
// propagation, per-class sliding SLO windows, and a bounded exemplar
// store. This is the store's one tracer.
//
// Every StripeStore request — read, write, scrub, and each rebuild round
// — and every ClusterSim or ecfrm_sim request gets a RequestTrace with a
// unique id. The execution path appends a causal tree under it (plan ->
// per-disk batch -> retry -> backoff -> hedge decode -> replan -> decode
// -> assemble, or -> write), and RequestForensics aggregates finished
// traces into windowed percentiles and SLO burn rates per request class.
// Requests that breach a latency threshold or that needed recovery
// (retry/timeout/hedge/replan) keep their full tree in a bounded FIFO
// exemplar store, exportable as NDJSON, as one request's chrome://tracing
// document, or as one document of every held request (a threshold of 0
// keeps them all: the CLI's --trace-out).
//
// Thread safety: a RequestTrace may be appended to from hedge/pool
// threads concurrently (one mutex per trace); RequestForensics is fully
// thread-safe. Two clock domains are supported: wall-clock callers use
// the start()/finish() overloads (a process-wide steady epoch), the
// simulators pass explicit microsecond timestamps.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/window.h"

namespace ecfrm::obs {

/// Microseconds on the process-wide forensic steady-clock epoch (set the
/// first time anything asks). All wall-clock traces share it so their
/// timestamps are mutually comparable.
double forensic_now_us();

enum class RequestClass { normal = 0, degraded = 1, scrub = 2, write = 3, rebuild = 4 };
inline constexpr int kRequestClasses = 5;

const char* request_class_name(RequestClass cls);

/// One node of a request's span tree. Nodes are identified by 1-based
/// ids (0 = no parent, i.e. the root); `seq` is the per-trace append
/// order and `tid` the recording thread, so spans landed by hedge/pool
/// threads stay orderable and attributable after the fact.
///
/// `attrs` is populated on RequestTrace::nodes() snapshots; internally
/// attributes live in one per-trace arena so the hot path never pays a
/// per-span vector allocation.
struct SpanNode {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    double ts_us = 0.0;
    double dur_us = -1.0;  // -1 while the span is still open
    std::uint64_t tid = 0;
    std::uint64_t seq = 0;
    std::vector<std::pair<std::string, std::string>> attrs;
};

/// The causal span tree of one request. Created by RequestForensics and
/// handed down the execution path by pointer; a null pointer anywhere
/// means "not traced" and every operation is a cheap no-op branch at the
/// call site.
class RequestTrace {
  public:
    /// Id of the root span ("request"), created by the constructor.
    static constexpr std::uint32_t kRoot = 1;

    RequestTrace(std::uint64_t id, RequestClass cls, double start_us,
                 std::size_t max_nodes = 512);

    RequestTrace(const RequestTrace&) = delete;
    RequestTrace& operator=(const RequestTrace&) = delete;

    std::uint64_t id() const { return id_; }
    double start_us() const { return start_us_; }

    RequestClass cls() const { return cls_.load(std::memory_order_relaxed); }
    /// Reclassify mid-flight (a normal read that replans is degraded).
    void set_class(RequestClass cls) { cls_.store(cls, std::memory_order_relaxed); }

    /// Attributes for the batched append paths below. Keys must be
    /// string literals (or otherwise outlive the call).
    using IntAttr = std::pair<const char*, std::int64_t>;
    using StrAttr = std::pair<const char*, std::string>;

    /// Open a child span of `parent` at `ts_us` (defaults to the wall
    /// clock). Returns the new span's id, or 0 when the node budget is
    /// exhausted (the drop is counted; attr/end on id 0 are no-ops).
    std::uint32_t begin(std::uint32_t parent, std::string name, double ts_us = -1.0);

    /// Open a phase span (direct child of the root) whose start is pinned
    /// to the previous phase's end — the trace start for the first — so
    /// consecutive phases tile the request with no sampling gap even when
    /// the thread is preempted between two spans. Initial attributes land
    /// in the same lock round-trip as the span itself.
    std::uint32_t begin_phase(std::string name, std::initializer_list<IntAttr> attrs = {});

    /// End timestamp of the last closed root-child span (the trace start
    /// until one closes). Callers finishing a request on the phase
    /// boundary pass this to RequestForensics::finish_at so the root span
    /// ends exactly where its last phase did.
    double phase_cursor_us() const;

    /// Close an open span at `ts_us` (defaults to the wall clock).
    void end(std::uint32_t span, double ts_us = -1.0);

    /// Close an open span and attach integer attributes, one lock
    /// round-trip for the whole batch.
    void end_with(std::uint32_t span, std::initializer_list<IntAttr> attrs, double ts_us = -1.0);

    /// Record an already-measured span in one call. The integer overload
    /// is the hot one: values stay integers until a snapshot formats
    /// them.
    std::uint32_t complete(std::uint32_t parent, std::string name, double ts_us, double dur_us,
                           std::initializer_list<StrAttr> attrs = {});
    std::uint32_t complete(std::uint32_t parent, std::string name, double ts_us, double dur_us,
                           std::initializer_list<IntAttr> attrs);

    /// Attach a typed attribute to a span (disk id, attempt, bytes,
    /// error, ...).
    void attr(std::uint32_t span, const char* key, std::string value);
    void attr(std::uint32_t span, const char* key, std::int64_t value);
    /// Attach several integer attributes under one lock acquisition.
    void attr_all(std::uint32_t span, std::initializer_list<IntAttr> attrs);

    /// Recovery accounting, mirrored from the executor's counters but
    /// scoped to this request — the capture policy keys off these.
    void count_retry() { retries_.fetch_add(1, std::memory_order_relaxed); }
    void count_timeout() { timeouts_.fetch_add(1, std::memory_order_relaxed); }
    void count_hedge() { hedges_.fetch_add(1, std::memory_order_relaxed); }
    void count_replan() { replans_.fetch_add(1, std::memory_order_relaxed); }
    void add_decodes(std::int64_t n) { decodes_.fetch_add(n, std::memory_order_relaxed); }

    int retries() const { return retries_.load(std::memory_order_relaxed); }
    int timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
    int hedges() const { return hedges_.load(std::memory_order_relaxed); }
    int replans() const { return replans_.load(std::memory_order_relaxed); }
    std::int64_t decodes() const { return decodes_.load(std::memory_order_relaxed); }

    /// True when the recovery ladder did anything beyond the clean path.
    bool recovery_active() const {
        return retries() > 0 || timeouts() > 0 || hedges() > 0 || replans() > 0;
    }

    /// Close the root span (and any still-open children) and freeze the
    /// outcome. Idempotent.
    void finish(bool ok, double end_us = -1.0);

    /// Finish and hand back the per-phase attribution in the same lock
    /// round-trip — the RequestForensics sink path, which would otherwise
    /// re-lock for the totals. Returns false (totals untouched) when the
    /// trace was already finished by someone else.
    bool finish_with_totals(bool ok, double end_us,
                            std::vector<std::pair<std::string, double>>& totals);

    bool finished() const { return finished_.load(std::memory_order_acquire); }
    bool ok() const { return ok_.load(std::memory_order_relaxed); }
    /// End-to-end duration (0 until finished).
    double dur_us() const;

    /// Spans appended so far (snapshot, in seq order).
    std::vector<SpanNode> nodes() const;
    std::size_t node_count() const;
    /// Spans rejected by the per-trace node budget.
    std::size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

    /// Phase attribution: total closed duration of the root's direct
    /// children, merged by name in first-appearance order. The execution
    /// path records those children contiguously, so their sum tracks the
    /// request's end-to-end latency.
    std::vector<std::pair<std::string, double>> phase_totals() const;

    /// This request as a standalone chrome://tracing document: one
    /// complete event per span, `pid` = request id, `cat` = class name.
    std::string chrome_json() const;

    /// One-line JSON object: id/class/timing/recovery counters/phase
    /// breakdown, plus the full span tree when `include_spans`.
    std::string json(bool include_spans) const;

  private:
    /// One attribute in the per-trace arena: attrs of every span live in
    /// a single growing vector instead of one heap vector per node. Keys
    /// are literal pointers and integer values stay integers until a
    /// nodes() snapshot renders them, so the hot path never formats.
    struct AttrRec {
        std::uint32_t span;
        const char* key;
        std::int64_t ival;
        std::string sval;
        bool is_int;
    };

    // All require mu_ held.
    std::uint32_t append_locked(std::uint32_t parent, std::string&& name, double ts_us);
    void attr_locked(std::uint32_t span, const char* key, std::string&& value);
    void attr_locked(std::uint32_t span, const char* key, std::int64_t value);
    std::vector<std::pair<std::string, double>> phase_totals_locked() const;

    const std::uint64_t id_;
    const double start_us_;
    const std::size_t max_nodes_;
    std::atomic<RequestClass> cls_;

    mutable std::mutex mu_;
    std::vector<SpanNode> nodes_;    // guarded by mu_; node id = index + 1
    std::vector<AttrRec> attrs_;     // guarded by mu_; append order
    double end_us_ = -1.0;           // guarded by mu_
    double phase_cursor_us_ = 0.0;   // guarded by mu_; last root-child end

    std::atomic<std::size_t> dropped_{0};
    std::atomic<int> retries_{0};
    std::atomic<int> timeouts_{0};
    std::atomic<int> hedges_{0};
    std::atomic<int> replans_{0};
    std::atomic<std::int64_t> decodes_{0};
    std::atomic<bool> finished_{false};
    std::atomic<bool> ok_{false};
};

/// Tunables for RequestForensics. Defaults suit an interactive store:
/// one-minute windows, capture anything over 100 ms or that needed
/// recovery, keep the last 128 exemplars.
struct ForensicsOptions {
    double window_seconds = 60.0;
    int sub_windows = 6;
    /// Finished requests at or above this latency are captured even when
    /// the recovery ladder stayed cold. <0 disables the latency trigger.
    double slow_threshold_us = 100000.0;
    /// Exemplar store bound (FIFO eviction).
    std::size_t max_exemplars = 128;
    /// Span budget per trace.
    std::size_t max_nodes = 512;
    /// SLO: `slo_objective` of requests under `slo_target_us`.
    double slo_target_us = 100000.0;
    double slo_objective = 0.99;
};

/// Owns the per-class windows/SLOs and the slow-request exemplar store;
/// the factory and sink for every RequestTrace.
class RequestForensics {
  public:
    explicit RequestForensics(ForensicsOptions options = {});

    RequestForensics(const RequestForensics&) = delete;
    RequestForensics& operator=(const RequestForensics&) = delete;

    const ForensicsOptions& options() const { return options_; }

    double now_us() const { return forensic_now_us(); }

    /// Begin a request on the wall clock / at an explicit timestamp.
    std::shared_ptr<RequestTrace> start(RequestClass cls);
    std::shared_ptr<RequestTrace> start_at(RequestClass cls, double ts_us);

    /// Finish a request: close its tree, fold it into the class window,
    /// SLO tracker and cumulative phase totals, and capture it when slow
    /// or recovery-active. Null/already-finished traces are ignored.
    void finish(const std::shared_ptr<RequestTrace>& trace, bool ok);
    void finish_at(const std::shared_ptr<RequestTrace>& trace, bool ok, double end_us);

    /// Requests finished per class (lifetime).
    std::int64_t finished_total(RequestClass cls) const;

    /// Windowed latency quantile for a class at `now_us` (defaults to
    /// the wall clock).
    double windowed_percentile(RequestClass cls, double q, double now_us = -1.0) const;

    SloTracker::Snapshot slo_snapshot(RequestClass cls, double now_us = -1.0) const;

    /// Cumulative per-phase attribution for a class since construction,
    /// microseconds, merged by phase name.
    std::vector<std::pair<std::string, double>> phase_totals(RequestClass cls) const;

    /// Exemplars currently held / evicted so far.
    std::size_t captured() const;
    std::size_t evicted() const;

    /// Look up a captured request by id (null when never captured or
    /// already evicted).
    std::shared_ptr<const RequestTrace> find(std::uint64_t id) const;

    /// Captured traces, oldest first.
    std::vector<std::shared_ptr<const RequestTrace>> exemplars() const;

    /// "ecfrm.slo.v1": per-class windowed p50/p99/p999, counts, target
    /// and burn rates, evaluated at `now_us` (wall clock by default).
    std::string slo_json(double now_us = -1.0) const;

    /// "ecfrm.slow.v1": summaries of every captured request, oldest
    /// first (no span trees — fetch /requests/<id> for one).
    std::string slow_json() const;

    /// One captured request per line, full span tree included.
    std::string slowlog_ndjson() const;

    /// Every captured request in one chrome://tracing array, oldest
    /// first, each event formatted as in RequestTrace::chrome_json (so
    /// each request is its own `pid`).
    std::string chrome_json() const;

  private:
    struct PerClass {
        PerClass(const ForensicsOptions& o)
            : window(o.window_seconds, o.sub_windows),
              slo(SloTracker::Options{o.slo_target_us, o.slo_objective, o.window_seconds,
                                      o.sub_windows}) {}
        WindowedHistogram window;
        SloTracker slo;
        std::atomic<std::int64_t> finished{0};
        mutable std::mutex phase_mu;
        std::vector<std::pair<std::string, double>> phase_totals;  // guarded by phase_mu
    };

    PerClass& per_class(RequestClass cls) {
        return *classes_[static_cast<std::size_t>(cls)];
    }
    const PerClass& per_class(RequestClass cls) const {
        return *classes_[static_cast<std::size_t>(cls)];
    }

    ForensicsOptions options_;
    std::atomic<std::uint64_t> next_id_{1};
    std::vector<std::unique_ptr<PerClass>> classes_;

    mutable std::mutex exemplar_mu_;
    std::deque<std::shared_ptr<RequestTrace>> exemplars_;  // guarded by exemplar_mu_
    std::size_t evicted_ = 0;                              // guarded by exemplar_mu_
};

}  // namespace ecfrm::obs

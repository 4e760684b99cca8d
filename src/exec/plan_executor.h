// exec::PlanExecutor: the request-execution engine between the planners
// (core) and the devices (store). It owns the machinery that used to be
// inlined in StripeStore::execute_read:
//
//   - per-disk submission queues: each AccessPlan::DiskBatch is issued as
//     chunked vectored read_batch calls with a bounded in-flight depth
//     (RecoveryOptions::batch_elements), one queue per disk, all driven by
//     one submit/reap loop — on a thread pool when one is attached,
//     overlapped on async devices when not;
//   - the self-healing policy: bounded retries with exponential backoff,
//     per-op timeout detection, hedged reads that decode a straggling
//     disk's elements from the others, and mid-flight degraded replans
//     that reuse every element already fetched;
//   - the decode stage that materialises lost elements from a plan's
//     repair recipes.
//
// The same engine serves the normal/degraded read path (fetch + decode),
// reconstruction (rebuild_element), and scrub/verify (read_group), so all
// three share one I/O policy. All methods are thread-safe: N readers may
// call fetch() concurrently, and recovery options / observability can be
// swapped while requests are in flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/buffer_pool.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/access_plan.h"
#include "core/scheme.h"
#include "core/write_plan.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "store/block_device.h"

namespace ecfrm::exec {

/// Self-healing knobs for the device I/O paths. Defaults are inert
/// (no timeouts, no backoff sleeps, no hedging) so clean-path behaviour
/// and benchmarks are unchanged until a caller opts in.
struct RecoveryOptions {
    /// Same-device retries after a transient I/O error (0 disables).
    int max_retries = 2;
    /// Base backoff before retry r: backoff_ms * 2^r (0: retry immediately).
    double backoff_ms = 0.0;
    /// >0: ops slower than this surface as Error::timeout — the payload is
    /// discarded and the read path routes around the slow device instead
    /// of retrying it. (Per-op deadlines need per-op timing, so timed
    /// queues issue elements singly instead of as vectored batches.)
    double op_timeout_ms = 0.0;
    /// >0 (needs a thread pool): when the slowest fetch queue is still
    /// outstanding after this deadline, hedge its elements by decoding
    /// them from the other disks instead of waiting.
    double hedge_ms = 0.0;
    /// Adaptive hedging (needs a thread pool and an attached
    /// DiskHeatModel): derive the hedge deadline per fetch round from the
    /// participating disks' live windowed p99 latency —
    /// auto_hedge_factor * median(p99), floored at auto_hedge_min_ms —
    /// instead of the static hedge_ms. Until the heat window has enough
    /// samples the static hedge_ms (possibly 0 = no hedging) applies.
    bool auto_hedge = false;
    double auto_hedge_factor = 3.0;
    double auto_hedge_min_ms = 0.5;
    /// Degraded-read replans allowed per read as newly-misbehaving disks
    /// are discovered mid-flight.
    int max_replans = 2;
    /// Bounded in-flight depth of a per-disk submission queue: at most
    /// this many elements ride in one vectored read_batch call (<=0:
    /// unbounded, the whole queue goes down in one call).
    int batch_elements = 32;
};

/// Executor-owned recovery/decode counters (all optional). Bundled so the
/// whole set swaps atomically while requests are in flight.
struct ExecutorMetrics {
    obs::Counter* retries = nullptr;
    obs::Counter* timeouts = nullptr;
    obs::Counter* replans = nullptr;
    obs::Counter* hedged_reads = nullptr;
    obs::Counter* decodes = nullptr;
    obs::Counter* writes = nullptr;           // elements written via write()
    obs::Counter* degraded_writes = nullptr;  // elements skipped on failed devices
};

/// Request-trace context threaded down the execution pipeline: the
/// per-request span tree (null = untraced, every use is a branch) and
/// the span id to parent recovery detail under. Passed by value — it is
/// two words.
struct TraceCtx {
    obs::RequestTrace* rt = nullptr;
    std::uint32_t parent = 0;
};

class PlanExecutor {
  public:
    /// Identity of one stored element in candidate-code coordinates.
    using Key = std::tuple<StripeId, int, int>;
    /// Elements held by a request (fetched, hedged or decoded). ElementBuf
    /// is either pool/heap-owned staging or an external view of caller
    /// memory (the zero-copy path).
    using ElementMap = std::map<Key, ElementBuf>;
    /// Zero-copy destination oracle: given an element key, return the
    /// caller buffer it should land in, or an empty span to use executor
    /// staging. Healthy-path data elements resolve to the user's output
    /// buffer, so fetch and decode write them in place and assembly skips
    /// its copy. Hedged rounds ignore the sink (a straggling queue task
    /// must own buffers that can outlive the requesting frame); a
    /// timed-out or failed op may have scribbled on its sink span, which
    /// is safe because the element is not marked fetched and recovery
    /// overwrites the span.
    using Sink = std::function<ByteSpan(const Key&)>;
    /// Produces the plan for the current exclusion set. Called once up
    /// front and once per replan round; planning failures abort the fetch.
    using Replanner = std::function<Result<core::AccessPlan>(const std::vector<DiskId>&)>;

    /// `scheme` must outlive the executor; `pool` may be null (serial
    /// execution, deterministic disk order).
    PlanExecutor(const core::Scheme* scheme, std::int64_t element_bytes, ThreadPool* pool)
        : scheme_(scheme), element_bytes_(element_bytes), pool_(pool) {}

    ~PlanExecutor() { drain_orphans(); }

    /// Block until every pool task the executor dispatched has completed,
    /// in particular orphaned hedge queues (straggling per-disk fetches
    /// abandoned at their hedge deadline, still finishing on the pool).
    /// Owners of anything those queues touch — the devices, an attached
    /// heat model or metric registry — must call this before tearing that
    /// dependency down; attach() and the destructor do so automatically.
    void drain_orphans() const {
        std::unique_lock<std::mutex> lock(orphan_mu_);
        orphan_cv_.wait(lock, [&] { return orphans_ == 0; });
    }

    /// (Re)bind the devices the executor issues I/O against, indexed by
    /// DiskId. Pointers must stay valid until the next bind.
    void bind(std::vector<store::BlockDevice*> devices) { devices_ = std::move(devices); }

    /// Pooled arena for element staging buffers (null: plain heap). Must
    /// outlive every request, including orphaned hedge queues — pass a
    /// process-lifetime pool (store::element_arena) or drain_orphans()
    /// before freeing it. When the devices are uring-backed and the same
    /// pool is registered with their rings, staging reads become
    /// registered-buffer fixed reads.
    void set_buffer_pool(BufferPool* pool) { buffer_pool_ = pool; }

    void set_recovery(const RecoveryOptions& options) {
        std::lock_guard<std::mutex> lock(opts_mu_);
        recovery_ = options;
    }
    RecoveryOptions recovery() const {
        std::lock_guard<std::mutex> lock(opts_mu_);
        return recovery_;
    }

    /// Swap the observability sinks; race-free against in-flight requests
    /// (atomic bundle publication, retired bundles live until the executor
    /// is destroyed). `heat`, when given, is fed per-queue issue/complete
    /// samples and per-request max batch loads, and powers auto_hedge.
    /// Blocks until orphaned hedge queues still holding the previous sinks
    /// have drained, so the caller may free those sinks on return.
    void attach(const ExecutorMetrics& metrics, obs::Tracer* tracer,
                obs::DiskHeatModel* heat = nullptr) {
        auto bundle = std::make_unique<const ExecutorMetrics>(metrics);
        const ExecutorMetrics* fresh = bundle.get();
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            retired_.push_back(std::move(bundle));
        }
        metrics_.store(fresh, std::memory_order_release);
        tracer_.store(tracer, std::memory_order_release);
        heat_.store(heat, std::memory_order_release);
        drain_orphans();
    }

    static Key key_of(const layout::GroupCoord& c) { return {c.stripe, c.group, c.position}; }

    /// Everything a completed fetch pipeline hands back: the plan that
    /// finally completed (after any replans), every element it fetched or
    /// hedge-decoded, and the exclusion set as grown by mid-flight
    /// discoveries.
    struct FetchResult {
        core::AccessPlan plan;
        ElementMap elements;
        std::vector<DiskId> excluded;
    };

    /// Run the fetch pipeline: plan via `replan`, issue per-disk queues,
    /// retry/hedge per policy, and replan around disks that misbehave
    /// mid-flight — reusing every element already in hand. Fails with the
    /// last typed device error when recovery is exhausted.
    ///
    /// When `rt` is given, the pipeline appends its causal tree to the
    /// request: contiguous `plan`/`fetch` phase spans per round directly
    /// under the root (so phase durations tile the request), with
    /// per-disk batches, retries, backoff waits, timeouts and hedge
    /// decodes as children of the round's fetch span. Safe across pool
    /// and hedge threads.
    /// `sink`, when given, routes elements straight into caller memory
    /// (see Sink).
    ///
    /// Each round is one submit/reap loop. It starts every disk's queue:
    /// on the pool when one is attached, otherwise in place — devices
    /// whose async_reads() is true get their first chunk in flight before
    /// any queue is awaited (cross-disk overlap from one thread), and the
    /// rest run inline. It then reaps the queues (in completion order on
    /// the pool, submission order without) through one epilogue that
    /// records their spans, keeps their elements, and runs decode recipes
    /// eagerly as their sources land. A hedge deadline bounds the reap:
    /// queues still out when it passes are decoded around and abandoned.
    Result<FetchResult> fetch(const Replanner& replan, std::vector<DiskId> excluded,
                              obs::RequestTrace* rt = nullptr, const Sink& sink = {}) const;

    /// Run the plan's decode recipes, materialising each missing element
    /// into `elements` from sources already present there. `tc` hangs a
    /// `decode.element` span per recipe under the caller's span.
    /// Recipes whose target is already present (e.g. decoded eagerly
    /// during fetch) are skipped; `sink` routes freshly decoded targets
    /// into caller memory.
    Status decode(const core::AccessPlan& plan, ElementMap& elements, TraceCtx tc = {},
                  const Sink& sink = {}) const;

    /// Rebuild one element into `target` from group sources living on
    /// disks not marked in `avoid` (indexed by DiskId), using policy
    /// reads. Returns the number of source elements read. Reconstruction
    /// and hedged reads both use it.
    Result<std::int64_t> rebuild_element(const layout::GroupCoord& coord,
                                         const std::vector<char>& avoid, ByteSpan target) const;

    /// Read every element of one group into bufs[position] (n spans of
    /// element_bytes), batched per disk. Raw device reads: no retry or
    /// timeout policy — callers (scrub, verify) want the device's first
    /// answer.
    Status read_group(StripeId stripe, int group, std::span<const ByteSpan> bufs) const;

    /// Outcome of one executed write plan.
    struct WriteReport {
        std::int64_t elements_written = 0;
        /// Degraded writes: placements whose device is failed are skipped —
        /// the element stays recoverable through its group's parity, and
        /// reconstruction restores it onto the replacement device.
        std::int64_t elements_skipped = 0;
    };

    /// Execute a write plan: one submission queue per disk, each issued as
    /// chunked vectored write_batch calls (RecoveryOptions::batch_elements
    /// deep), in parallel across disks when a thread pool is attached.
    /// `payloads[w.payload]` supplies the bytes of each placement `w`, so
    /// one payload may back many placements (replication) and payload
    /// order is independent of submission order. Transient errors retry
    /// with backoff under the same policy as reads (a retry rewrites the
    /// full payload, healing torn writes). With `allow_degraded`, a failed
    /// device's remaining placements are skipped and counted instead of
    /// failing the plan. `tc` hangs per-disk `disk.write_batch` spans (and
    /// retry/backoff detail) under the caller's span.
    Result<WriteReport> write(const core::WritePlan& plan,
                              std::span<const ConstByteSpan> payloads, TraceCtx tc = {},
                              bool allow_degraded = true) const;

    /// Device read with per-op timeout detection and bounded retries on
    /// transient errors. On timeout the payload is discarded and
    /// Error::timeout is returned (the caller routes around the device).
    Status device_read(DiskId disk, RowId row, ByteSpan out) const;
    /// Device write with bounded retries on transient errors (a retry
    /// rewrites the full payload, healing torn writes).
    Status device_write(DiskId disk, RowId row, ConstByteSpan data) const;

  private:
    const ExecutorMetrics& metrics() const { return *metrics_.load(std::memory_order_acquire); }
    obs::Tracer* tracer() const { return tracer_.load(std::memory_order_acquire); }
    obs::DiskHeatModel* heat() const { return heat_.load(std::memory_order_acquire); }

    Status read_with_policy(DiskId disk, RowId row, ByteSpan out, const RecoveryOptions& opts,
                            TraceCtx tc = {}) const;

    /// The chunk, suffix-retry and traced-backoff loop of one per-disk
    /// submission queue, reads and writes alike: `chunk(offset, n,
    /// &completed)` issues rows[offset, offset + n) as one vectored device
    /// call, opts.batch_elements deep, and `single(j)` re-issues op j
    /// alone. A transient failure retries just the failing op under the
    /// policy (its in-chunk failure was attempt zero) and chunking resumes
    /// behind it. `*done` counts ops that landed (also on failure).
    template <typename Chunk, typename Single>
    Status submit_queue(DiskId disk, std::span<const RowId> rows, const RecoveryOptions& opts,
                        std::size_t* done, TraceCtx tc, Chunk&& chunk, Single&& single) const;

    /// Decode engine behind decode(): with `partial`, recipes whose
    /// sources are not all present are skipped instead of failing (the
    /// eager pass as per-disk completions arrive).
    Status try_decode(const core::AccessPlan& plan, ElementMap& elements, bool partial,
                      TraceCtx tc, const Sink& sink) const;

    /// Staging or zero-copy storage for `key` per the sink contract.
    ElementBuf make_element(const Key& key, const Sink& sink) const {
        if (sink) {
            const ByteSpan dest = sink(key);
            if (dest.size() == static_cast<std::size_t>(element_bytes_)) {
                return ElementBuf::external(dest);
            }
        }
        return ElementBuf::alloc(static_cast<std::size_t>(element_bytes_), buffer_pool_);
    }

    /// One round of per-disk submission queues — a fetch round's reads or
    /// a write plan's writes — with the elements laid out flat: queue q
    /// owns [q.begin, q.end) of rows and of outs/keys/bufs (reads) or data
    /// (writes). Heap-allocated and co-owned by every pool task working
    /// on it, so a hedged round can return at its deadline without
    /// joining a straggler: the orphaned task finishes against this state
    /// and its late payload dies with the last reference.
    struct Round {
        struct Queue {
            DiskId disk = -1;
            std::size_t begin = 0;
            std::size_t end = 0;
            /// In-place reads on an async device: the first chunk, in flight.
            std::unique_ptr<store::BlockDevice::AsyncBatch> batch;
            Status status = Status::success();
            std::size_t done = 0;   // leading ops that landed
            double issue_us = 0.0;  // forensic clock; these three only when timed
            double trace_us = 0.0;  // tracer clock
            double dur_us = 0.0;
            bool finished = false;  // guarded by mu when a pool is attached
            bool reaped = false;    // touched by the requesting thread only
        };
        RecoveryOptions opts;
        obs::DiskHeatModel* heat = nullptr;  // fed as queues issue and finish
        bool timed = false;  // a trace, tracer or heat model wants queue timings
        std::vector<RowId> rows;
        std::vector<ByteSpan> outs;       // reads: destination of rows[i]
        std::vector<Key> keys;            // reads: identity of rows[i]
        std::vector<ElementBuf> bufs;     // reads: storage behind outs[i]
        std::vector<ConstByteSpan> data;  // writes: payload of rows[i]
        std::vector<Queue> queues;
        std::atomic<std::size_t> next{0};  // next queue for a pool task to claim
        std::mutex mu;
        std::condition_variable cv;
    };

    /// Start every queue of `r`. With a pool, tasks claim queues off
    /// r.next; `join` makes this thread claim queues too (nesting-safe:
    /// a caller that blocks on the round also works it). Without a pool,
    /// queues start in place: an async device's first read chunk goes in
    /// flight, to be finished at reap; every other queue runs to
    /// completion here.
    void start_round(const std::shared_ptr<Round>& r, TraceCtx tc, bool join) const;
    /// Issue queue `a`: clocks and heat, then either put its first chunk
    /// in flight (no pool, reads, async device, no per-op timeout) or run
    /// it to completion.
    void start_queue(Round& r, std::size_t a, TraceCtx tc) const;
    /// Run queue `a` to completion (awaiting its in-flight chunk, if
    /// any), feed the heat model, and mark it finished.
    void finish_queue(Round& r, std::size_t a, TraceCtx tc) const;
    /// A fetch round's hedge deadline passed: rebuild every element of
    /// the queues not yet reaped (the stragglers) into `fetched` from the
    /// other disks, avoiding the stragglers and `excluded`, instead of
    /// waiting.
    void hedge(const Round& r, const std::vector<DiskId>& excluded, ElementMap& fetched,
               TraceCtx tc, double deadline_ms, bool auto_deadline) const;
    /// Record queue `q`'s `name` span on the request trace.
    void trace_queue(TraceCtx tc, const char* name, const Round::Queue& q) const;

    void orphan_started() const {
        std::lock_guard<std::mutex> lock(orphan_mu_);
        ++orphans_;
    }
    void orphan_finished() const {
        std::lock_guard<std::mutex> lock(orphan_mu_);
        --orphans_;
        orphan_cv_.notify_all();
    }

    static const ExecutorMetrics* empty_metrics() {
        static const ExecutorMetrics none;
        return &none;
    }

    const core::Scheme* scheme_;
    std::int64_t element_bytes_;
    ThreadPool* pool_;
    std::vector<store::BlockDevice*> devices_;
    BufferPool* buffer_pool_ = nullptr;

    mutable std::mutex opts_mu_;  // guards recovery_
    RecoveryOptions recovery_;

    std::atomic<const ExecutorMetrics*> metrics_{empty_metrics()};
    std::mutex metrics_mu_;  // guards retired_
    std::vector<std::unique_ptr<const ExecutorMetrics>> retired_;
    std::atomic<obs::Tracer*> tracer_{nullptr};
    std::atomic<obs::DiskHeatModel*> heat_{nullptr};

    mutable std::mutex orphan_mu_;
    mutable std::condition_variable orphan_cv_;
    mutable std::int64_t orphans_ = 0;  // dispatched pool tasks not yet finished
};

}  // namespace ecfrm::exec

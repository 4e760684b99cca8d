// exec::PlanExecutor: the request-execution engine between the planners
// (core) and the devices (store). It owns the machinery that used to be
// inlined in StripeStore::execute_read:
//
//   - per-disk submission queues: each DiskBatch of a plan's PlanBatches
//     schedule — a read plan's or a write plan's — is issued as chunked
//     vectored read_batch or write_batch calls with a bounded in-flight
//     depth (RecoveryOptions::batch_elements), one queue per disk, all
//     driven by one submit/reap loop — on a thread pool when one is
//     attached, overlapped on async devices when not;
//   - the per-disk I/O account: every device call is counted once, by the
//     queue that made it (ops, bytes, latency, errors, in-flight depth);
//     devices count nothing;
//   - the self-healing policy: bounded immediate retries, and mid-flight
//     replans that reuse every element already fetched —
//     around a disk that failed or whose read call timed out, or around
//     the disks whose queues are late at a hedge deadline, timed from
//     each queue's own start (a hedge is a replan like any degraded one);
//   - the decode stage that materialises lost elements from a plan's
//     repair recipes.
//
// The same engine serves the normal/degraded read path and reconstruction
// — both plan, then run fetch + decode; a rebuild's plan decodes the lost
// disk's rows instead of a user's range — and the fixed read sets of an
// overwrite, scrub and verify_parity, which fetch without replanning. It
// is the one fetch path: every device read is a chunk of a fetch queue
// (submit_queue), so all of them share one I/O policy and every check on
// read bytes has one home. All methods are thread-safe: N
// readers may call fetch() concurrently, and recovery options /
// observability can be swapped while requests are in flight.
//
// Staging contract: element staging (arena slabs and their heap
// fallbacks) is handed out uninitialised and may hold another request's
// bytes. An element is published into a request's ElementTable only once
// a device read or a decode has written all of it; an op that failed or
// timed out is never marked fetched, so its partly written staging is
// never read.
//
// A request's metadata — plan, schedule, element table, submission round —
// lives in a RequestScratch that each reading thread leases (ScratchLease)
// and reuses request after request, so a steady-state healthy read
// allocates nothing below the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer_pool.h"
#include "common/function_ref.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "core/access_plan.h"
#include "core/read_planner.h"
#include "core/scheme.h"
#include "core/write_plan.h"
#include "exec/element_table.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/block_device.h"

namespace ecfrm::exec {

struct RequestScratch;

/// Self-healing knobs for the device I/O paths. Defaults are inert
/// (no timeouts, no hedging) so clean-path behaviour and benchmarks are
/// unchanged until a caller opts in.
struct RecoveryOptions {
    /// Same-device retries after a transient I/O error, each issued at
    /// once (0 disables).
    int max_retries = 2;
    /// >0: per-op read deadline. A vectored read call of k ops still out
    /// k * op_timeout_ms after it started surfaces as Error::timeout — its
    /// payload is discarded, its queue ends, and the read path routes
    /// around the slow device instead of retrying it. A timed queue's
    /// first call carries one op, so a stalled disk is found after one
    /// stalled op.
    double op_timeout_ms = 0.0;
    /// >0 (needs a thread pool): a fetch queue still out this long after its
    /// own start is late: replan the round around the late queues' disks
    /// and read and decode around them instead of waiting (or keep waiting
    /// when the code cannot plan around them).
    double hedge_ms = 0.0;
    /// Adaptive hedging (needs a thread pool and an attached
    /// DiskHeatModel): derive the hedge deadline per fetch round from the
    /// participating disks' live windowed p99 latency —
    /// 3 * median(p99), floored at auto_hedge_min_ms —
    /// instead of the static hedge_ms. Until the heat window has enough
    /// samples the static hedge_ms (possibly 0 = no hedging) applies.
    bool auto_hedge = false;
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
    /// Per-disk device-op accounting, indexed by DiskId.
    std::vector<obs::IoStats> disk_io;

    /// `disk`'s account, or null when it has none.
    const obs::IoStats* io(DiskId disk) const {
        const auto d = static_cast<std::size_t>(disk);
        return d < disk_io.size() ? &disk_io[d] : nullptr;
    }
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
    using Key = ElementTable::Key;
    /// Zero-copy destination oracle: given an element key, return the
    /// caller buffer it should land in, or an empty span to use executor
    /// staging. Healthy-path data elements resolve to the user's output
    /// buffer, so fetch and decode write them in place and assembly skips
    /// its copy. Rounds with a deadline on a pool ignore the sink (a late
    /// queue task must own buffers that can outlive the requesting frame);
    /// a timed-out or failed queue may have scribbled on its sink span, which
    /// is safe because the element is not marked fetched and recovery
    /// overwrites the span. Non-owning: the callable must outlive the call
    /// it is passed to.
    using Sink = FunctionRef<ByteSpan(const Key&)>;
    /// Produces the plan for the current exclusion set. Called once up
    /// front and once per replan round; planning failures abort the fetch.
    /// Planning fills the given plan (the scratch's, so its storage is
    /// reused).
    using Replanner = FunctionRef<Status(const std::vector<DiskId>&, core::AccessPlan&)>;

    /// `scheme` must outlive the executor; `pool` may be null (serial
    /// execution, deterministic disk order).
    PlanExecutor(const core::Scheme* scheme, std::int64_t element_bytes, ThreadPool* pool)
        : scheme_(scheme), element_bytes_(element_bytes), pool_(pool) {}

    ~PlanExecutor() { drain_orphans(); }

    /// Block until every pool task the executor dispatched has completed,
    /// in particular orphaned queues (per-disk fetches abandoned at a
    /// hedge or timeout deadline, still finishing on the pool).
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
    /// outlive every request, including orphaned queues — pass a
    /// process-lifetime pool (store::element_arena) or drain_orphans()
    /// before freeing it. When the devices are uring-backed and the same
    /// pool is registered with their rings, staging reads become
    /// registered-buffer fixed reads.
    void set_buffer_pool(BufferPool* pool) { buffer_pool_ = pool; }

    /// Publish new recovery options; race-free against in-flight
    /// requests, which keep the options they started with (retired
    /// bundles live until the executor is destroyed).
    void set_recovery(const RecoveryOptions& options) {
        auto bundle = std::make_unique<const RecoveryOptions>(options);
        const RecoveryOptions* fresh = bundle.get();
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            retired_recovery_.push_back(std::move(bundle));
        }
        recovery_.store(fresh, std::memory_order_release);
    }
    RecoveryOptions recovery() const { return options(); }

    /// Swap the observability sinks; race-free against in-flight requests
    /// (atomic bundle publication, retired bundles live until the executor
    /// is destroyed). `heat`, when given, is fed per-queue issue/complete
    /// samples and per-request max batch loads, and powers auto_hedge.
    /// Blocks until orphaned queues still holding the previous sinks
    /// have drained, so the caller may free those sinks on return.
    void attach(const ExecutorMetrics& metrics, obs::DiskHeatModel* heat = nullptr) {
        auto bundle = std::make_unique<const ExecutorMetrics>(metrics);
        const ExecutorMetrics* fresh = bundle.get();
        {
            std::lock_guard<std::mutex> lock(metrics_mu_);
            retired_.push_back(std::move(bundle));
        }
        metrics_.store(fresh, std::memory_order_release);
        heat_.store(heat, std::memory_order_release);
        drain_orphans();
    }

    static Key key_of(const layout::GroupCoord& c) { return {c.stripe, c.group, c.position}; }

    /// Run the fetch pipeline: plan via `replan` into s.plan, issue
    /// per-disk queues, retry per policy, and replan around disks that
    /// misbehave mid-flight or straggle past a hedge deadline — reusing
    /// every element already in hand. On success s.plan is the plan that
    /// finally completed (after any replans), s.elements holds every
    /// element it fetched or eagerly decoded (views of caller memory on
    /// the zero-copy path, else staging the table holds), s.excluded, the
    /// initial exclusion set, has grown by the disks that failed, and
    /// s.hedged names the disks hedged around. Fails with the last typed
    /// device error when recovery is exhausted.
    ///
    /// When `rt` is given, the pipeline appends its causal tree to the
    /// request: contiguous `plan`/`fetch` phase spans per round directly
    /// under the root (so phase durations tile the request), with
    /// per-disk batches, retries, timeouts, the hedge
    /// trigger and eager decodes as children of the round's fetch span.
    /// Safe across pool threads.
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
    /// eagerly as their sources land. A queue whose read call outlives
    /// its op_timeout_ms deadline fails with Error::timeout; on a pool the
    /// reaper gives up on the call at that deadline. A queue still out
    /// hedge_ms after its own start is late (one not yet started never
    /// is): `replan` plans around s.excluded plus the late queues' disks
    /// (s.hedged), the queues still in time are reaped, the rest are
    /// abandoned, and the next round fetches what that plan lacks. It
    /// counts no replan, and a straggler's element decoded in it is a
    /// hedged read, not a decode. A request hedges once; a refused hedge
    /// is tried again when the set of late queues changes.
    Status fetch(RequestScratch& s, Replanner replan, obs::RequestTrace* rt = nullptr,
                 Sink sink = {}) const;

    /// Run s.plan's decode recipes, materialising each missing element
    /// into s.elements from sources already present there. `tc` hangs a
    /// `decode.element` span per recipe under the caller's span. A
    /// decoded element whose disk is in s.hedged counts as a hedged read;
    /// every other one as a decode.
    /// Recipes whose target is already present (e.g. decoded eagerly
    /// during fetch) are skipped; `sink` routes freshly decoded targets
    /// into caller memory.
    Status decode(RequestScratch& s, TraceCtx tc = {}, Sink sink = {}) const;

    /// Outcome of one executed write plan.
    struct WriteReport {
        std::int64_t elements_written = 0;
        /// Degraded writes: placements whose device is failed are skipped —
        /// the element stays recoverable through its group's parity, and
        /// reconstruction restores it onto the replacement device.
        std::int64_t elements_skipped = 0;
    };

    /// Execute a write plan: one submission queue per batch of
    /// plan.batches(), each issued as chunked vectored write_batch calls
    /// (RecoveryOptions::batch_elements deep), in parallel across disks
    /// when a thread pool is attached.
    /// `payloads[w.payload]` supplies the bytes of each placement `w`, so
    /// one payload may back many placements (replication) and payload
    /// order is independent of submission order. Transient errors retry
    /// under the same policy as reads (a retry rewrites the full payload,
    /// healing torn writes). With `allow_degraded`, a failed device's
    /// remaining placements are skipped and counted instead of failing
    /// the plan. `tc` hangs per-disk `disk.write_batch` spans (and retry
    /// detail) under the caller's span.
    Result<WriteReport> write(const core::WritePlan& plan,
                              std::span<const ConstByteSpan> payloads, TraceCtx tc = {},
                              bool allow_degraded = true) const;

  private:
    friend struct RequestScratch;

    const ExecutorMetrics& metrics() const { return *metrics_.load(std::memory_order_acquire); }
    const RecoveryOptions& options() const { return *recovery_.load(std::memory_order_acquire); }
    obs::DiskHeatModel* heat() const { return heat_.load(std::memory_order_acquire); }

    /// Ops per vectored device call of a queue: opts.batch_elements, or
    /// the whole queue when that is <= 0.
    static std::size_t chunk_depth(const RecoveryOptions& opts) {
        return opts.batch_elements > 0 ? static_cast<std::size_t>(opts.batch_elements)
                                       : SIZE_MAX;
    }

    /// Decode engine behind decode(): with `partial`, recipes whose
    /// sources are not all present are skipped instead of failing (the
    /// eager pass as per-disk completions arrive).
    Status try_decode(RequestScratch& s, bool partial, TraceCtx tc, Sink sink) const;

    /// The caller's destination for `key` when `sink` routes it there,
    /// else an empty span.
    ByteSpan sink_for(const Key& key, Sink sink) const {
        const ByteSpan dest = sink ? sink(key) : ByteSpan{};
        return dest.size() == static_cast<std::size_t>(element_bytes_) ? dest : ByteSpan{};
    }

    /// One round of per-disk submission queues — a fetch round's reads or
    /// a write plan's writes — with the elements laid out flat: queue q
    /// owns [q.begin, q.end) of rows and of outs/elems/owned (reads) or
    /// data (writes). Heap-allocated and co-owned by every pool task
    /// working on it, so a round can return at a deadline
    /// without joining a straggler: the orphaned task finishes against
    /// this state and its late payload dies with the last reference. A
    /// request scratch keeps its round and reuses it while it is the sole
    /// owner (see next_round).
    struct Round {
        struct Queue {
            DiskId disk = -1;
            std::size_t begin = 0;
            std::size_t end = 0;
            /// In-place reads on an async device: the first chunk, in flight.
            std::unique_ptr<store::BlockDevice::AsyncBatch> batch;
            Status status = Status::success();
            std::size_t done = 0;   // leading ops that landed
            double issue_us = 0.0;  // forensic clock; with dur_us, only when timed
            double dur_us = 0.0;
            bool started = false;   // deadline rounds: issue_us is stamped (under mu)
            /// Timed reads on a pool, under mu: the deadline of the read
            /// call in flight (none between calls).
            double call_deadline_us = std::numeric_limits<double>::infinity();
            bool finished = false;  // guarded by mu when a pool is attached
            bool reaped = false;    // this and `late` (past the hedge deadline):
            bool late = false;      // touched by the requesting thread only
        };
        RecoveryOptions opts;
        const ExecutorMetrics* metrics = nullptr;  // counts the round's device calls
        obs::DiskHeatModel* heat = nullptr;        // fed as queues issue and finish
        /// A trace, heat model, deadline or latency histogram wants queue
        /// timings (an async first chunk's latency runs from issue_us).
        bool timed = false;
        bool deadline = false;  // the reaper times each started queue
        struct Elem {
            Key key;
            bool sunk = false;  // outs[i] is the caller's destination
        };
        std::vector<RowId> rows;
        std::vector<ByteSpan> outs;  // reads: destination of rows[i]
        std::vector<Elem> elems;     // reads: identity of rows[i]
        /// Reads with a deadline on a pool: the staging behind outs[i],
        /// owned by the round because a late queue may outlive the request.
        std::vector<PooledBuffer> owned;
        std::vector<ConstByteSpan> data;  // writes: payload of rows[i]
        std::vector<Queue> queues;
        std::atomic<std::size_t> next{0};  // next queue for a pool task to claim
        std::mutex mu;
        std::condition_variable cv;
    };

    /// `s`'s round, emptied for reuse — or a fresh one while a pool task
    /// (an orphaned late queue, say) still co-owns the last.
    static Round& next_round(RequestScratch& s);

    /// Start every queue of `r`. With a pool, tasks claim queues off
    /// r.next; `join` makes this thread claim queues too (nesting-safe:
    /// a caller that blocks on the round also works it). Without a pool,
    /// queues start in place: an async device's first read chunk goes in
    /// flight, to be finished at reap; every other queue runs to
    /// completion here.
    void start_round(const std::shared_ptr<Round>& r, TraceCtx tc, bool join) const;
    /// Issue queue `a`: start its clock and feed heat, then either put its
    /// first chunk in flight (no pool, reads, async device, no timeout, as
    /// the reaper waits on queues in order) or run it to completion.
    void start_queue(Round& r, std::size_t a, TraceCtx tc) const;
    /// Run queue `a` to completion (awaiting its in-flight chunk, if
    /// any), feed the heat model, and mark it finished.
    void finish_queue(Round& r, std::size_t a, TraceCtx tc) const;
    /// The chunk and suffix-retry loop of every per-disk submission
    /// queue, reads and writes, timed or not: issue queue `a`'s rows as
    /// vectored device calls chunk_depth(opts) ops deep (one op for a
    /// timed read queue's first call), the first awaiting the chunk
    /// start_queue put in flight, if any. A transient failure retries
    /// just the failing op, as a one-op call, under the policy (its
    /// in-chunk failure was attempt zero) and chunking resumes behind it.
    /// q.done counts ops that landed (also on failure).
    ///
    /// This is the one per-disk I/O account: each device call is counted
    /// into its disk's IoStats once, from the call's own result — before
    /// a call past its op_timeout_ms deadline becomes Error::timeout, so
    /// a late call's ops still count as served reads.
    Status submit_queue(Round& r, std::size_t a, TraceCtx tc) const;
    /// Plan into `plan` around s.excluded and s.hedged.
    static Status plan_around(RequestScratch& s, Replanner replan, core::AccessPlan& plan);
    /// Add the disks of the late queues not yet reaped (the stragglers)
    /// to s.hedged and plan around them. True when `replan` accepted,
    /// with the new plan in s.plan; false, with s.plan and s.hedged as
    /// they were, when it refused.
    bool hedge(const Round& r, RequestScratch& s, Replanner replan, TraceCtx tc,
               double deadline_ms, bool auto_deadline) const;
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
    static const RecoveryOptions* default_recovery() {
        static const RecoveryOptions defaults;
        return &defaults;
    }

    const core::Scheme* scheme_;
    std::int64_t element_bytes_;
    ThreadPool* pool_;
    std::vector<store::BlockDevice*> devices_;
    BufferPool* buffer_pool_ = nullptr;

    std::atomic<const RecoveryOptions*> recovery_{default_recovery()};
    std::atomic<const ExecutorMetrics*> metrics_{empty_metrics()};
    std::mutex metrics_mu_;  // guards retired_ and retired_recovery_
    std::vector<std::unique_ptr<const ExecutorMetrics>> retired_;
    std::vector<std::unique_ptr<const RecoveryOptions>> retired_recovery_;
    std::atomic<obs::DiskHeatModel*> heat_{nullptr};

    mutable std::mutex orphan_mu_;
    mutable std::condition_variable orphan_cv_;
    mutable std::int64_t orphans_ = 0;  // dispatched pool tasks not yet finished
};

/// The metadata one request needs from plan to assemble, kept per reading
/// thread (see ScratchLease) so each request reuses the last one's
/// capacity: a steady-state read, healthy or degraded, allocates none of
/// it, and neither does a rebuild round's fetch and decode. Element
/// bytes never live here — they sit in caller memory or arena staging
/// that the lease releases when it ends.
struct RequestScratch {
    core::AccessPlan plan;          // the current round's plan
    core::PlanBatches batches;      // its per-disk schedule
    core::PlanScratch planner;      // planner working memory and repair memo
    ElementTable elements;          // fetched and decoded elements
    std::vector<DiskId> excluded;   // unavailable or failed disks the plan routes around
    /// Disks a hedge routed around: slow, not failed, so never in
    /// `excluded`.
    std::vector<DiskId> hedged;
    std::vector<char> stragglers;   // heat-model straggler flags, per disk
    std::vector<ByteSpan> positions;  // decode: position-indexed spans

  private:
    friend class PlanExecutor;
    friend class ScratchLease;
    /// Empty the elements and the round, releasing their staging.
    void release();

    std::shared_ptr<PlanExecutor::Round> round;
    core::AccessPlan spare_plan;  // a hedge's plan, until accepted
    std::vector<DiskId> around;   // excluded ∪ hedged, for the replanner
};

/// Lease of the calling thread's RequestScratch for one request: taken
/// on construction, emptied of elements and returned on destruction. A
/// lease taken while the thread's scratch is already out (a nested or
/// concurrent request on the same thread) gets a fresh scratch, so
/// leases never share one. Not movable: it belongs to its frame.
class ScratchLease {
  public:
    ScratchLease();
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

    RequestScratch& operator*() const { return *scratch_; }
    RequestScratch* operator->() const { return scratch_.get(); }

  private:
    std::unique_ptr<RequestScratch> scratch_;
};

}  // namespace ecfrm::exec

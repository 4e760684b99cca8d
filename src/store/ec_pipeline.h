// EcPipeline: the online write/repair stage in front of a StripeStore.
//
// Write side (the paper's online-encoding regime): the pipeline owns no
// bytes. Its append/flush go through the store's one tail and one stripe
// commit with a CommitHook that sets the backlog policy: while fewer than
// max_pending_stripes stripes are parity-pending, a full stripe commits
// deferred — data only, readable at once, its bytes kept by the store —
// and a pool worker writes its parity (StripeStore::encode_stripe_parity),
// so the caller observes commit latency without the parity encode on its
// critical path. At the watermark, or with no pool, the stripe commits
// inline — data and parity in one round, exactly as StripeStore::append
// does — so the durability debt is always bounded by max_pending_stripes.
// flush()/quiesce() drain the backlog: they wait for the pool's encodes
// and then encode every stripe still pending (one whose pool encode
// failed), so a failed encode is retried, not stranded.
//
// Repair side: a background scheduler drives chunked online rebuilds
// (StripeStore::begin_rebuild / rebuild_rows / finish_rebuild) under a
// policy:
//   immediate  start at once, unthrottled — the naive comparator that
//              lets rebuild traffic trample foreground reads;
//   delayed    start after repair_delay_seconds, rate-limited;
//   threshold  start once >= repair_min_failed disks are down,
//              rate-limited by a token bucket and yielding to the
//              foreground whenever its fast SLO burn rate spikes.
// The encode backlog is drained before a rebuild begins (a parity-pending
// stripe cannot be rebuilt); a drain that fails is a typed repair error.
// Every rebuilt chunk flows through the same PlanExecutor write path as
// foreground commits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/stripe_store.h"

namespace ecfrm::store {

enum class RepairPolicy { immediate, delayed, threshold };

const char* repair_policy_name(RepairPolicy policy);
Result<RepairPolicy> parse_repair_policy(const std::string& name);

struct PipelineOptions {
    /// Encode-queue watermark: appends commit deferred (data only) while
    /// fewer than this many stripes are parity-pending; at the watermark
    /// the appending thread commits inline (backpressure).
    std::size_t max_pending_stripes = 8;

    RepairPolicy repair_policy = RepairPolicy::threshold;
    /// delayed: seconds between the repair request and the rebuild start.
    double repair_delay_seconds = 0.0;
    /// threshold: failed/mid-rebuild disks required before rebuilding.
    int repair_min_failed = 1;
    /// Rebuild rate limit in rows/second (<= 0: unthrottled). Ignored by
    /// the immediate policy, which is deliberately unthrottled.
    double repair_rows_per_second = 0.0;
    /// Token-bucket burst, rows.
    double repair_burst_rows = 32.0;
    /// Rows rebuilt per scheduler step (one rebuild_rows call).
    RowId repair_chunk_rows = 8;
    /// threshold: pause rebuild steps while the foreground read classes'
    /// fast SLO burn rate exceeds this (0 disables yielding). Needs a
    /// forensics attached via attach_observability.
    double yield_burn_threshold = 2.0;
    /// Scheduler sleep while gated (tokens, delay, yield), milliseconds.
    double poll_interval_ms = 1.0;
};

class EcPipeline {
  public:
    /// `store` and `pool` must outlive the pipeline. A null pool makes
    /// every commit inline (the pipeline commits exactly as
    /// StripeStore::append does).
    EcPipeline(StripeStore& store, ThreadPool* pool, PipelineOptions options = {});

    /// Quiesces the encode backlog and joins the repair scheduler.
    ~EcPipeline();

    EcPipeline(const EcPipeline&) = delete;
    EcPipeline& operator=(const EcPipeline&) = delete;

    const PipelineOptions& options() const { return options_; }

    /// Append user bytes through the store's tail. Full stripes commit
    /// deferred and queue their parity encode, or inline at the
    /// watermark; the tail buffers until flush().
    Status append(ConstByteSpan data);

    /// Commit the padded tail, then drain the encode backlog: after a
    /// successful flush every stripe committed before it has parity on
    /// the devices.
    Status flush();

    /// Drain the encode backlog: wait for the pool's encodes, then encode
    /// every stripe still parity-pending. Fails only if that last
    /// attempt fails; the stripe then stays pending for the next drain.
    Status quiesce();

    /// Queue a repair of `disk` (which the caller has observed failed).
    /// The scheduler applies the configured policy; wait_repairs() joins.
    Status request_repair(DiskId disk);

    /// Block until every queued repair finished (successfully or not).
    /// Returns the first repair error recorded, if any.
    Status wait_repairs();

    struct Snapshot {
        std::size_t pending_stripes = 0;     // stripes the store holds parity-pending
        std::size_t max_pending_stripes = 0;
        std::int64_t encoded_stripes = 0;    // pool encodes completed
        std::int64_t sync_encodes = 0;       // stripes committed inline (watermark or no pool)
        RepairPolicy policy = RepairPolicy::threshold;
        std::int64_t repairs_queued = 0;
        std::int64_t repairs_active = 0;
        std::int64_t repairs_done = 0;
        std::int64_t repairs_failed = 0;
        std::int64_t repair_rows_done = 0;
        std::int64_t repair_rows_total = 0;  // target rows across started rebuilds
        double repair_tokens = 0.0;
        double repair_rows_per_second = 0.0;
        std::int64_t repair_yields = 0;      // chunks deferred to a burning foreground
        std::int64_t repair_waits = 0;       // chunks deferred waiting for tokens
    };
    Snapshot snapshot() const;

    /// One-line JSON document (schema ecfrm.pipeline.v1) for the CLI and
    /// the /pipeline exposition route.
    std::string to_json() const;

    /// Attach pipeline gauges (ecfrm_pipeline_depth,
    /// ecfrm_pipeline_repair_tokens) and counters, and the foreground
    /// forensics whose fast burn rate gates threshold-policy rebuild
    /// steps. Null detaches.
    void attach_observability(obs::MetricRegistry* metrics,
                              obs::RequestForensics* foreground = nullptr);

  private:
    struct RepairJob {
        DiskId disk = -1;
        double requested_at = 0.0;  // steady seconds
    };

    /// Hook target: count an inline commit, or queue a deferred stripe's
    /// parity encode on the pool. Runs under the store's writer lock.
    void on_commit(StripeId stripe, bool deferred);
    void encode_one(StripeId stripe);
    void repair_loop();
    void run_repair(RepairJob job);
    bool stopped() const;
    bool foreground_burning() const;
    void record_repair_error(const Error& error);
    double steady_seconds() const;
    void publish_depth_locked();

    StripeStore& store_;
    ThreadPool* pool_;
    const PipelineOptions options_;
    /// Passed to every store append/flush; its max_pending is 0 without
    /// a pool, so every commit is inline.
    const StripeStore::CommitHook hook_;

    /// Lock order: the store's writer lock (held when hook_ runs), then
    /// mu_, then the store's reader lock. mu_ is never held across a
    /// store mutator.
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::size_t encodes_queued_ = 0;  // pool encodes queued or running
    std::int64_t encoded_stripes_ = 0;
    std::int64_t sync_encodes_ = 0;

    std::deque<RepairJob> repair_queue_;
    bool repair_active_ = false;
    bool repair_triggered_ = false;  // threshold round latched open until the queue drains
    std::int64_t repairs_done_ = 0;
    std::int64_t repairs_failed_ = 0;
    std::int64_t repair_rows_done_ = 0;
    std::int64_t repair_rows_total_ = 0;
    std::int64_t repair_yields_ = 0;
    std::int64_t repair_waits_ = 0;
    double repair_tokens_ = 0.0;
    Status first_repair_error_ = Status::success();
    bool stop_ = false;
    std::thread repair_thread_;  // spawned on first request_repair

    obs::MetricRegistry* metrics_ = nullptr;        // guarded by mu_
    obs::RequestForensics* foreground_ = nullptr;   // guarded by mu_
    obs::Gauge* depth_gauge_ = nullptr;
    obs::Gauge* tokens_gauge_ = nullptr;
    obs::Counter* sync_encodes_counter_ = nullptr;
    obs::Counter* encoded_counter_ = nullptr;
    obs::Counter* repair_rows_counter_ = nullptr;
    obs::Counter* repair_yields_counter_ = nullptr;
};

}  // namespace ecfrm::store

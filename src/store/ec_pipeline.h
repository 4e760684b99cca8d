// EcPipeline: the online write/repair stage in front of a StripeStore.
//
// Write side (the paper's online-encoding regime): appends land as
// data-only stripe commits immediately — the caller observes commit
// latency without the parity encode on its critical path — while pool
// workers encode and flush parity from retained stripe buffers behind a
// bounded pending-EC queue. When the backlog reaches the watermark the
// appending thread encodes synchronously instead (backpressure), so the
// durability debt is always bounded by max_pending_stripes.
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
// stripe cannot be rebuilt), and every rebuilt chunk flows through the
// same PlanExecutor write path as foreground commits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
    /// Encode-queue watermark: appends commit data-only while fewer than
    /// this many stripes are parity-pending; at the watermark the
    /// appending thread encodes synchronously (backpressure).
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
    /// every encode synchronous (the pipeline degenerates to
    /// StripeStore::append semantics with commit/encode split costs).
    EcPipeline(StripeStore& store, ThreadPool* pool, PipelineOptions options = {});

    /// Quiesces the encode backlog and joins the repair scheduler.
    ~EcPipeline();

    EcPipeline(const EcPipeline&) = delete;
    EcPipeline& operator=(const EcPipeline&) = delete;

    const PipelineOptions& options() const { return options_; }

    /// Append user bytes. Full stripes commit data-only immediately and
    /// queue their parity encode; the tail buffers until flush().
    Status append(ConstByteSpan data);

    /// Commit the padded tail, then drain the encode backlog: after a
    /// successful flush every committed stripe has parity on the devices.
    Status flush();

    /// Block until the encode backlog is empty. Fails with the first
    /// encode error recorded since construction.
    Status quiesce();

    /// Queue a repair of `disk` (which the caller has observed failed).
    /// The scheduler applies the configured policy; wait_repairs() joins.
    Status request_repair(DiskId disk);

    /// Block until every queued repair finished (successfully or not).
    /// Returns the first repair error recorded, if any.
    Status wait_repairs();

    struct Snapshot {
        std::size_t pending_stripes = 0;     // parity encodes queued or running
        std::size_t max_pending_stripes = 0;
        std::int64_t encoded_stripes = 0;    // async encodes completed
        std::int64_t sync_encodes = 0;       // watermark-forced synchronous encodes
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

    /// Commit the first `user_bytes` of tail_ (at most a stripe) as one
    /// zero-padded stripe; caller holds `lock` on mu_. The bytes leave
    /// tail_ only once the store has accepted the data-only commit, so a
    /// failed commit can be retried with nothing lost. Then either queue
    /// the parity encode or — at the watermark / with no pool — encode
    /// synchronously with the lock dropped.
    Status commit_stripe_locked(std::unique_lock<std::mutex>& lock, std::size_t user_bytes);
    void encode_one(StripeId stripe, const std::vector<std::uint8_t>& buf);
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

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::uint8_t> tail_;
    std::map<StripeId, std::shared_ptr<std::vector<std::uint8_t>>> pending_;  // retained stripe buffers
    std::int64_t encoded_stripes_ = 0;
    std::int64_t sync_encodes_ = 0;
    Status first_encode_error_ = Status::success();

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

#include "store/ec_pipeline.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

namespace ecfrm::store {

const char* repair_policy_name(RepairPolicy policy) {
    switch (policy) {
        case RepairPolicy::immediate: return "immediate";
        case RepairPolicy::delayed: return "delayed";
        case RepairPolicy::threshold: return "threshold";
    }
    return "unknown";
}

Result<RepairPolicy> parse_repair_policy(const std::string& name) {
    if (name == "immediate") return RepairPolicy::immediate;
    if (name == "delayed") return RepairPolicy::delayed;
    if (name == "threshold") return RepairPolicy::threshold;
    return Error::invalid("unknown repair policy '" + name +
                          "' (expected immediate, delayed or threshold)");
}

EcPipeline::EcPipeline(StripeStore& store, ThreadPool* pool, PipelineOptions options)
    : store_(store), pool_(pool), options_(std::move(options)) {
    repair_tokens_ = options_.repair_burst_rows;
}

EcPipeline::~EcPipeline() {
    {
        std::unique_lock<std::mutex> lock(mu_);
        // Drain the encode backlog first: pool workers hold retained
        // stripe buffers and call back into bookkeeping under mu_.
        cv_.wait(lock, [&] { return pending_.empty(); });
        stop_ = true;
    }
    cv_.notify_all();
    if (repair_thread_.joinable()) repair_thread_.join();
}

double EcPipeline::steady_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void EcPipeline::publish_depth_locked() {
    if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<double>(pending_.size()));
}

Status EcPipeline::append(ConstByteSpan data) {
    const std::size_t stripe_bytes = static_cast<std::size_t>(store_.stripe_data_bytes());
    std::unique_lock<std::mutex> lock(mu_);
    tail_.insert(tail_.end(), data.begin(), data.end());
    while (tail_.size() >= stripe_bytes) {
        auto st = commit_stripe_locked(lock, stripe_bytes);
        if (!st.ok()) return st;
    }
    return Status::success();
}

Status EcPipeline::flush() {
    const std::size_t stripe_bytes = static_cast<std::size_t>(store_.stripe_data_bytes());
    std::unique_lock<std::mutex> lock(mu_);
    // Whole stripes a failed append left behind first, then the padded
    // remainder.
    while (!tail_.empty()) {
        auto st = commit_stripe_locked(lock, std::min(tail_.size(), stripe_bytes));
        if (!st.ok()) return st;
    }
    cv_.wait(lock, [&] { return pending_.empty(); });
    return first_encode_error_;
}

Status EcPipeline::quiesce() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_.empty(); });
    return first_encode_error_;
}

Status EcPipeline::commit_stripe_locked(std::unique_lock<std::mutex>& lock,
                                        std::size_t user_bytes) {
    auto buf = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(store_.stripe_data_bytes()));
    std::copy_n(tail_.begin(), user_bytes, buf->begin());
    // Watermark check BEFORE the commit: at the watermark this thread
    // pays for an encode itself instead of growing the durability debt.
    const bool sync = pool_ == nullptr || pending_.size() >= options_.max_pending_stripes;
    auto committed = store_.commit_data_stripe(ConstByteSpan(buf->data(), buf->size()),
                                               static_cast<std::int64_t>(user_bytes));
    if (!committed.ok()) return committed.error();
    // Only a stripe the store accepted leaves the tail.
    tail_.erase(tail_.begin(), tail_.begin() + static_cast<std::ptrdiff_t>(user_bytes));
    const StripeId stripe = committed.value();
    pending_.emplace(stripe, buf);
    publish_depth_locked();
    if (sync) {
        ++sync_encodes_;
        if (sync_encodes_counter_ != nullptr) sync_encodes_counter_->add(1);
        // Encode without mu_: async workers need it to retire their own
        // stripes, and a long encode must not freeze snapshots.
        lock.unlock();
        auto st = store_.encode_stripe_parity(stripe, ConstByteSpan(buf->data(), buf->size()));
        lock.lock();
        pending_.erase(stripe);
        publish_depth_locked();
        if (!st.ok() && first_encode_error_.ok()) first_encode_error_ = st;
        cv_.notify_all();
        return st;
    }
    pool_->submit([this, stripe, buf = std::move(buf)] { encode_one(stripe, *buf); });
    return Status::success();
}

void EcPipeline::encode_one(StripeId stripe, const std::vector<std::uint8_t>& buf) {
    auto st = store_.encode_stripe_parity(stripe, ConstByteSpan(buf.data(), buf.size()));
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(stripe);
    ++encoded_stripes_;
    if (encoded_counter_ != nullptr) encoded_counter_->add(1);
    if (!st.ok() && first_encode_error_.ok()) first_encode_error_ = st;
    publish_depth_locked();
    cv_.notify_all();
}

Status EcPipeline::request_repair(DiskId disk) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Error::invalid("request_repair on a stopped pipeline");
    repair_queue_.push_back(RepairJob{disk, steady_seconds()});
    if (!repair_thread_.joinable()) {
        repair_thread_ = std::thread([this] { repair_loop(); });
    }
    cv_.notify_all();
    return Status::success();
}

Status EcPipeline::wait_repairs() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return repair_queue_.empty() && !repair_active_; });
    return first_repair_error_;
}

void EcPipeline::repair_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cv_.wait(lock, [&] { return stop_ || !repair_queue_.empty(); });
        if (stop_) return;
        RepairJob job = repair_queue_.front();
        repair_queue_.pop_front();
        repair_active_ = true;
        lock.unlock();
        run_repair(job);
        lock.lock();
        repair_active_ = false;
        if (repair_queue_.empty()) repair_triggered_ = false;  // round drained
        cv_.notify_all();
    }
}

bool EcPipeline::stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stop_;
}

bool EcPipeline::foreground_burning() const {
    if (options_.yield_burn_threshold <= 0.0) return false;
    obs::RequestForensics* fg = nullptr;
    {
        std::lock_guard<std::mutex> lock(mu_);
        fg = foreground_;
    }
    if (fg == nullptr) return false;
    const auto normal = fg->slo_snapshot(obs::RequestClass::normal);
    const auto degraded = fg->slo_snapshot(obs::RequestClass::degraded);
    return std::max(normal.fast_burn, degraded.fast_burn) > options_.yield_burn_threshold;
}

void EcPipeline::record_repair_error(const Error& error) {
    std::lock_guard<std::mutex> lock(mu_);
    ++repairs_failed_;
    if (first_repair_error_.ok()) first_repair_error_ = error;
}

void EcPipeline::run_repair(RepairJob job) {
    const auto poll = std::chrono::duration<double, std::milli>(
        options_.poll_interval_ms > 0.0 ? options_.poll_interval_ms : 1.0);

    // Policy gate: when is this rebuild allowed to start?
    if (options_.repair_policy == RepairPolicy::delayed) {
        while (!stopped() && steady_seconds() < job.requested_at + options_.repair_delay_seconds) {
            std::this_thread::sleep_for(poll);
        }
    } else if (options_.repair_policy == RepairPolicy::threshold) {
        // Failed plus mid-rebuild disks count toward the threshold, and
        // once a round triggers it stays open until the queue drains:
        // otherwise the last queued disk of a 2-disk round would wait
        // forever for a second failure that was already repaired.
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (repair_triggered_) break;
            }
            if (stopped()) break;
            const std::size_t down =
                store_.failed_disks().size() + store_.rebuilding_disks().size();
            if (static_cast<int>(down) >= options_.repair_min_failed) {
                std::lock_guard<std::mutex> lock(mu_);
                repair_triggered_ = true;
                break;
            }
            std::this_thread::sleep_for(poll);
        }
    }
    if (stopped()) {
        record_repair_error(Error::invalid("repair abandoned (pipeline shutdown)"));
        return;
    }

    // A parity-pending stripe cannot be rebuilt; drain the encode
    // backlog, then race new data-only commits with a retry loop.
    Status began = Status::success();
    for (;;) {
        if (stopped()) {
            record_repair_error(Error::invalid("repair abandoned (pipeline shutdown)"));
            return;
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] { return stop_ || pending_.empty(); });
            if (stop_) {
                lock.unlock();
                record_repair_error(Error::invalid("repair abandoned (pipeline shutdown)"));
                return;
            }
        }
        began = store_.begin_rebuild(job.disk);
        if (began.ok()) break;
        if (store_.unencoded_stripes() > 0) {
            // A commit slipped in between our drain and begin_rebuild;
            // wait for its encode and try again.
            std::this_thread::sleep_for(poll);
            continue;
        }
        record_repair_error(began.error());
        return;
    }

    auto target = store_.rebuild_target_rows(job.disk);
    if (!target.ok()) {
        (void)store_.abort_rebuild(job.disk);
        record_repair_error(target.error());
        return;
    }
    const RowId rows = target.value();
    {
        std::lock_guard<std::mutex> lock(mu_);
        repair_rows_total_ += rows;
    }

    const bool throttled =
        options_.repair_policy != RepairPolicy::immediate && options_.repair_rows_per_second > 0.0;
    const bool yielding = options_.repair_policy == RepairPolicy::threshold;
    double last_refill = steady_seconds();

    RowId next = 0;
    while (next < rows) {
        if (stopped()) {
            (void)store_.abort_rebuild(job.disk);
            record_repair_error(Error::invalid("repair aborted (pipeline shutdown)"));
            return;
        }
        const RowId chunk = std::min<RowId>(options_.repair_chunk_rows > 0
                                                ? options_.repair_chunk_rows
                                                : rows,
                                            rows - next);
        if (yielding && foreground_burning()) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++repair_yields_;
                if (repair_yields_counter_ != nullptr) repair_yields_counter_->add(1);
            }
            std::this_thread::sleep_for(poll);
            last_refill = steady_seconds();  // no token accrual while yielding
            continue;
        }
        if (throttled) {
            const double now = steady_seconds();
            std::unique_lock<std::mutex> lock(mu_);
            repair_tokens_ = std::min(options_.repair_burst_rows,
                                      repair_tokens_ +
                                          options_.repair_rows_per_second * (now - last_refill));
            last_refill = now;
            if (tokens_gauge_ != nullptr) tokens_gauge_->set(repair_tokens_);
            if (repair_tokens_ < static_cast<double>(chunk)) {
                ++repair_waits_;
                lock.unlock();
                std::this_thread::sleep_for(poll);
                continue;
            }
            repair_tokens_ -= static_cast<double>(chunk);
            if (tokens_gauge_ != nullptr) tokens_gauge_->set(repair_tokens_);
        }
        auto stats = store_.rebuild_rows(job.disk, next, chunk);
        if (!stats.ok()) {
            (void)store_.abort_rebuild(job.disk);
            record_repair_error(stats.error());
            return;
        }
        next += chunk;
        {
            std::lock_guard<std::mutex> lock(mu_);
            repair_rows_done_ += chunk;
            if (repair_rows_counter_ != nullptr) repair_rows_counter_->add(chunk);
        }
    }

    auto finished = store_.finish_rebuild(job.disk);
    if (!finished.ok()) {
        (void)store_.abort_rebuild(job.disk);
        record_repair_error(finished.error());
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++repairs_done_;
}

EcPipeline::Snapshot EcPipeline::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.pending_stripes = pending_.size();
    s.max_pending_stripes = options_.max_pending_stripes;
    s.encoded_stripes = encoded_stripes_;
    s.sync_encodes = sync_encodes_;
    s.policy = options_.repair_policy;
    s.repairs_queued = static_cast<std::int64_t>(repair_queue_.size());
    s.repairs_active = repair_active_ ? 1 : 0;
    s.repairs_done = repairs_done_;
    s.repairs_failed = repairs_failed_;
    s.repair_rows_done = repair_rows_done_;
    s.repair_rows_total = repair_rows_total_;
    s.repair_tokens = repair_tokens_;
    s.repair_rows_per_second = options_.repair_rows_per_second;
    s.repair_yields = repair_yields_;
    s.repair_waits = repair_waits_;
    return s;
}

std::string EcPipeline::to_json() const {
    const Snapshot s = snapshot();
    std::ostringstream out;
    out << "{\"schema\":\"ecfrm.pipeline.v1\""
        << ",\"policy\":\"" << repair_policy_name(s.policy) << "\""
        << ",\"pending_stripes\":" << s.pending_stripes
        << ",\"max_pending_stripes\":" << s.max_pending_stripes
        << ",\"encoded_stripes\":" << s.encoded_stripes
        << ",\"sync_encodes\":" << s.sync_encodes << ",\"repair\":{"
        << "\"queued\":" << s.repairs_queued << ",\"active\":" << s.repairs_active
        << ",\"done\":" << s.repairs_done << ",\"failed\":" << s.repairs_failed
        << ",\"rows_done\":" << s.repair_rows_done << ",\"rows_total\":" << s.repair_rows_total
        << ",\"tokens\":" << s.repair_tokens
        << ",\"rows_per_second\":" << s.repair_rows_per_second
        << ",\"yields\":" << s.repair_yields << ",\"waits\":" << s.repair_waits << "}}";
    return out.str();
}

void EcPipeline::attach_observability(obs::MetricRegistry* metrics,
                                      obs::RequestForensics* foreground) {
    std::lock_guard<std::mutex> lock(mu_);
    metrics_ = metrics;
    foreground_ = foreground;
    if (metrics == nullptr) {
        depth_gauge_ = nullptr;
        tokens_gauge_ = nullptr;
        sync_encodes_counter_ = nullptr;
        encoded_counter_ = nullptr;
        repair_rows_counter_ = nullptr;
        repair_yields_counter_ = nullptr;
        return;
    }
    depth_gauge_ = &metrics->gauge("ecfrm_pipeline_depth");
    metrics->describe("ecfrm_pipeline_depth", "Stripes committed data-only, parity encode pending");
    tokens_gauge_ = &metrics->gauge("ecfrm_pipeline_repair_tokens");
    metrics->describe("ecfrm_pipeline_repair_tokens", "Rebuild token bucket level, rows");
    sync_encodes_counter_ = &metrics->counter("ecfrm_pipeline_sync_encodes_total");
    metrics->describe("ecfrm_pipeline_sync_encodes_total",
                      "Watermark-forced synchronous parity encodes");
    encoded_counter_ = &metrics->counter("ecfrm_pipeline_encoded_stripes_total");
    metrics->describe("ecfrm_pipeline_encoded_stripes_total",
                      "Background parity encodes completed");
    repair_rows_counter_ = &metrics->counter("ecfrm_pipeline_repair_rows_total");
    metrics->describe("ecfrm_pipeline_repair_rows_total", "Rows rebuilt by the repair scheduler");
    repair_yields_counter_ = &metrics->counter("ecfrm_pipeline_repair_yields_total");
    metrics->describe("ecfrm_pipeline_repair_yields_total",
                      "Rebuild steps deferred to a burning foreground");
    publish_depth_locked();
    if (tokens_gauge_ != nullptr) tokens_gauge_->set(repair_tokens_);
}

}  // namespace ecfrm::store

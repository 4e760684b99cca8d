#include "exec/plan_executor.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "codes/erasure_code.h"

namespace ecfrm::exec {

using core::AccessPlan;

namespace {

/// One fetch round's outcome: how many disks newly misbehaved (each now
/// in the request's exclusion set), whether a hedge already replanned
/// around its stragglers, and the most recent typed error, so the replan
/// loop can route on (or give up with the right diagnosis).
struct FetchOutcome {
    bool complete = true;
    bool hedged = false;
    std::int64_t bad_disks = 0;
    std::optional<Error> last_error;
};

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Auto-hedge deadline: this many times the median of the participating
/// disks' windowed p99 read latency.
constexpr double kAutoHedgeFactor = 3.0;

Error timeout_error(DiskId disk, double op_timeout_ms) {
    return Error::timeout("disk " + std::to_string(disk) + " read exceeded its " +
                          std::to_string(op_timeout_ms) + " ms per-op deadline");
}

}  // namespace

Status PlanExecutor::submit_queue(Round& r, std::size_t a, TraceCtx tc) const {
    Round::Queue& q = r.queues[a];
    store::BlockDevice& device = *devices_[static_cast<std::size_t>(q.disk)];
    const bool read = r.data.empty();
    const auto rows = std::span<const RowId>(r.rows).subspan(q.begin, q.end - q.begin);
    const auto outs = read ? std::span<const ByteSpan>(r.outs).subspan(q.begin, rows.size())
                           : std::span<const ByteSpan>();
    const auto data = read ? std::span<const ConstByteSpan>()
                           : std::span<const ConstByteSpan>(r.data).subspan(q.begin, rows.size());
    const ExecutorMetrics& m = *r.metrics;
    const obs::IoStats* const io = m.io(q.disk);
    const bool latency = io != nullptr && io->timed(read);
    // Under op_timeout_ms each read call has its own deadline, the
    // timeout times the ops it carries, and a timed queue's first call
    // carries one op: a stalled disk is found after one stalled op,
    // however deep its queue. A late call keeps none of its ops and ends
    // the queue. On a pool the reaper gives up on the call at its
    // deadline, so the call's deadline is published under r.mu.
    const double op_timeout_us = read ? r.opts.op_timeout_ms * 1000.0 : 0.0;
    const bool publish = op_timeout_us > 0.0 && pool_ != nullptr;

    // One device call over rows[off, off + n), counted once here.
    auto call = [&](std::size_t off, std::size_t n, std::size_t* completed) -> Status {
        const double deadline =
            op_timeout_us > 0.0 ? obs::forensic_now_us() + static_cast<double>(n) * op_timeout_us
                                : kNever;
        if (publish) {
            std::lock_guard<std::mutex> lock(r.mu);
            q.call_deadline_us = deadline;
            r.cv.notify_all();
        }
        double t0 = q.issue_us;  // an async first chunk went in flight at issue
        Status status;
        if (q.batch != nullptr) {
            auto in_flight = std::move(q.batch);
            status = in_flight->await(completed);
        } else {
            if (io != nullptr) io->on_issue(static_cast<std::int64_t>(n));
            if (latency) t0 = obs::forensic_now_us();
            const auto chunk = rows.subspan(off, n);
            status = read ? device.read_batch(chunk, outs.subspan(off, n), completed)
                          : device.write_batch(chunk, data.subspan(off, n), completed);
        }
        const double end = latency || deadline < kNever ? obs::forensic_now_us() : 0.0;
        if (io != nullptr) {
            io->on_call(read, static_cast<std::int64_t>(n), static_cast<std::int64_t>(*completed),
                        !status.ok(), element_bytes_, latency ? (end - t0) * 1e-6 : 0.0);
        }
        if (publish) {  // between calls no clock runs
            std::lock_guard<std::mutex> lock(r.mu);
            q.call_deadline_us = kNever;
        }
        if (!status.ok() || end <= deadline) return status;
        *completed = 0;
        return timeout_error(q.disk, r.opts.op_timeout_ms);
    };

    q.done = 0;
    std::size_t offset = 0;
    while (offset < rows.size()) {
        const std::size_t depth = op_timeout_us > 0.0 && offset == 0 ? 1 : chunk_depth(r.opts);
        const std::size_t n = std::min(depth, rows.size() - offset);
        std::size_t completed = 0;
        Status status = call(offset, n, &completed);
        q.done += completed;
        if (status.ok()) {
            offset += n;
            continue;
        }
        // The op at `offset + completed` failed and the rest of the chunk
        // was never attempted (or, async, left unspecified). Retry just
        // that op, as a one-op call, under the policy — its in-chunk
        // failure already consumed attempt zero; a write retry rewrites
        // the full payload, healing a torn write.
        if (status.error().code != Error::Code::io_error || r.opts.max_retries < 1) return status;
        const std::size_t j = offset + completed;
        for (int attempt = 1; attempt <= r.opts.max_retries; ++attempt) {
            if (m.retries != nullptr) m.retries->add(1);
            if (r.heat != nullptr) r.heat->on_retry(q.disk, obs::DiskHeatModel::now_seconds());
            if (tc.rt != nullptr) {
                tc.rt->count_retry();
                tc.rt->complete(tc.parent, "retry", obs::forensic_now_us(), 0.0,
                                {{"disk", std::to_string(q.disk)},
                                 {"row", std::to_string(rows[j])},
                                 {"attempt", std::to_string(attempt)},
                                 {"error", status.error().message}});
            }
            status = call(j, 1, &completed);
            if (status.ok() || status.error().code != Error::Code::io_error) break;
        }
        if (!status.ok()) return status;
        q.done += 1;
        offset = j + 1;
    }
    return Status::success();
}

void PlanExecutor::start_round(const std::shared_ptr<Round>& r, TraceCtx tc, bool join) const {
    const std::size_t n = r->queues.size();
    if (pool_ == nullptr) {
        for (std::size_t a = 0; a < n; ++a) start_queue(*r, a, tc);
        return;
    }
    // A task touches the round only through queues it claims (each
    // finished under r.mu) and the atomic claim counter — never its
    // queue list — so a task still holding a reaped round cannot race
    // the scratch that reuses it.
    auto claim = [this, tc, n](Round& round) {
        for (;;) {
            const std::size_t a = round.next.fetch_add(1);
            if (a >= n) return;
            start_queue(round, a, tc);
        }
    };
    const std::size_t tasks = join ? std::min(n, pool_->thread_count() + 1) - 1 : n;
    for (std::size_t t = 0; t < tasks; ++t) {
        orphan_started();
        pool_->submit([this, r, claim] {
            claim(*r);
            orphan_finished();
        });
    }
    if (join) claim(*r);
}

void PlanExecutor::start_queue(Round& r, std::size_t a, TraceCtx tc) const {
    Round::Queue& q = r.queues[a];
    if (r.deadline) {  // the reaper judges the queue from this stamp, and may await it
        std::lock_guard<std::mutex> lock(r.mu);
        q.issue_us = obs::forensic_now_us();
        q.started = true;
        r.cv.notify_all();
    } else if (r.timed) {
        q.issue_us = obs::forensic_now_us();
    }
    if (r.heat != nullptr) r.heat->on_issue(q.disk);
    const store::BlockDevice& device = *devices_[static_cast<std::size_t>(q.disk)];
    if (pool_ == nullptr && r.data.empty() && r.opts.op_timeout_ms <= 0.0 &&
        device.async_reads()) {
        // In flight from here until submit_queue awaits it and counts it.
        const std::size_t n = std::min(q.end - q.begin, chunk_depth(r.opts));
        const obs::IoStats* const io = r.metrics->io(q.disk);
        if (io != nullptr) io->on_issue(static_cast<std::int64_t>(n));
        q.batch = device.submit_read_batch(std::span<const RowId>(r.rows).subspan(q.begin, n),
                                           std::span<const ByteSpan>(r.outs).subspan(q.begin, n));
        return;
    }
    finish_queue(r, a, tc);
}

void PlanExecutor::finish_queue(Round& r, std::size_t a, TraceCtx tc) const {
    Round::Queue& q = r.queues[a];
    const bool write = !r.data.empty();
    q.status = submit_queue(r, a, tc);
    if (r.timed) q.dur_us = obs::forensic_now_us() - q.issue_us;
    if (r.heat != nullptr) {
        const double now_s = obs::DiskHeatModel::now_seconds();
        const auto ops = static_cast<std::int64_t>(q.done);
        if (write) {
            r.heat->on_write_complete(q.disk, ops, ops * element_bytes_, now_s);
        } else {
            r.heat->on_complete(q.disk, ops, ops * element_bytes_, q.dur_us, now_s);
        }
        if (!q.status.ok() &&
            q.status.error().code != (write ? Error::Code::disk_failed : Error::Code::timeout)) {
            r.heat->on_error(q.disk, now_s);
        }
    }
    if (pool_ == nullptr) {  // no other thread ever touches the round
        q.finished = true;
        return;
    }
    // Notify under the mutex: the waiter may drop its reference the
    // moment the predicate holds.
    std::lock_guard<std::mutex> lock(r.mu);
    q.finished = true;
    r.cv.notify_all();
}

void PlanExecutor::trace_queue(TraceCtx tc, const char* name, const Round::Queue& q) const {
    if (tc.rt == nullptr) return;
    const std::uint32_t node = tc.rt->complete(
        tc.parent, name, q.issue_us, q.dur_us,
        {obs::RequestTrace::IntAttr{"disk", q.disk},
         {"elements", static_cast<std::int64_t>(q.end - q.begin)},
         {"done", static_cast<std::int64_t>(q.done)},
         {"bytes", static_cast<std::int64_t>(q.done) * element_bytes_}});
    if (!q.status.ok()) tc.rt->attr(node, "error", q.status.error().message);
}

Result<PlanExecutor::WriteReport> PlanExecutor::write(const core::WritePlan& plan,
                                                      std::span<const ConstByteSpan> payloads,
                                                      TraceCtx tc, bool allow_degraded) const {
    const ExecutorMetrics& m = metrics();
    const auto& writes = plan.writes();
    for (const core::WriteAccess& w : writes) {
        if (w.payload >= payloads.size()) return Error::invalid("write plan payload out of range");
        if (payloads[w.payload].size() != static_cast<std::size_t>(element_bytes_)) {
            return Error::invalid("write plan payload has wrong element size");
        }
    }

    auto r = std::make_shared<Round>();
    r->opts = options();
    r->metrics = &m;
    r->heat = heat();
    r->timed = tc.rt != nullptr || r->heat != nullptr || !m.disk_io.empty();
    r->rows.reserve(writes.size());
    r->data.reserve(writes.size());
    const core::PlanBatches batches = plan.batches();
    r->queues.reserve(batches.size());
    for (const core::DiskBatch& batch : batches) {
        Round::Queue& q = r->queues.emplace_back();
        q.disk = batch.disk;
        q.begin = r->rows.size();
        r->rows.insert(r->rows.end(), batch.rows.begin(), batch.rows.end());
        for (std::size_t i : batch.indices) r->data.push_back(payloads[writes[i].payload]);
        q.end = r->rows.size();
    }
    start_round(r, tc, /*join=*/true);

    WriteReport report;
    std::optional<Error> first_error;
    for (Round::Queue& q : r->queues) {
        if (pool_ != nullptr) {
            std::unique_lock<std::mutex> lock(r->mu);
            r->cv.wait(lock, [&] { return q.finished; });
        }
        trace_queue(tc, "disk.write_batch", q);
        report.elements_written += static_cast<std::int64_t>(q.done);
        if (q.status.ok()) continue;
        if (q.status.error().code == Error::Code::disk_failed && allow_degraded) {
            // Degraded write: whatever of this queue did not land stays
            // recoverable through the group parities.
            report.elements_skipped += static_cast<std::int64_t>(q.end - q.begin - q.done);
        } else if (!first_error.has_value()) {
            first_error = q.status.error();
        }
    }

    if (first_error.has_value()) return *first_error;
    if (m.writes != nullptr) m.writes->add(report.elements_written);
    if (m.degraded_writes != nullptr && report.elements_skipped > 0) {
        m.degraded_writes->add(report.elements_skipped);
    }
    return report;
}

Status PlanExecutor::plan_around(RequestScratch& s, Replanner replan, core::AccessPlan& plan) {
    if (s.hedged.empty()) return replan(s.excluded, plan);
    s.around.assign(s.excluded.begin(), s.excluded.end());
    s.around.insert(s.around.end(), s.hedged.begin(), s.hedged.end());
    return replan(s.around, plan);
}

bool PlanExecutor::hedge(const Round& r, RequestScratch& s, Replanner replan, TraceCtx tc,
                         double deadline_ms, bool auto_deadline) const {
    const double t0 = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
    const std::size_t before = s.hedged.size();
    for (const Round::Queue& q : r.queues) {
        if (q.late && !q.reaped) s.hedged.push_back(q.disk);
    }
    // Plan into the spare: a refused plan must leave the round's own plan
    // intact, since the round goes on to wait for its stragglers.
    const Status planned = plan_around(s, replan, s.spare_plan);
    if (tc.rt != nullptr) {
        tc.rt->complete(tc.parent, "hedge.trigger", t0, obs::forensic_now_us() - t0,
                        {{"stragglers", std::to_string(s.hedged.size() - before)},
                         {"deadline_ms", std::to_string(deadline_ms)},
                         {"auto", auto_deadline ? "true" : "false"},
                         {"replanned", planned.ok() ? "true" : "false"}});
    }
    if (!planned.ok()) {
        s.hedged.resize(before);
        return false;
    }
    std::swap(s.plan, s.spare_plan);
    return true;
}

PlanExecutor::Round& PlanExecutor::next_round(RequestScratch& s) {
    if (s.round == nullptr || s.round.use_count() != 1) {
        s.round = std::make_shared<Round>();
        return *s.round;
    }
    Round& r = *s.round;
    // Sole owner: no pool task can reach the round any more. Taking its
    // mutex orders this reuse after the last task's final queue finished.
    std::lock_guard<std::mutex> lock(r.mu);
    r.rows.clear();
    r.outs.clear();
    r.elems.clear();
    r.owned.clear();
    r.data.clear();
    r.queues.clear();
    r.next.store(0, std::memory_order_relaxed);
    return r;
}

void RequestScratch::release() {
    elements.clear();
    excluded.clear();
    hedged.clear();
    // A round still co-owned by an orphaned queue keeps its staging until
    // that queue lets go; drop this scratch's share rather than wait.
    if (round != nullptr && round.use_count() == 1) {
        std::lock_guard<std::mutex> lock(round->mu);
        round->owned.clear();
    } else {
        round.reset();
    }
}

namespace {

/// The calling thread's idle scratch, or null while it is leased out.
thread_local std::unique_ptr<RequestScratch> t_idle_scratch;

}  // namespace

ScratchLease::ScratchLease()
    : scratch_(t_idle_scratch != nullptr ? std::move(t_idle_scratch)
                                         : std::make_unique<RequestScratch>()) {}

ScratchLease::~ScratchLease() {
    scratch_->release();
    // Nested leases end first; the outermost one's scratch is the one kept.
    t_idle_scratch = std::move(scratch_);
}

Status PlanExecutor::fetch(RequestScratch& s, Replanner replan, obs::RequestTrace* rt,
                           Sink sink) const {
    const RecoveryOptions& opts = options();
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    const auto eb = static_cast<std::size_t>(element_bytes_);

    // Elements fetched or decoded so far, kept across replan and hedge
    // rounds so recovery never re-reads what it already holds. Sized per
    // plan: every fetch plus every decode target.
    ElementTable& fetched = s.elements;
    fetched.clear();
    bool request_load_recorded = false;  // heat records max load once per request

    // One fetch round: issue everything the plan wants that we don't
    // already hold, one submission queue per disk (devices serialise
    // internally, so one queue per device is the natural unit, and the
    // request finishes when the slowest queue does), then reap the
    // queues through one epilogue. `fetch_node` is the round's phase
    // span on the request trace; per-disk batches, retries, the hedge
    // trigger and eager decodes hang under it.
    auto fetch_round = [&](std::uint32_t fetch_node) -> FetchOutcome {
        FetchOutcome outcome;
        const AccessPlan& p = s.plan;
        const auto& fetches = p.fetches();
        p.batches(s.batches);
        const core::PlanBatches& batches = s.batches;
        fetched.reserve(fetched.size() + fetches.size() + p.decodes().size());

        // The round's deadlines: op_timeout_ms, judged per read call
        // (see submit_queue), and the hedge deadline, timed from each
        // queue's own start — static hedge_ms, or, under auto_hedge with
        // a warm heat window, the participating disks' live windowed p99
        // (median * kAutoHedgeFactor), which tracks the fleet's actual speed.
        // Hedging needs a pool: the straggler must run somewhere while
        // this thread reads around it. A request hedges once: later
        // rounds read from disks that answered in time.
        const bool may_hedge = pool_ != nullptr && s.hedged.empty();
        double hedge_ms = may_hedge ? opts.hedge_ms : 0.0;
        if (opts.auto_hedge && heat != nullptr && may_hedge) {
            std::vector<int> participating;
            for (const core::DiskBatch& b : batches) participating.push_back(b.disk);
            const double derived =
                heat->hedge_deadline_ms(participating, kAutoHedgeFactor, opts.auto_hedge_min_ms,
                                        obs::DiskHeatModel::now_seconds());
            if (derived > 0.0) hedge_ms = derived;
        }
        const double hedge_us = hedge_ms > 0.0 ? hedge_ms * 1000.0 : kNever;
        const bool deadline = hedge_us < kNever || opts.op_timeout_ms > 0.0;
        const bool detached = deadline && pool_ != nullptr;  // may leave queues running

        // Queue destinations: the zero-copy sink where it routes an
        // element, else staging — held by the element table, or, when
        // the round is detached, by the round itself: a late queue may
        // outlive this frame, so it must own its buffers outright.
        Round& r = next_round(s);
        r.opts = opts;
        r.metrics = &m;
        r.heat = heat;
        r.deadline = deadline;
        r.timed = rt != nullptr || heat != nullptr || deadline || !m.disk_io.empty();
        r.rows.reserve(fetches.size());
        r.outs.reserve(fetches.size());
        r.elems.reserve(fetches.size());
        r.queues.reserve(batches.size());
        for (const core::DiskBatch& batch : batches) {
            const std::size_t begin = r.rows.size();
            for (std::size_t j = 0; j < batch.indices.size(); ++j) {
                const Key key = key_of(fetches[batch.indices[j]].coord);
                if (fetched.contains(key)) continue;
                ByteSpan out;
                bool sunk = false;
                if (detached) {
                    r.owned.push_back(staging_buffer(eb, buffer_pool_));
                    out = r.owned.back().span().first(eb);
                } else {
                    out = sink_for(key, sink);
                    sunk = !out.empty();
                    if (!sunk) out = fetched.stage(eb, buffer_pool_);
                }
                r.rows.push_back(batch.rows[j]);
                r.outs.push_back(out);
                r.elems.push_back({key, sunk});
            }
            if (r.rows.size() == begin) continue;
            Round::Queue& q = r.queues.emplace_back();
            q.disk = batch.disk;
            q.begin = begin;
            q.end = r.rows.size();
        }
        if (r.queues.empty()) return outcome;

        if (heat != nullptr && !request_load_recorded) {
            // First round's deepest queue is the request's max per-disk
            // load — the measured twin of closed_form_max_load.
            request_load_recorded = true;
            std::size_t max_load = 0;
            for (const Round::Queue& q : r.queues) {
                max_load = std::max(max_load, q.end - q.begin);
            }
            heat->on_request(static_cast<std::int64_t>(max_load),
                             obs::DiskHeatModel::now_seconds());
        }

        // Detached queues may outlive the request, so they get no trace
        // context; their disk.batch spans are recorded here at reap.
        const TraceCtx queue_tc = detached ? TraceCtx{} : TraceCtx{rt, fetch_node};
        start_round(s.round, queue_tc, /*join=*/!detached);

        // Reap: without a pool in submission order, finishing each queue
        // in place (an async device's await lands here, so the disks
        // overlap); with one, in completion order.
        const std::size_t n = r.queues.size();
        bool all_landed = true;     // every reaped queue's ops all landed
        bool late_changed = false;  // the late set moved since the last hedge attempt
        for (std::size_t reaped = 0; reaped < n;) {
            std::size_t a = reaped;
            bool overdue = false;  // reaped while its read call is past its deadline
            if (pool_ == nullptr) {
                if (!r.queues[a].finished) finish_queue(r, a, queue_tc);
            } else {
                std::unique_lock<std::mutex> lock(r.mu);
                for (;;) {
                    // Reap a finished queue, or one whose read call is
                    // past its deadline; else mark the late ones and sleep
                    // until the next deadline of a started queue still out.
                    // Once a hedge is accepted, only the queues still in
                    // time are waited for: they hold elements the hedge's
                    // plan would otherwise read again.
                    const double now = obs::forensic_now_us();
                    double wake = kNever;
                    bool any_late = false;
                    bool in_time = false;
                    for (a = 0; a < n; ++a) {
                        Round::Queue& q = r.queues[a];
                        if (q.reaped || !(q.finished || q.started)) continue;
                        overdue = !q.finished && q.call_deadline_us <= now;
                        if (q.finished || overdue) break;
                        if (!q.late && q.issue_us + hedge_us <= now) q.late = late_changed = true;
                        any_late = any_late || q.late;
                        in_time = in_time || !q.late;
                        wake = std::min({wake, q.call_deadline_us,
                                         q.late ? kNever : q.issue_us + hedge_us});
                    }
                    if (a < n) break;
                    if (outcome.hedged) {
                        if (!in_time) return outcome;
                    } else if (any_late && late_changed) {
                        // Hedge: the late queues and every queue not yet
                        // started are orphaned (their payload dies with
                        // the round). If the code cannot route around the
                        // late ones, wait, and try again when they change:
                        // correctness beats the deadline.
                        late_changed = false;
                        lock.unlock();
                        if (hedge(r, s, replan, TraceCtx{rt, fetch_node}, hedge_ms,
                                  opts.auto_hedge)) {
                            r.next.store(n);  // orphan tasks start no unclaimed queue
                            outcome.complete = false;
                            outcome.hedged = true;
                        }
                        lock.lock();
                        continue;
                    }
                    if (wake == kNever) {
                        r.cv.wait(lock);
                    } else {
                        r.cv.wait_for(lock, std::chrono::duration<double, std::micro>(wake - now));
                    }
                }
            }

            // The epilogue every queue goes through. A queue reaped
            // overdue is still running: none of its fields is ours to
            // read, and it keeps nothing.
            Round::Queue& q = r.queues[a];
            q.reaped = true;
            ++reaped;
            late_changed = late_changed || q.late;
            if (!overdue) trace_queue(TraceCtx{rt, fetch_node}, "disk.batch", q);
            for (std::size_t j = q.begin; !overdue && j < q.begin + q.done; ++j) {
                if (fetched.emplace(r.elems[j].key, r.outs[j], r.elems[j].sunk) && detached) {
                    fetched.hold(std::move(r.owned[j]));
                }
            }
            const bool timed_out =
                overdue || (!q.status.ok() && q.status.error().code == Error::Code::timeout);
            if (timed_out) {
                if (m.timeouts != nullptr) m.timeouts->add(1);
                if (heat != nullptr) heat->on_timeout(q.disk, obs::DiskHeatModel::now_seconds());
                if (rt != nullptr) {
                    rt->count_timeout();
                    rt->complete(fetch_node, "op.timeout", q.issue_us,
                                 obs::forensic_now_us() - q.issue_us,
                                 {{"disk", std::to_string(q.disk)},
                                  {"elements", std::to_string(q.end - q.begin)},
                                  {"deadline_ms", std::to_string(opts.op_timeout_ms)}});
                }
            }
            if (overdue || !q.status.ok()) {
                all_landed = false;
                // The device is suspect: abandon its remaining queue and
                // exclude it (the plan routed around every excluded disk,
                // so it is new), so a hedge or the replan routes around it.
                s.excluded.push_back(q.disk);
                ++outcome.bad_disks;
                outcome.last_error =
                    overdue ? timeout_error(q.disk, opts.op_timeout_ms) : q.status.error();
                continue;
            }
            // Let any recipe whose sources just landed decode now,
            // overlapping the queues still in flight. Partial mode cannot
            // fail: recipes missing sources wait for the final decode.
            if (!p.decodes().empty()) {
                (void)try_decode(s, /*partial=*/true, TraceCtx{rt, fetch_node}, sink);
            }
        }

        // Every fetch the round issued landed, and the rest were in hand
        // before it; otherwise check each.
        if (all_landed) return outcome;
        for (const auto& access : fetches) {
            if (!fetched.contains(key_of(access.coord))) {
                outcome.complete = false;
                break;
            }
        }
        return outcome;
    };

    // Replan loop: plan, fetch, and when a disk misbehaves mid-flight,
    // re-plan the remaining elements around the grown exclusion set —
    // reusing every element already in hand. A hedge has planned its
    // round already: a slow disk is not a failed one, so that round is
    // neither counted as a replan nor held to max_replans. Each round's
    // plan/fetch pair lands as contiguous phase spans directly under the
    // request root, so the per-phase durations tile the request end to
    // end.
    std::optional<Error> last_error;
    int replans = 0;
    bool grew = false;           // the last round lost a disk: this one is a replan
    bool hedge_planned = false;  // a hedge left this round's plan in s.plan
    for (int round = 0;; ++round) {
        if (!hedge_planned) {
            const std::uint32_t plan_node =
                rt != nullptr ? rt->begin_phase("plan",
                                                {{"round", round},
                                                 {"excluded", static_cast<std::int64_t>(
                                                                  s.excluded.size())}})
                              : 0;
            Status planned = plan_around(s, replan, s.plan);
            if (!planned.ok() && !s.hedged.empty()) {
                // A disk failed after a hedge, and the code cannot route
                // around it and the stragglers both: read them after all.
                s.hedged.clear();
                planned = replan(s.excluded, s.plan);
            }
            if (rt != nullptr) {
                if (planned.ok()) {
                    rt->end_with(plan_node, {{"fetches", s.plan.total_fetched()},
                                             {"decodes", static_cast<std::int64_t>(
                                                             s.plan.decodes().size())}});
                } else {
                    rt->attr(plan_node, "error", planned.error().message);
                    rt->end(plan_node);
                }
            }
            if (!planned.ok()) return planned;
        }
        if (grew) {
            ++replans;
            if (m.replans != nullptr) m.replans->add(1);
            if (rt != nullptr) rt->count_replan();
        }

        const std::uint32_t fetch_node =
            rt != nullptr ? rt->begin_phase("fetch", {{"round", round}}) : 0;
        FetchOutcome outcome = fetch_round(fetch_node);
        if (rt != nullptr) {
            if (outcome.bad_disks > 0) {
                rt->end_with(fetch_node, {{"bad_disks", outcome.bad_disks}});
            } else {
                rt->end(fetch_node);
            }
        }
        if (outcome.last_error.has_value()) last_error = outcome.last_error;
        if (outcome.complete) break;
        grew = outcome.bad_disks > 0;
        hedge_planned = outcome.hedged && !grew;  // a disk lost after the hedge needs a replan
        if (grew ? replans >= opts.max_replans : !hedge_planned) {
            if (last_error.has_value()) return *last_error;
            return Error::io("element fetch failed during plan execution");
        }
    }
    return Status::success();
}

Status PlanExecutor::decode(RequestScratch& s, TraceCtx tc, Sink sink) const {
    if (s.plan.decodes().empty()) return Status::success();
    return try_decode(s, /*partial=*/false, tc, sink);
}

Status PlanExecutor::try_decode(RequestScratch& s, bool partial, TraceCtx tc, Sink sink) const {
    const ExecutorMetrics& m = metrics();
    ElementTable& elements = s.elements;
    // Position-indexed spans for apply_repair; a repair reads only its own
    // sources and target, so entries left by an earlier recipe need no
    // reset.
    std::vector<ByteSpan>& buffers = s.positions;
    buffers.resize(static_cast<std::size_t>(scheme_->code().n()));
    for (const auto& decode : s.plan.decodes()) {
        const codes::ElementRepair& repair = *decode.repair;
        const Key target_key{decode.stripe, decode.group, repair.target_position};
        // Recipes run in plan order (later recipes may chain on earlier
        // targets); ones already satisfied by an eager pass are skipped,
        // so each recipe is decoded and counted exactly once per fetch.
        if (elements.contains(target_key)) continue;
        bool ready = true;
        for (const auto& term : repair.terms) {
            const ByteSpan source =
                elements.find({decode.stripe, decode.group, term.source_position});
            if (source.empty()) {
                if (!partial) return Error::internal("decode source missing from plan");
                ready = false;
                break;
            }
            buffers[static_cast<std::size_t>(term.source_position)] = source;
        }
        if (!ready) continue;
        const double decode_t0 = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
        ByteSpan target = sink_for(target_key, sink);
        const bool sunk = !target.empty();
        if (!sunk) target = elements.stage(static_cast<std::size_t>(element_bytes_), buffer_pool_);
        buffers[static_cast<std::size_t>(repair.target_position)] = target;
        codes::ErasureCode::apply_repair(repair, buffers, pool_);
        elements.emplace(target_key, target, sunk);
        // A straggler's element decoded around its hedge is a hedged read,
        // not a recovery decode (hedged disks are never excluded ones).
        const bool hedged =
            !s.hedged.empty() &&
            std::find(s.hedged.begin(), s.hedged.end(),
                      scheme_->layout().locate({decode.stripe, decode.group,
                                                repair.target_position}).disk) != s.hedged.end();
        if (hedged) {
            if (m.hedged_reads != nullptr) m.hedged_reads->add(1);
            if (tc.rt != nullptr) tc.rt->count_hedge();
        } else {
            if (m.decodes != nullptr) m.decodes->add(1);
            if (tc.rt != nullptr) tc.rt->add_decodes(1);
        }
        if (tc.rt != nullptr) {
            tc.rt->complete(tc.parent, "decode.element", decode_t0,
                            obs::forensic_now_us() - decode_t0,
                            {obs::RequestTrace::IntAttr{"stripe", decode.stripe},
                             {"group", decode.group},
                             {"position", repair.target_position},
                             {"sources", static_cast<std::int64_t>(repair.terms.size())}});
        }
    }
    return Status::success();
}

}  // namespace ecfrm::exec

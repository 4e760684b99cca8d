#include "exec/plan_executor.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "codes/erasure_code.h"

namespace ecfrm::exec {

using core::AccessPlan;
using layout::GroupCoord;

namespace {

/// Backoff before retry `attempt + 1`, with the wait recorded on the
/// request trace (the sleep is the single biggest self-inflicted latency
/// contributor, so it gets its own span rather than vanishing into the
/// parent).
void traced_backoff(const RecoveryOptions& opts, int attempt, DiskId disk, TraceCtx tc) {
    if (opts.backoff_ms <= 0.0) return;
    const double t0 = obs::forensic_now_us();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        opts.backoff_ms * static_cast<double>(1 << attempt)));
    if (tc.rt == nullptr) return;
    tc.rt->complete(tc.parent, "backoff.wait", t0, obs::forensic_now_us() - t0,
                    {{"disk", std::to_string(disk)}, {"attempt", std::to_string(attempt + 1)}});
}

/// One fetch round's outcome: which disks newly misbehaved and the most
/// recent typed error, so the replan loop can route around them (or give
/// up with the right diagnosis).
struct FetchOutcome {
    bool complete = true;
    std::vector<DiskId> bad_disks;
    std::optional<Error> last_error;
};

}  // namespace

Status PlanExecutor::device_read(DiskId disk, RowId row, ByteSpan out) const {
    const RecoveryOptions& opts = options();
    const store::BlockDevice& device = *devices_[static_cast<std::size_t>(disk)];
    auto read = [&] { return device.read(row, out); };
    std::size_t done = 0;
    return submit_queue(
        disk, std::span<const RowId>(&row, 1), opts, 1, &done, {},
        [&](std::size_t, std::size_t, std::size_t* completed) {
            return read_by_deadline(disk, row, opts, {}, completed, read);
        },
        [&](std::size_t) { return read_by_deadline(disk, row, opts, {}, nullptr, read); });
}

Status PlanExecutor::read_by_deadline(DiskId disk, RowId row, const RecoveryOptions& opts,
                                      TraceCtx tc, std::size_t* completed,
                                      FunctionRef<Status()> read) const {
    if (completed != nullptr) *completed = 0;
    const bool timed = opts.op_timeout_ms > 0.0;
    const double t0 = timed ? obs::forensic_now_us() : 0.0;
    Status status = read();
    if (timed && status.ok() && obs::forensic_now_us() - t0 > opts.op_timeout_ms * 1000.0) {
        // Too slow to trust: discard the payload and route around the
        // device rather than retrying into the same stall.
        if (const ExecutorMetrics& m = metrics(); m.timeouts != nullptr) m.timeouts->add(1);
        if (obs::DiskHeatModel* const heat = this->heat(); heat != nullptr) {
            heat->on_timeout(disk, obs::DiskHeatModel::now_seconds());
        }
        if (tc.rt != nullptr) {
            tc.rt->count_timeout();
            tc.rt->complete(tc.parent, "op.timeout", t0, obs::forensic_now_us() - t0,
                            {{"disk", std::to_string(disk)},
                             {"row", std::to_string(row)},
                             {"deadline_ms", std::to_string(opts.op_timeout_ms)}});
        }
        return Error::timeout("disk " + std::to_string(disk) + " read exceeded " +
                              std::to_string(opts.op_timeout_ms) + " ms deadline");
    }
    if (completed != nullptr && status.ok()) *completed = 1;
    return status;
}

template <typename Chunk, typename Single>
Status PlanExecutor::submit_queue(DiskId disk, std::span<const RowId> rows,
                                  const RecoveryOptions& opts, std::size_t depth,
                                  std::size_t* done, TraceCtx tc, Chunk&& chunk,
                                  Single&& single) const {
    *done = 0;
    const ExecutorMetrics& m = metrics();
    obs::DiskHeatModel* const heat = this->heat();
    std::size_t offset = 0;
    while (offset < rows.size()) {
        const std::size_t n = std::min(depth, rows.size() - offset);
        std::size_t completed = 0;
        Status status = chunk(offset, n, &completed);
        *done += completed;
        if (status.ok()) {
            offset += n;
            continue;
        }
        // The op at `offset + completed` failed and the rest of the chunk
        // was never attempted (or, async, left unspecified). Retry just
        // that op under the policy — its in-chunk failure already consumed
        // attempt zero; a write retry rewrites the full payload, healing
        // a torn write.
        if (status.error().code != Error::Code::io_error || opts.max_retries < 1) return status;
        const std::size_t j = offset + completed;
        for (int attempt = 1; attempt <= opts.max_retries; ++attempt) {
            if (m.retries != nullptr) m.retries->add(1);
            if (heat != nullptr) heat->on_retry(disk, obs::DiskHeatModel::now_seconds());
            if (tc.rt != nullptr) {
                tc.rt->count_retry();
                tc.rt->complete(tc.parent, "retry", obs::forensic_now_us(), 0.0,
                                {{"disk", std::to_string(disk)},
                                 {"row", std::to_string(rows[j])},
                                 {"attempt", std::to_string(attempt)},
                                 {"error", status.error().message}});
            }
            traced_backoff(opts, attempt - 1, disk, tc);
            status = single(j);
            if (status.ok() || status.error().code != Error::Code::io_error) break;
        }
        if (!status.ok()) return status;
        *done += 1;
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
    if (r.timed) q.issue_us = obs::forensic_now_us();
    if (r.heat != nullptr) r.heat->on_issue(q.disk);
    const store::BlockDevice& device = *devices_[static_cast<std::size_t>(q.disk)];
    if (pool_ == nullptr && r.data.empty() && r.opts.op_timeout_ms <= 0.0 &&
        device.async_reads()) {
        const std::size_t n = std::min(q.end - q.begin, chunk_depth(r.opts));
        q.batch = device.submit_read_batch(std::span<const RowId>(r.rows).subspan(q.begin, n),
                                           std::span<const ByteSpan>(r.outs).subspan(q.begin, n));
        return;
    }
    finish_queue(r, a, tc);
}

void PlanExecutor::finish_queue(Round& r, std::size_t a, TraceCtx tc) const {
    Round::Queue& q = r.queues[a];
    store::BlockDevice& device = *devices_[static_cast<std::size_t>(q.disk)];
    const bool write = !r.data.empty();
    const auto rows = std::span<const RowId>(r.rows).subspan(q.begin, q.end - q.begin);
    if (write) {
        const auto data = std::span<const ConstByteSpan>(r.data).subspan(q.begin, rows.size());
        q.status = submit_queue(
            q.disk, rows, r.opts, chunk_depth(r.opts), &q.done, tc,
            [&](std::size_t off, std::size_t n, std::size_t* completed) {
                return device.write_batch(rows.subspan(off, n), data.subspan(off, n), completed);
            },
            [&](std::size_t j) { return device.write(rows[j], data[j]); });
    } else {
        // A per-op deadline needs per-op timing, so timed queues issue
        // one read per chunk.
        const bool deadline = r.opts.op_timeout_ms > 0.0;
        const auto outs = std::span<const ByteSpan>(r.outs).subspan(q.begin, rows.size());
        auto read_one = [&](std::size_t j, std::size_t* completed) {
            return read_by_deadline(q.disk, rows[j], r.opts, tc, completed,
                                    [&] { return device.read(rows[j], outs[j]); });
        };
        q.status = submit_queue(
            q.disk, rows, r.opts, deadline ? 1 : chunk_depth(r.opts), &q.done, tc,
            [&](std::size_t off, std::size_t n, std::size_t* completed) {
                if (deadline) return read_one(off, completed);
                if (q.batch == nullptr) {
                    return device.read_batch(rows.subspan(off, n), outs.subspan(off, n), completed);
                }
                auto in_flight = std::move(q.batch);  // the first chunk, submitted at start
                return in_flight->await(completed);
            },
            [&](std::size_t j) { return read_one(j, nullptr); });
    }
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
    r->heat = heat();
    r->timed = tc.rt != nullptr || r->heat != nullptr;
    r->rows.reserve(writes.size());
    r->data.reserve(writes.size());
    const std::vector<core::WriteBatch> batches = plan.batches();
    r->queues.reserve(batches.size());
    for (const core::WriteBatch& batch : batches) {
        Round::Queue& q = r->queues.emplace_back();
        q.disk = batch.disk;
        q.begin = r->rows.size();
        r->rows.insert(r->rows.end(), batch.rows.begin(), batch.rows.end());
        for (std::size_t i : batch.write_indices) r->data.push_back(payloads[writes[i].payload]);
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

void PlanExecutor::hedge(const Round& r, const std::vector<DiskId>& excluded,
                         ElementTable& fetched, TraceCtx tc, double deadline_ms,
                         bool auto_deadline) const {
    const ExecutorMetrics& m = metrics();
    std::vector<char> avoid(devices_.size(), 0);
    std::size_t stragglers = 0;
    for (const Round::Queue& q : r.queues) {
        if (q.reaped) continue;
        avoid[static_cast<std::size_t>(q.disk)] = 1;
        ++stragglers;
    }
    for (DiskId d : excluded) avoid[static_cast<std::size_t>(d)] = 1;
    if (tc.rt != nullptr) {
        tc.rt->complete(tc.parent, "hedge.trigger", obs::forensic_now_us(), 0.0,
                        {{"stragglers", std::to_string(stragglers)},
                         {"deadline_ms", std::to_string(deadline_ms)},
                         {"auto", auto_deadline ? "true" : "false"}});
    }
    for (const Round::Queue& q : r.queues) {
        if (q.reaped) continue;
        for (std::size_t j = q.begin; j < q.end; ++j) {
            const auto [stripe, group, position] = r.elems[j].key;
            if (m.hedged_reads != nullptr) m.hedged_reads->add(1);
            if (tc.rt != nullptr) tc.rt->count_hedge();
            const ByteSpan target =
                fetched.stage(static_cast<std::size_t>(element_bytes_), buffer_pool_);
            const double t0 = tc.rt != nullptr ? obs::forensic_now_us() : 0.0;
            const bool decoded = rebuild_element({stripe, group, position}, avoid, target).ok();
            if (tc.rt != nullptr) {
                tc.rt->complete(tc.parent, "hedge.decode", t0, obs::forensic_now_us() - t0,
                                {{"disk", std::to_string(q.disk)},
                                 {"stripe", std::to_string(stripe)},
                                 {"group", std::to_string(group)},
                                 {"position", std::to_string(position)},
                                 {"decoded", decoded ? "true" : "false"}});
            }
            if (decoded) fetched.emplace(r.elems[j].key, target, /*sunk=*/false);
        }
    }
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

    // Elements fetched (or hedge-decoded) so far, kept across replan
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
    // span on the request trace; per-disk batches, retries, hedge
    // decodes and eager decodes hang under it.
    auto fetch_round = [&](std::uint32_t fetch_node) -> FetchOutcome {
        FetchOutcome outcome;
        const AccessPlan& p = s.plan;
        const auto& fetches = p.fetches();
        p.batches(s.batches);
        const core::PlanBatches& batches = s.batches;
        fetched.reserve(fetched.size() + fetches.size() + p.decodes().size());

        // Effective hedge deadline for this round: static hedge_ms, or —
        // under auto_hedge with a warm heat window — derived from the
        // participating disks' live windowed p99 (median * factor), so
        // the deadline tracks the fleet's actual speed instead of a
        // constant tuned for hardware that may no longer exist. Hedging
        // needs a pool: the straggler must run somewhere while this
        // thread decodes around it.
        double hedge_ms = pool_ != nullptr ? opts.hedge_ms : 0.0;
        if (opts.auto_hedge && heat != nullptr && pool_ != nullptr) {
            std::vector<int> participating;
            for (const core::DiskBatch& b : batches) participating.push_back(b.disk);
            const double derived =
                heat->hedge_deadline_ms(participating, opts.auto_hedge_factor,
                                        opts.auto_hedge_min_ms,
                                        obs::DiskHeatModel::now_seconds());
            if (derived > 0.0) hedge_ms = derived;
        }
        const bool hedged = hedge_ms > 0.0;

        // Queue destinations: the zero-copy sink where it routes an
        // element, else staging — held by the element table, or, when
        // the round is hedged, by the round itself: a straggling queue may
        // outlive this frame, so it must own its buffers outright.
        Round& r = next_round(s);
        r.opts = opts;
        r.heat = heat;
        r.timed = rt != nullptr || heat != nullptr;
        r.rows.reserve(fetches.size());
        r.outs.reserve(fetches.size());
        r.elems.reserve(fetches.size());
        r.queues.reserve(batches.size());
        for (const core::DiskBatch& batch : batches) {
            const std::size_t begin = r.rows.size();
            for (std::size_t j = 0; j < batch.fetch_indices.size(); ++j) {
                const Key key = key_of(fetches[batch.fetch_indices[j]].coord);
                if (fetched.contains(key)) continue;
                ByteSpan out;
                bool sunk = false;
                if (hedged) {
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

        // Hedged queues may outlive the request, so they get no trace
        // context; their disk.batch spans are recorded here at reap.
        const TraceCtx queue_tc = hedged ? TraceCtx{} : TraceCtx{rt, fetch_node};
        start_round(s.round, queue_tc, /*join=*/!hedged);
        const auto deadline =
            hedged ? std::chrono::steady_clock::now() +
                         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(hedge_ms))
                   : std::chrono::steady_clock::time_point{};
        bool hedge_fired = false;

        // True when every unfinished queue's elements are already in hand
        // (hedge-decoded), so none of them needs waiting for.
        auto stragglers_covered = [&] {
            for (const Round::Queue& q : r.queues) {
                if (q.reaped || q.finished) continue;
                for (std::size_t j = q.begin; j < q.end; ++j) {
                    if (!fetched.contains(r.elems[j].key)) return false;
                }
            }
            return true;
        };

        // Reap: without a pool in submission order, finishing each queue
        // in place (an async device's await lands here, so the disks
        // overlap); with one, in completion order. A hedge is a deadline
        // on this wait.
        const std::size_t n = r.queues.size();
        bool all_landed = true;  // every queue reaped, each op landed
        for (std::size_t reaped = 0; reaped < n;) {
            std::size_t a = reaped;
            if (pool_ == nullptr) {
                if (!r.queues[a].finished) finish_queue(r, a, queue_tc);
            } else {
                std::unique_lock<std::mutex> lock(r.mu);
                auto ready = [&] {
                    for (a = 0; a < n; ++a) {
                        if (r.queues[a].finished && !r.queues[a].reaped) return true;
                    }
                    return false;
                };
                if (hedged && !hedge_fired) {
                    if (!r.cv.wait_until(lock, deadline, ready)) {
                        lock.unlock();
                        hedge_fired = true;
                        hedge(r, s.excluded, fetched, TraceCtx{rt, fetch_node}, hedge_ms,
                              opts.auto_hedge);
                        continue;
                    }
                } else {
                    // After a hedge, a straggler whose elements could not
                    // all be decoded is joined after all — correctness
                    // beats the deadline. (Typical cause: every queue
                    // missed the deadline at once, e.g. a saturated pool,
                    // so no disks were left to decode from.) The rest stay
                    // orphaned on the pool; their late payload is dropped.
                    r.cv.wait(lock, [&] {
                        return ready() || (hedge_fired && stragglers_covered());
                    });
                    if (a == n) {
                        all_landed = false;
                        break;
                    }
                }
            }

            // The epilogue every queue goes through.
            Round::Queue& q = r.queues[a];
            q.reaped = true;
            ++reaped;
            trace_queue(TraceCtx{rt, fetch_node}, "disk.batch", q);
            for (std::size_t j = q.begin; j < q.begin + q.done; ++j) {
                if (fetched.emplace(r.elems[j].key, r.outs[j], r.elems[j].sunk) && hedged) {
                    fetched.hold(std::move(r.owned[j]));
                }
            }
            if (!q.status.ok()) {
                all_landed = false;
                // The device is suspect: abandon its remaining queue and
                // let the replan route around it.
                outcome.bad_disks.push_back(q.disk);
                outcome.last_error = q.status.error();
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
    // exclude it and re-plan the remaining elements around it — reusing
    // every element already in hand. Each round's plan/fetch pair lands
    // as contiguous phase spans directly under the request root, so the
    // per-phase durations tile the request end to end.
    std::optional<Error> last_error;
    for (int round = 0;; ++round) {
        const std::uint32_t plan_node =
            rt != nullptr ? rt->begin_phase("plan",
                                            {{"round", round},
                                             {"excluded", static_cast<std::int64_t>(
                                                              s.excluded.size())}})
                          : 0;
        const Status planned = replan(s.excluded, s.plan);
        if (rt != nullptr) {
            if (planned.ok()) {
                rt->end_with(plan_node,
                             {{"fetches", s.plan.total_fetched()},
                              {"decodes", static_cast<std::int64_t>(s.plan.decodes().size())}});
            } else {
                rt->attr(plan_node, "error", planned.error().message);
                rt->end(plan_node);
            }
        }
        if (!planned.ok()) return planned;
        if (round > 0) {
            if (m.replans != nullptr) m.replans->add(1);
            if (rt != nullptr) rt->count_replan();
        }

        const std::uint32_t fetch_node =
            rt != nullptr ? rt->begin_phase("fetch", {{"round", round}}) : 0;
        FetchOutcome outcome = fetch_round(fetch_node);
        if (rt != nullptr) {
            if (!outcome.bad_disks.empty()) {
                rt->end_with(fetch_node, {{"bad_disks", static_cast<std::int64_t>(
                                                            outcome.bad_disks.size())}});
            } else {
                rt->end(fetch_node);
            }
        }
        if (outcome.last_error.has_value()) last_error = outcome.last_error;
        if (outcome.complete) break;
        bool grew = false;
        for (DiskId d : outcome.bad_disks) {
            if (std::find(s.excluded.begin(), s.excluded.end(), d) == s.excluded.end()) {
                s.excluded.push_back(d);
                grew = true;
            }
        }
        if (!grew || round >= opts.max_replans) {
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
        if (m.decodes != nullptr) m.decodes->add(1);
        if (tc.rt != nullptr) {
            tc.rt->add_decodes(1);
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

Status PlanExecutor::rebuild_element(const GroupCoord& coord, const std::vector<char>& avoid,
                                     ByteSpan target) const {
    const auto& code = scheme_->code();
    std::vector<int> available;
    for (int p = 0; p < code.n(); ++p) {
        if (p == coord.position) continue;
        const Location ploc = scheme_->layout().locate({coord.stripe, coord.group, p});
        if (!avoid[static_cast<std::size_t>(ploc.disk)]) available.push_back(p);
    }
    const codes::ElementRepair* repair = code.cached_repair(coord.position, available);
    if (repair == nullptr) return Error::undecodable("hedged element has too few sources left");
    const auto eb = static_cast<std::size_t>(element_bytes_);
    std::vector<PooledBuffer> srcs;
    std::vector<ByteSpan> buffers(static_cast<std::size_t>(code.n()));
    srcs.reserve(repair->terms.size());
    for (const auto& term : repair->terms) {
        const Location sloc =
            scheme_->layout().locate({coord.stripe, coord.group, term.source_position});
        srcs.push_back(staging_buffer(eb, buffer_pool_));
        const ByteSpan src = srcs.back().span().first(eb);
        auto status = device_read(sloc.disk, sloc.row, src);
        if (!status.ok()) return status;
        buffers[static_cast<std::size_t>(term.source_position)] = src;
    }
    buffers[static_cast<std::size_t>(coord.position)] = target;
    codes::ErasureCode::apply_repair(*repair, buffers);
    return Status::success();
}

Status PlanExecutor::read_group(StripeId stripe, int group, std::span<const ByteSpan> bufs) const {
    const int n = scheme_->code().n();
    if (static_cast<int>(bufs.size()) != n) return Error::invalid("read_group needs n buffers");
    struct Item {
        Location loc;
        int position;
    };
    std::vector<Item> items;
    items.reserve(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
        items.push_back({scheme_->layout().locate({stripe, group, p}), p});
    }
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.loc.disk != b.loc.disk ? a.loc.disk < b.loc.disk : a.loc.row < b.loc.row;
    });
    std::size_t i = 0;
    while (i < items.size()) {
        std::size_t j = i;
        while (j < items.size() && items[j].loc.disk == items[i].loc.disk) ++j;
        std::vector<RowId> rows;
        std::vector<ByteSpan> outs;
        rows.reserve(j - i);
        outs.reserve(j - i);
        for (std::size_t t = i; t < j; ++t) {
            rows.push_back(items[t].loc.row);
            outs.push_back(bufs[static_cast<std::size_t>(items[t].position)]);
        }
        auto status = devices_[static_cast<std::size_t>(items[i].loc.disk)]->read_batch(
            std::span<const RowId>(rows.data(), rows.size()),
            std::span<const ByteSpan>(outs.data(), outs.size()));
        if (!status.ok()) return status;
        i = j;
    }
    return Status::success();
}

}  // namespace ecfrm::exec

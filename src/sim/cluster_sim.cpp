#include "sim/cluster_sim.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

#include "common/stats.h"

namespace ecfrm::sim {

double ClusterStats::mean_latency() const {
    OnlineStats stats;
    for (const auto& r : results) stats.add(r.latency_seconds());
    return stats.count() == 0 ? 0.0 : stats.mean();
}

double ClusterStats::p99_latency() const {
    std::vector<double> lat;
    lat.reserve(results.size());
    for (const auto& r : results) lat.push_back(r.latency_seconds());
    return percentile(std::move(lat), 0.99);
}

double ClusterStats::throughput_mb_s() const {
    if (makespan_seconds <= 0.0) return 0.0;
    std::int64_t bytes = 0;
    for (const auto& r : results) bytes += r.requested_bytes;
    return static_cast<double>(bytes) / 1e6 / makespan_seconds;
}

ClusterStats run_cluster(std::vector<ClusterRequest> requests, const DiskModel& model, int disks,
                         Rng& rng, obs::MetricRegistry* metrics,
                         obs::RequestForensics* forensics, obs::DiskHeatModel* heat) {
    EventQueue queue;
    // Per-disk FIFO: the time at which the disk becomes free.
    std::vector<double> disk_free(static_cast<std::size_t>(disks), 0.0);

    // Cached per-disk metric handles (registered once, recorded per batch).
    struct DiskMetrics {
        obs::Histogram* service = nullptr;
        obs::Histogram* queue_depth = nullptr;
    };
    std::vector<DiskMetrics> disk_metrics;
    obs::Histogram* request_latency = nullptr;
    if (metrics != nullptr) {
        disk_metrics.resize(static_cast<std::size_t>(disks));
        for (int d = 0; d < disks; ++d) {
            const obs::Labels labels{{"disk", std::to_string(d)}};
            disk_metrics[static_cast<std::size_t>(d)].service =
                &metrics->histogram("ecfrm_sim_disk_service_seconds", labels);
            disk_metrics[static_cast<std::size_t>(d)].queue_depth =
                &metrics->histogram("ecfrm_sim_disk_queue_depth", labels);
        }
        request_latency = &metrics->histogram("ecfrm_sim_request_latency_seconds");
    }
    // Batches queued or in service per disk, tracked on the simulated clock.
    std::vector<int> disk_outstanding(static_cast<std::size_t>(disks), 0);

    ClusterStats stats;
    stats.results.resize(requests.size());

    // Per-request submission batches: the plan's own schedule model
    // (AccessPlan::batches() for reads, WritePlan::batches() for writes
    // and repairs) — the exact units the real executor issues, so
    // simulated and real execution cannot drift.
    struct Pending {
        core::PlanBatches batches;
        int outstanding = 0;
    };
    std::vector<Pending> pending(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        auto& p = pending[i];
        const bool read = requests[i].kind == SimJobKind::read;
        p.batches = read ? requests[i].plan.batches() : requests[i].write.batches();
        p.outstanding = static_cast<int>(p.batches.size());
        stats.results[i].requested_bytes =
            (read ? requests[i].plan.requested() : requests[i].write.total_writes()) *
            model.element_bytes();
        stats.results[i].arrival_seconds = requests[i].arrival_seconds;
    }

    // Per-request forensic traces on the simulated clock. Traces outlive
    // their arrival event (finish fires from the completion event), so
    // they live here, parallel to `pending`.
    std::vector<std::shared_ptr<obs::RequestTrace>> traces;
    std::vector<std::uint32_t> fetch_nodes;
    if (forensics != nullptr) {
        traces.resize(requests.size());
        fetch_nodes.assign(requests.size(), 0);
    }

    // Arrival events: enqueue each disk batch on its disk. FIFO order is
    // arrival order (EventQueue breaks ties by insertion).
    for (std::size_t i = 0; i < requests.size(); ++i) {
        queue.schedule_at(requests[i].arrival_seconds, [&, i] {
            auto& p = pending[i];
            const SimJobKind kind = requests[i].kind;
            obs::RequestTrace* rt = nullptr;
            std::uint32_t fetch_node = 0;
            if (forensics != nullptr) {
                const double arrival_us = queue.now() * 1e6;
                obs::RequestClass cls = obs::RequestClass::normal;
                const char* phase = "fetch";
                std::int64_t elements = 0;
                if (kind == SimJobKind::read) {
                    if (!requests[i].plan.decodes().empty()) cls = obs::RequestClass::degraded;
                    elements = requests[i].plan.requested();
                } else if (kind == SimJobKind::write) {
                    cls = obs::RequestClass::write;
                    phase = "write";
                    elements = requests[i].write.total_writes();
                } else {
                    // Repair traffic burns the scrub class's budget, not
                    // the foreground read classes it competes with.
                    cls = obs::RequestClass::scrub;
                    phase = "rebuild";
                    elements = requests[i].write.total_writes();
                }
                traces[i] = forensics->start_at(cls, arrival_us);
                rt = traces[i].get();
                rt->attr(obs::RequestTrace::kRoot, "batches",
                         static_cast<std::int64_t>(p.batches.size()));
                rt->attr(obs::RequestTrace::kRoot, "elements", elements);
                if (kind == SimJobKind::read) {
                    rt->add_decodes(static_cast<std::int64_t>(requests[i].plan.decodes().size()));
                }
                fetch_node = rt->begin(obs::RequestTrace::kRoot, phase, arrival_us);
                fetch_nodes[i] = fetch_node;
            }
            if (heat != nullptr && kind == SimJobKind::read && p.outstanding > 0) {
                // Only read requests feed measured_max_load: it is the
                // measured counterpart of the read-side closed-form
                // analysis, and the real store feeds it per fetch only.
                std::size_t max_load = 0;
                for (const auto& batch : p.batches) {
                    max_load = std::max(max_load, batch.rows.size());
                }
                heat->on_request(static_cast<std::int64_t>(max_load), queue.now());
            }
            if (p.outstanding == 0) {
                // Degenerate empty plan: completes instantly on arrival.
                stats.results[i].completion_seconds = queue.now();
                if (request_latency != nullptr) {
                    request_latency->record(stats.results[i].latency_seconds());
                }
                if (rt != nullptr) {
                    rt->end(fetch_node, queue.now() * 1e6);
                    forensics->finish_at(traces[i], true, queue.now() * 1e6);
                }
                return;
            }
            for (const core::DiskBatch& batch : p.batches) {
                const int d = batch.disk;
                const std::size_t batch_elements = batch.rows.size();
                const double start = std::max(queue.now(), disk_free[static_cast<std::size_t>(d)]);
                const double service =
                    model.service_seconds({batch.rows.begin(), batch.rows.end()}, rng);
                const double done = start + service;
                disk_free[static_cast<std::size_t>(d)] = done;
                if (metrics != nullptr) {
                    disk_metrics[static_cast<std::size_t>(d)].service->record(service);
                    disk_metrics[static_cast<std::size_t>(d)].queue_depth->record(
                        disk_outstanding[static_cast<std::size_t>(d)]);
                }
                if (rt != nullptr) {
                    // Queue wait shows up as its own span so a trace makes
                    // the FIFO delay visible, not just the service time.
                    if (start > queue.now()) {
                        rt->complete(fetch_node, "queue.wait", queue.now() * 1e6,
                                     (start - queue.now()) * 1e6, {{"disk", std::to_string(d)}});
                    }
                    rt->complete(
                        fetch_node, "disk.batch", start * 1e6, service * 1e6,
                        {{"disk", std::to_string(d)},
                         {"elements", std::to_string(batch_elements)},
                         {"depth", std::to_string(disk_outstanding[static_cast<std::size_t>(d)])}});
                }
                ++disk_outstanding[static_cast<std::size_t>(d)];
                const double submitted = queue.now();
                if (heat != nullptr) heat->on_issue(d);
                queue.schedule_at(done, [&, i, d, kind, submitted, batch_elements] {
                    if (heat != nullptr) {
                        if (kind == SimJobKind::read) {
                            heat->on_complete(d, static_cast<std::int64_t>(batch_elements),
                                              static_cast<std::int64_t>(batch_elements) *
                                                  model.element_bytes(),
                                              (queue.now() - submitted) * 1e6, queue.now());
                        } else {
                            // Same split as the real executor: write-side
                            // completions count load, never read latency.
                            heat->on_write_complete(d, static_cast<std::int64_t>(batch_elements),
                                                    static_cast<std::int64_t>(batch_elements) *
                                                        model.element_bytes(),
                                                    queue.now());
                        }
                    }
                    --disk_outstanding[static_cast<std::size_t>(d)];
                    auto& pi = pending[i];
                    assert(pi.outstanding > 0);
                    if (--pi.outstanding == 0) {
                        stats.results[i].completion_seconds = queue.now();
                        if (request_latency != nullptr) {
                            request_latency->record(stats.results[i].latency_seconds());
                        }
                        if (forensics != nullptr && traces[i] != nullptr) {
                            traces[i]->end(fetch_nodes[i], queue.now() * 1e6);
                            forensics->finish_at(traces[i], true, queue.now() * 1e6);
                        }
                    }
                });
            }
        });
    }

    stats.makespan_seconds = queue.run();
    return stats;
}

}  // namespace ecfrm::sim

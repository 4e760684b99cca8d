// DiskHeatModel: a live per-device health/heat scoreboard with a
// cluster-level balance view — the runtime counterpart of the offline
// closed-form load analysis in core/analysis.
//
// The planners *predict* how a layout spreads read load across disks;
// this model *measures* it. Each device tracks, over a sliding window
// (reusing the obs::window machinery): completion latency (EWMA mean +
// windowed mean/p99), ops/bytes throughput, error/timeout/retry counts,
// and a live in-flight op gauge. The cluster view folds those into
// balance metrics — max/mean load factor, coefficient-of-variation skew
// index, hottest disk — plus the windowed mean of per-request max batch
// depth, which for fixed-size uniform reads converges to exactly
// core/analysis::closed_form_max_load (the predicted-vs-measured test
// hook). A straggler score flags devices whose windowed mean latency
// deviates from the fleet median by `straggler_factor`.
//
// The model is a *control input*, not just a dashboard: the executor's
// auto_hedge policy derives its hedge deadline from the fleet's windowed
// p99 (hedge_deadline_ms), and the degraded planner's health tie-break
// consumes straggler_mask().
//
// Cost model: hooks fire once per disk per fetch round (not per element
// op), so the mutex inside each windowed structure is touched a handful
// of times per request; in-flight tracking is one relaxed atomic per
// issue/complete. Clock domain is the caller's (wall or simulated) —
// stick to one per instance; wall-clock callers use now_seconds().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/window.h"

namespace ecfrm::obs {

struct HeatOptions {
    double window_seconds = 60.0;
    int sub_windows = 6;
    /// EWMA weight of the newest latency sample (per completion).
    double ewma_alpha = 0.2;
    /// Straggler flag: windowed mean latency >= factor * fleet median.
    double straggler_factor = 3.0;
    /// Windowed completions a disk needs before it is judged (straggler
    /// flagging and hedge-deadline derivation both skip colder disks).
    std::int64_t min_ops = 16;
};

/// Point-in-time view of one device (all windowed figures cover the
/// model's sliding window as of the query's `now`).
struct DiskHeatSnapshot {
    int disk = 0;
    std::int64_t in_flight = 0;
    std::int64_t total_ops = 0;    // cumulative element ops
    std::int64_t total_bytes = 0;  // cumulative payload bytes
    std::int64_t ops = 0;          // element ops in window
    std::int64_t bytes = 0;        // payload bytes in window
    double ops_per_sec = 0.0;
    double bytes_per_sec = 0.0;
    double ewma_latency_us = 0.0;  // EWMA of per-completion latency
    double mean_latency_us = 0.0;  // windowed mean
    double p99_latency_us = 0.0;   // windowed p99
    std::int64_t errors = 0;       // in window
    std::int64_t timeouts = 0;     // in window
    std::int64_t retries = 0;      // in window
    double error_rate = 0.0;       // (errors + timeouts) per completion
    /// mean_latency / fleet median of means; 0 when the disk (or the
    /// fleet) lacks min_ops samples.
    double straggler_score = 0.0;
    bool straggler = false;
};

/// Cluster-level balance view over the same window.
struct ClusterHeatSnapshot {
    double now_seconds = 0.0;
    double window_seconds = 0.0;
    int disks = 0;
    std::int64_t requests = 0;       // requests observed in window
    /// Windowed mean of per-request max per-disk batch depth — the
    /// measured counterpart of core/analysis::closed_form_max_load.
    double measured_max_load = 0.0;
    /// max/mean of per-disk windowed ops (1.0 = perfectly balanced;
    /// 0 when the window is empty).
    double load_factor = 0.0;
    /// Coefficient of variation (stddev/mean) of per-disk windowed ops.
    double skew_cov = 0.0;
    int hottest_disk = -1;           // most windowed ops (-1: idle)
    double fleet_median_latency_us = 0.0;  // median of windowed means
    std::vector<int> stragglers;     // flagged disk ids, ascending
};

class DiskHeatModel {
  public:
    explicit DiskHeatModel(int disks, HeatOptions options = {});

    DiskHeatModel(const DiskHeatModel&) = delete;
    DiskHeatModel& operator=(const DiskHeatModel&) = delete;

    int disks() const { return static_cast<int>(per_disk_.size()); }
    const HeatOptions& options() const { return options_; }

    /// Monotonic wall-clock seconds for callers without their own clock
    /// (the simulators pass sim-time instead).
    static double now_seconds();

    // ---- feed hooks (tolerant of out-of-range disk ids: no-ops) ----

    /// A submission queue for `disk` went in flight.
    void on_issue(int disk);
    /// The queue completed: `ops` element reads totalling `bytes`, the
    /// whole queue taking `latency_us`. Decrements in-flight.
    void on_complete(int disk, std::int64_t ops, std::int64_t bytes, double latency_us,
                     double now_seconds);
    /// A WRITE queue completed: accounted into the load side of the
    /// scoreboard (in-flight, ops, bytes) but kept out of the latency
    /// window and EWMA — those drive the READ hedge deadline and
    /// straggler flagging, and batched write-queue durations have a
    /// different shape that would poison both (a fill phase of fast
    /// write samples collapses the derived deadline below a healthy
    /// read queue's latency, hedging everything).
    void on_write_complete(int disk, std::int64_t ops, std::int64_t bytes, double now_seconds);
    void on_error(int disk, double now_seconds);
    void on_timeout(int disk, double now_seconds);
    void on_retry(int disk, double now_seconds);
    /// One request's first-round max per-disk batch depth (elements).
    void on_request(std::int64_t max_load, double now_seconds);

    std::int64_t in_flight(int disk) const;

    // ---- queries ----

    DiskHeatSnapshot disk_snapshot(int disk, double now_seconds) const;
    ClusterHeatSnapshot snapshot(double now_seconds) const;

    /// Per-disk straggler flags (size disks(), 1 = flagged). Cheap enough
    /// to call per degraded replan.
    std::vector<char> straggler_mask(double now_seconds) const;
    /// straggler_mask() into `out` (entry d for disk d; entries past
    /// disks() are 0). Allocates nothing for up to 64 disks.
    void straggler_mask(double now_seconds, std::span<char> out) const;

    /// Adaptive hedge deadline: factor * median of the participating
    /// disks' windowed p99 latencies (in ms), clamped to at least
    /// `min_ms`. The median makes a single straggler unable to drag the
    /// deadline up to its own tail. Returns 0 when fewer than two
    /// participants have min_ops windowed samples (caller falls back to
    /// its static policy).
    double hedge_deadline_ms(const std::vector<int>& participating, double factor, double min_ms,
                             double now_seconds) const;

    // ---- exports ----

    /// "ecfrm.disks.v1": per-disk snapshot array (the /disks route).
    std::string disks_json(double now_seconds) const;
    /// "ecfrm.heat.v1": cluster balance + per-disk detail (the /heat
    /// route and `ecfrm_cli heat --out`).
    std::string heat_json(double now_seconds) const;
    /// One JSON object per disk per line (NDJSON dump).
    std::string disks_ndjson(double now_seconds) const;

  private:
    struct PerDisk {
        std::atomic<std::int64_t> in_flight{0};
        std::atomic<std::int64_t> total_ops{0};
        std::atomic<std::int64_t> total_bytes{0};
        std::atomic<double> ewma_us{0.0};
        std::atomic<bool> ewma_primed{false};
        WindowedHistogram latency_us;
        WindowedCounter ops;
        WindowedCounter bytes;
        WindowedCounter errors;
        WindowedCounter timeouts;
        WindowedCounter retries;

        explicit PerDisk(const HeatOptions& o)
            : latency_us(o.window_seconds, o.sub_windows),
              ops(o.window_seconds, o.sub_windows),
              bytes(o.window_seconds, o.sub_windows),
              errors(o.window_seconds, o.sub_windows),
              timeouts(o.window_seconds, o.sub_windows),
              retries(o.window_seconds, o.sub_windows) {}
    };

    bool valid(int disk) const { return disk >= 0 && disk < disks(); }
    /// Median of per-disk windowed mean latencies over disks with
    /// min_ops samples (0 when fewer than one qualifies).
    double fleet_median_mean_us(double now_seconds) const;

    HeatOptions options_;
    std::vector<std::unique_ptr<PerDisk>> per_disk_;
    WindowedHistogram request_max_load_;
};

}  // namespace ecfrm::obs

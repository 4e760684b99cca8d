// Sliding-window latency statistics: a ring of log-bucketed sub-windows
// (reusing Histogram's bucket geometry) that answers "what is p99 over
// the last W seconds", plus an SLO tracker that turns per-request
// good/bad outcomes into error-budget burn rates.
//
// The cumulative Histogram in metrics.h can only say "p99 since process
// start" — a tail regression during a fault burst is invisible once the
// denominator is large. The windowed variants forget: each sub-window
// covers window/sub_windows seconds, expired sub-windows are cleared on
// the next record/advance, and every query aggregates only the live
// ring. Every class here is mutex-guarded, which keeps the bucket array
// compact (uint32 counts, no atomics). The lock is not free on the read
// path: PlanExecutor calls DiskHeatModel::on_complete once per disk
// queue, and each call records into three windows (ops, bytes, latency),
// so a healthy read spread over ~7 disks takes ~21 lock round-trips.
//
// Clock domain is the caller's: pass seconds from any monotonic clock
// (wall or simulated), but stick to one per instance.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ecfrm::obs {

/// Sliding-window histogram over the last `window_seconds`, resolved
/// into `sub_windows` equal slices. record() and the queries take
/// `now_seconds` explicitly so tests (and the simulators) can drive the
/// clock; a query also expires old slices, so a stalled workload decays
/// to empty.
class WindowedHistogram {
  public:
    explicit WindowedHistogram(double window_seconds = 60.0, int sub_windows = 6);

    WindowedHistogram(const WindowedHistogram&) = delete;
    WindowedHistogram& operator=(const WindowedHistogram&) = delete;

    double window_seconds() const { return sub_seconds_ * static_cast<double>(subs_.size()); }
    double sub_seconds() const { return sub_seconds_; }
    int sub_windows() const { return static_cast<int>(subs_.size()); }

    void record(double value, double now_seconds);

    /// Samples currently inside the window.
    std::int64_t count(double now_seconds) const;
    double sum(double now_seconds) const;
    double mean(double now_seconds) const;

    /// Nearest-rank quantile over the live sub-windows (same bucket
    /// geometry and midpoint/clamp convention as Histogram::percentile).
    /// Returns 0 when the window is empty. q outside [0, 1] clamps.
    double percentile(double q, double now_seconds) const;

  private:
    struct Sub {
        std::int64_t epoch = -1;  // floor(now / sub_seconds); -1 = never used
        std::vector<std::uint32_t> buckets;
        std::int64_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    std::int64_t epoch_of(double now_seconds) const;
    /// Clear sub-windows that have slid out of [epoch - subs + 1, epoch].
    void advance(std::int64_t epoch) const;

    double sub_seconds_;
    mutable std::mutex mu_;
    mutable std::vector<Sub> subs_;
};

/// Sliding-window counter: add() deltas land in the current sub-window
/// and total() sums only the live ring, so "ops in the last W seconds"
/// decays to zero when traffic stops. Same clock contract as
/// WindowedHistogram. rate() divides by the window span, yielding a
/// per-second figure that smooths over the sub-window granularity.
class WindowedCounter {
  public:
    explicit WindowedCounter(double window_seconds = 60.0, int sub_windows = 6);

    WindowedCounter(const WindowedCounter&) = delete;
    WindowedCounter& operator=(const WindowedCounter&) = delete;

    double window_seconds() const { return sub_seconds_ * static_cast<double>(subs_.size()); }

    void add(std::int64_t delta, double now_seconds);

    /// Sum of deltas inside the live window.
    std::int64_t total(double now_seconds) const;
    /// total / window_seconds (a smoothed per-second rate).
    double rate(double now_seconds) const;

  private:
    struct Sub {
        std::int64_t epoch = -1;
        std::int64_t value = 0;
    };

    std::int64_t epoch_of(double now_seconds) const;
    void advance(std::int64_t epoch) const;

    double sub_seconds_;
    mutable std::mutex mu_;
    mutable std::vector<Sub> subs_;
};

/// Windowed service-level objective: "`objective` of requests complete
/// under `target_latency_us`". Each finished request is good or bad
/// (bad: over target, or failed outright); the tracker keeps good/bad
/// totals per sub-window and reports the burn rate — the ratio of the
/// observed bad fraction to the budgeted one (1 - objective) — over a
/// short "fast" window (last sub-window, pages quickly) and the full
/// "slow" window (confirms a sustained burn). Burn rate 1.0 means the
/// budget is being consumed exactly as provisioned; 14.4 is the classic
/// page-now threshold.
struct SloOptions {
    double target_latency_us = 100000.0;  // 100 ms
    double objective = 0.99;              // fraction of requests under target
    double window_seconds = 60.0;
    int sub_windows = 6;
};

class SloTracker {
  public:
    /// Namespace-scope so `= {}` default arguments work (a nested
    /// struct's member initializers only complete with the outer class).
    using Options = SloOptions;

    struct Snapshot {
        std::int64_t total = 0;    // requests in the full window
        std::int64_t breaches = 0; // bad requests in the full window
        double compliance = 1.0;   // good fraction over the window (1.0 when idle)
        double fast_burn = 0.0;    // burn rate over the newest sub-window
        double slow_burn = 0.0;    // burn rate over the full window
        double budget_remaining = 1.0;  // 1 - slow_burn, floored at 0
    };

    explicit SloTracker(Options options = {});

    SloTracker(const SloTracker&) = delete;
    SloTracker& operator=(const SloTracker&) = delete;

    const Options& options() const { return options_; }

    /// `ok == false` is always a breach; otherwise the request breaches
    /// when its latency exceeds the target.
    void record(double latency_us, bool ok, double now_seconds);

    Snapshot snapshot(double now_seconds) const;

  private:
    struct Sub {
        std::int64_t epoch = -1;
        std::int64_t good = 0;
        std::int64_t bad = 0;
    };

    std::int64_t epoch_of(double now_seconds) const;
    void advance(std::int64_t epoch) const;

    Options options_;
    double sub_seconds_;
    mutable std::mutex mu_;
    mutable std::vector<Sub> subs_;
};

}  // namespace ecfrm::obs

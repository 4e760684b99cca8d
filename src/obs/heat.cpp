#include "obs/heat.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace ecfrm::obs {

namespace {

/// JSON number formatting: integers stay integral, everything else gets
/// enough digits to round-trip the interesting range without noise.
std::string num(double v) {
    if (std::floor(v) == v && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

double median_of(std::span<double> values) {
    if (values.empty()) return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                     values.end());
    double m = values[mid];
    if (values.size() % 2 == 0) {
        const double lower =
            *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
        m = 0.5 * (m + lower);
    }
    return m;
}

void append_disk_json(std::ostringstream& out, const DiskHeatSnapshot& d) {
    out << "{\"disk\":" << d.disk << ",\"in_flight\":" << d.in_flight
        << ",\"total_ops\":" << d.total_ops << ",\"total_bytes\":" << d.total_bytes
        << ",\"window_ops\":" << d.ops << ",\"window_bytes\":" << d.bytes
        << ",\"ops_per_sec\":" << num(d.ops_per_sec)
        << ",\"bytes_per_sec\":" << num(d.bytes_per_sec)
        << ",\"ewma_latency_us\":" << num(d.ewma_latency_us)
        << ",\"mean_latency_us\":" << num(d.mean_latency_us)
        << ",\"p99_latency_us\":" << num(d.p99_latency_us) << ",\"errors\":" << d.errors
        << ",\"timeouts\":" << d.timeouts << ",\"retries\":" << d.retries
        << ",\"error_rate\":" << num(d.error_rate)
        << ",\"straggler_score\":" << num(d.straggler_score)
        << ",\"straggler\":" << (d.straggler ? "true" : "false") << "}";
}

}  // namespace

DiskHeatModel::DiskHeatModel(int disks, HeatOptions options)
    : options_(options),
      request_max_load_(options.window_seconds, options.sub_windows) {
    options_.sub_windows = std::max(1, options_.sub_windows);
    if (options_.window_seconds <= 0.0) options_.window_seconds = 60.0;
    if (options_.ewma_alpha <= 0.0 || options_.ewma_alpha > 1.0) options_.ewma_alpha = 0.2;
    per_disk_.reserve(static_cast<std::size_t>(std::max(0, disks)));
    for (int d = 0; d < disks; ++d) per_disk_.push_back(std::make_unique<PerDisk>(options_));
}

double DiskHeatModel::now_seconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void DiskHeatModel::on_issue(int disk) {
    if (!valid(disk)) return;
    per_disk_[static_cast<std::size_t>(disk)]->in_flight.fetch_add(1, std::memory_order_relaxed);
}

void DiskHeatModel::on_complete(int disk, std::int64_t ops, std::int64_t bytes, double latency_us,
                                double now_seconds) {
    if (!valid(disk)) return;
    PerDisk& pd = *per_disk_[static_cast<std::size_t>(disk)];
    pd.in_flight.fetch_sub(1, std::memory_order_relaxed);
    pd.total_ops.fetch_add(ops, std::memory_order_relaxed);
    pd.total_bytes.fetch_add(bytes, std::memory_order_relaxed);
    pd.ops.add(ops, now_seconds);
    pd.bytes.add(bytes, now_seconds);
    pd.latency_us.record(latency_us, now_seconds);
    // EWMA update: a benign race between concurrent completions loses a
    // sample's weight, never corrupts the value — acceptable for a
    // smoothed health figure.
    if (!pd.ewma_primed.exchange(true, std::memory_order_relaxed)) {
        pd.ewma_us.store(latency_us, std::memory_order_relaxed);
    } else {
        const double old = pd.ewma_us.load(std::memory_order_relaxed);
        pd.ewma_us.store(old + options_.ewma_alpha * (latency_us - old),
                         std::memory_order_relaxed);
    }
}

void DiskHeatModel::on_write_complete(int disk, std::int64_t ops, std::int64_t bytes,
                                      double now_seconds) {
    if (!valid(disk)) return;
    PerDisk& pd = *per_disk_[static_cast<std::size_t>(disk)];
    pd.in_flight.fetch_sub(1, std::memory_order_relaxed);
    pd.total_ops.fetch_add(ops, std::memory_order_relaxed);
    pd.total_bytes.fetch_add(bytes, std::memory_order_relaxed);
    pd.ops.add(ops, now_seconds);
    pd.bytes.add(bytes, now_seconds);
    // Deliberately no latency_us.record / EWMA update: write-queue
    // durations must not steer the read hedge deadline or straggler
    // flagging (see the header).
}

void DiskHeatModel::on_error(int disk, double now_seconds) {
    if (!valid(disk)) return;
    per_disk_[static_cast<std::size_t>(disk)]->errors.add(1, now_seconds);
}

void DiskHeatModel::on_timeout(int disk, double now_seconds) {
    if (!valid(disk)) return;
    per_disk_[static_cast<std::size_t>(disk)]->timeouts.add(1, now_seconds);
}

void DiskHeatModel::on_retry(int disk, double now_seconds) {
    if (!valid(disk)) return;
    per_disk_[static_cast<std::size_t>(disk)]->retries.add(1, now_seconds);
}

void DiskHeatModel::on_request(std::int64_t max_load, double now_seconds) {
    if (max_load <= 0) return;
    request_max_load_.record(static_cast<double>(max_load), now_seconds);
}

std::int64_t DiskHeatModel::in_flight(int disk) const {
    if (!valid(disk)) return 0;
    return per_disk_[static_cast<std::size_t>(disk)]->in_flight.load(std::memory_order_relaxed);
}

double DiskHeatModel::fleet_median_mean_us(double now_seconds) const {
    // On the stack for up to kStackDisks disks: degraded read plans reach
    // this through straggler_mask, and the read path allocates nothing.
    constexpr std::size_t kStackDisks = 64;
    std::array<double, kStackDisks> stack{};
    std::vector<double> heap(per_disk_.size() > kStackDisks ? per_disk_.size() : 0);
    const std::span<double> means = heap.empty() ? std::span<double>(stack) : std::span<double>(heap);
    std::size_t n = 0;
    for (const auto& pd : per_disk_) {
        if (pd->latency_us.count(now_seconds) < options_.min_ops) continue;
        means[n++] = pd->latency_us.mean(now_seconds);
    }
    return median_of(means.first(n));
}

DiskHeatSnapshot DiskHeatModel::disk_snapshot(int disk, double now_seconds) const {
    DiskHeatSnapshot snap;
    snap.disk = disk;
    if (!valid(disk)) return snap;
    const PerDisk& pd = *per_disk_[static_cast<std::size_t>(disk)];
    snap.in_flight = pd.in_flight.load(std::memory_order_relaxed);
    snap.total_ops = pd.total_ops.load(std::memory_order_relaxed);
    snap.total_bytes = pd.total_bytes.load(std::memory_order_relaxed);
    snap.ops = pd.ops.total(now_seconds);
    snap.bytes = pd.bytes.total(now_seconds);
    snap.ops_per_sec = pd.ops.rate(now_seconds);
    snap.bytes_per_sec = pd.bytes.rate(now_seconds);
    snap.ewma_latency_us = pd.ewma_us.load(std::memory_order_relaxed);
    snap.mean_latency_us = pd.latency_us.mean(now_seconds);
    snap.p99_latency_us = pd.latency_us.percentile(0.99, now_seconds);
    snap.errors = pd.errors.total(now_seconds);
    snap.timeouts = pd.timeouts.total(now_seconds);
    snap.retries = pd.retries.total(now_seconds);
    const std::int64_t completions = pd.latency_us.count(now_seconds);
    if (completions > 0) {
        snap.error_rate = static_cast<double>(snap.errors + snap.timeouts) /
                          static_cast<double>(completions);
    }
    const double fleet = fleet_median_mean_us(now_seconds);
    if (fleet > 0.0 && completions >= options_.min_ops) {
        snap.straggler_score = snap.mean_latency_us / fleet;
        snap.straggler = snap.straggler_score >= options_.straggler_factor;
    }
    return snap;
}

ClusterHeatSnapshot DiskHeatModel::snapshot(double now_seconds) const {
    ClusterHeatSnapshot snap;
    snap.now_seconds = now_seconds;
    snap.window_seconds = options_.window_seconds;
    snap.disks = disks();
    snap.requests = request_max_load_.count(now_seconds);
    snap.measured_max_load = request_max_load_.mean(now_seconds);
    snap.fleet_median_latency_us = fleet_median_mean_us(now_seconds);

    double sum = 0.0;
    double sumsq = 0.0;
    std::int64_t max_ops = 0;
    for (int d = 0; d < snap.disks; ++d) {
        const std::int64_t ops = per_disk_[static_cast<std::size_t>(d)]->ops.total(now_seconds);
        const auto v = static_cast<double>(ops);
        sum += v;
        sumsq += v * v;
        if (ops > max_ops) {
            max_ops = ops;
            snap.hottest_disk = d;
        }
        const PerDisk& pd = *per_disk_[static_cast<std::size_t>(d)];
        if (snap.fleet_median_latency_us > 0.0 &&
            pd.latency_us.count(now_seconds) >= options_.min_ops &&
            pd.latency_us.mean(now_seconds) >=
                options_.straggler_factor * snap.fleet_median_latency_us) {
            snap.stragglers.push_back(d);
        }
    }
    if (snap.disks > 0 && sum > 0.0) {
        const double mean = sum / static_cast<double>(snap.disks);
        snap.load_factor = static_cast<double>(max_ops) / mean;
        const double var = std::max(0.0, sumsq / static_cast<double>(snap.disks) - mean * mean);
        snap.skew_cov = std::sqrt(var) / mean;
    }
    return snap;
}

std::vector<char> DiskHeatModel::straggler_mask(double now_seconds) const {
    std::vector<char> mask(per_disk_.size(), 0);
    straggler_mask(now_seconds, mask);
    return mask;
}

void DiskHeatModel::straggler_mask(double now_seconds, std::span<char> out) const {
    std::fill(out.begin(), out.end(), 0);
    const double fleet = fleet_median_mean_us(now_seconds);
    if (fleet <= 0.0) return;
    for (std::size_t d = 0; d < std::min(out.size(), per_disk_.size()); ++d) {
        const PerDisk& pd = *per_disk_[d];
        if (pd.latency_us.count(now_seconds) < options_.min_ops) continue;
        if (pd.latency_us.mean(now_seconds) >= options_.straggler_factor * fleet) out[d] = 1;
    }
}

double DiskHeatModel::hedge_deadline_ms(const std::vector<int>& participating, double factor,
                                        double min_ms, double now_seconds) const {
    std::vector<double> p99s;
    p99s.reserve(participating.size());
    for (int d : participating) {
        if (!valid(d)) continue;
        const PerDisk& pd = *per_disk_[static_cast<std::size_t>(d)];
        if (pd.latency_us.count(now_seconds) < options_.min_ops) continue;
        p99s.push_back(pd.latency_us.percentile(0.99, now_seconds));
    }
    if (p99s.size() < 2) return 0.0;
    const double median_us = median_of(p99s);
    return std::max(min_ms, factor * median_us / 1000.0);
}

std::string DiskHeatModel::disks_json(double now_seconds) const {
    std::ostringstream out;
    out << "{\"schema\":\"ecfrm.disks.v1\",\"disks\":[";
    for (int d = 0; d < disks(); ++d) {
        if (d > 0) out << ",";
        append_disk_json(out, disk_snapshot(d, now_seconds));
    }
    out << "]}\n";
    return out.str();
}

std::string DiskHeatModel::heat_json(double now_seconds) const {
    const ClusterHeatSnapshot c = snapshot(now_seconds);
    std::ostringstream out;
    out << "{\"schema\":\"ecfrm.heat.v1\",\"window_seconds\":" << num(c.window_seconds)
        << ",\"disks\":" << c.disks << ",\"requests\":" << c.requests
        << ",\"measured_max_load\":" << num(c.measured_max_load)
        << ",\"load_factor\":" << num(c.load_factor) << ",\"skew_cov\":" << num(c.skew_cov)
        << ",\"hottest_disk\":" << c.hottest_disk
        << ",\"fleet_median_latency_us\":" << num(c.fleet_median_latency_us)
        << ",\"stragglers\":[";
    for (std::size_t i = 0; i < c.stragglers.size(); ++i) {
        if (i > 0) out << ",";
        out << c.stragglers[i];
    }
    out << "],\"per_disk\":[";
    for (int d = 0; d < disks(); ++d) {
        if (d > 0) out << ",";
        append_disk_json(out, disk_snapshot(d, now_seconds));
    }
    out << "]}\n";
    return out.str();
}

std::string DiskHeatModel::disks_ndjson(double now_seconds) const {
    std::ostringstream out;
    for (int d = 0; d < disks(); ++d) {
        append_disk_json(out, disk_snapshot(d, now_seconds));
        out << "\n";
    }
    return out.str();
}

}  // namespace ecfrm::obs

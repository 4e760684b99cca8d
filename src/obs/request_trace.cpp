#include "obs/request_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/metrics.h"  // json_escape

namespace ecfrm::obs {

namespace {

std::uint64_t this_tid() {
    thread_local const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
    return tid;
}

std::string format_us(double us) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

std::string format_frac(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

void append_attrs_json(std::string& out,
                       const std::vector<std::pair<std::string, std::string>>& attrs) {
    out += "{";
    bool first = true;
    for (const auto& [k, v] : attrs) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    out += "}";
}

/// One chrome trace-event per span of request `pid`, comma-joined onto
/// `out` (`first` tracks whether anything precedes them).
void append_chrome_events(std::string& out, bool& first, std::uint64_t pid, const char* cat,
                          const std::vector<SpanNode>& nodes) {
    for (const SpanNode& node : nodes) {
        if (!first) out += ",";
        first = false;
        out += "\n{\"name\":\"" + json_escape(node.name) + "\",\"cat\":\"";
        out += cat;
        out += "\",\"ph\":\"X\",\"pid\":" + std::to_string(pid);
        out += ",\"tid\":" + std::to_string(node.tid);
        out += ",\"ts\":" + format_us(node.ts_us);
        out += ",\"dur\":" + format_us(std::max(0.0, node.dur_us));
        out += ",\"args\":{\"span\":\"" + std::to_string(node.id) + "\",\"parent\":\"" +
               std::to_string(node.parent) + "\",\"seq\":\"" + std::to_string(node.seq) + "\"";
        for (const auto& [k, v] : node.attrs) {
            out += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
        }
        out += "}}";
    }
}

}  // namespace

double forensic_now_us() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch)
        .count();
}

const char* request_class_name(RequestClass cls) {
    switch (cls) {
        case RequestClass::normal: return "normal";
        case RequestClass::degraded: return "degraded";
        case RequestClass::scrub: return "scrub";
        case RequestClass::write: return "write";
        case RequestClass::rebuild: return "rebuild";
    }
    return "?";
}

// --------------------------------------------------------------- RequestTrace

RequestTrace::RequestTrace(std::uint64_t id, RequestClass cls, double start_us,
                           std::size_t max_nodes)
    : id_(id), start_us_(start_us), max_nodes_(std::max<std::size_t>(1, max_nodes)), cls_(cls) {
    phase_cursor_us_ = start_us;
    SpanNode root;
    root.id = kRoot;
    root.parent = 0;
    root.name = "request";
    root.ts_us = start_us;
    root.tid = this_tid();
    root.seq = 0;
    // A clean read records ~10 spans with ~2 attrs each; the vectors
    // grow past this only when the recovery ladder gets involved.
    nodes_.reserve(std::min<std::size_t>(max_nodes_, 16));
    attrs_.reserve(24);
    nodes_.push_back(std::move(root));
}

std::uint32_t RequestTrace::append_locked(std::uint32_t parent, std::string&& name,
                                          double ts_us) {
    if (nodes_.size() >= max_nodes_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }
    SpanNode node;
    node.id = static_cast<std::uint32_t>(nodes_.size() + 1);
    node.parent = parent;
    node.name = std::move(name);
    node.ts_us = ts_us;
    node.tid = this_tid();
    node.seq = nodes_.size();  // root holds seq 0
    nodes_.push_back(std::move(node));
    return nodes_.back().id;
}

std::uint32_t RequestTrace::begin(std::uint32_t parent, std::string name, double ts_us) {
    if (ts_us < 0.0) ts_us = forensic_now_us();
    std::lock_guard lk(mu_);
    return append_locked(parent, std::move(name), ts_us);
}

void RequestTrace::end(std::uint32_t span, double ts_us) {
    if (span == 0) return;
    if (ts_us < 0.0) ts_us = forensic_now_us();
    std::lock_guard lk(mu_);
    if (span > nodes_.size()) return;
    SpanNode& node = nodes_[span - 1];
    if (node.dur_us < 0.0) node.dur_us = std::max(0.0, ts_us - node.ts_us);
    if (node.parent == kRoot) {
        phase_cursor_us_ = std::max(phase_cursor_us_, node.ts_us + node.dur_us);
    }
}

void RequestTrace::attr_locked(std::uint32_t span, const char* key, std::string&& value) {
    attrs_.push_back(AttrRec{span, key, 0, std::move(value), false});
}

void RequestTrace::attr_locked(std::uint32_t span, const char* key, std::int64_t value) {
    attrs_.push_back(AttrRec{span, key, value, {}, true});
}

std::uint32_t RequestTrace::begin_phase(std::string name, std::initializer_list<IntAttr> attrs) {
    std::lock_guard lk(mu_);
    const std::uint32_t id = append_locked(kRoot, std::move(name), phase_cursor_us_);
    if (id != 0) {
        for (const auto& [k, v] : attrs) attr_locked(id, k, v);
    }
    return id;
}

double RequestTrace::phase_cursor_us() const {
    std::lock_guard lk(mu_);
    return phase_cursor_us_;
}

std::uint32_t RequestTrace::complete(std::uint32_t parent, std::string name, double ts_us,
                                     double dur_us, std::initializer_list<StrAttr> attrs) {
    std::lock_guard lk(mu_);
    const std::uint32_t id = append_locked(parent, std::move(name), ts_us);
    if (id == 0) return 0;
    SpanNode& node = nodes_[id - 1];
    node.dur_us = std::max(0.0, dur_us);
    if (parent == kRoot) {
        phase_cursor_us_ = std::max(phase_cursor_us_, node.ts_us + node.dur_us);
    }
    for (const auto& [k, v] : attrs) attr_locked(id, k, std::string(v));
    return id;
}

std::uint32_t RequestTrace::complete(std::uint32_t parent, std::string name, double ts_us,
                                     double dur_us, std::initializer_list<IntAttr> attrs) {
    std::lock_guard lk(mu_);
    const std::uint32_t id = append_locked(parent, std::move(name), ts_us);
    if (id == 0) return 0;
    SpanNode& node = nodes_[id - 1];
    node.dur_us = std::max(0.0, dur_us);
    if (parent == kRoot) {
        phase_cursor_us_ = std::max(phase_cursor_us_, node.ts_us + node.dur_us);
    }
    for (const auto& [k, v] : attrs) attr_locked(id, k, v);
    return id;
}

void RequestTrace::end_with(std::uint32_t span, std::initializer_list<IntAttr> attrs,
                            double ts_us) {
    if (span == 0) return;
    if (ts_us < 0.0) ts_us = forensic_now_us();
    std::lock_guard lk(mu_);
    if (span > nodes_.size()) return;
    SpanNode& node = nodes_[span - 1];
    for (const auto& [k, v] : attrs) attr_locked(span, k, v);
    if (node.dur_us < 0.0) node.dur_us = std::max(0.0, ts_us - node.ts_us);
    if (node.parent == kRoot) {
        phase_cursor_us_ = std::max(phase_cursor_us_, node.ts_us + node.dur_us);
    }
}

void RequestTrace::attr(std::uint32_t span, const char* key, std::string value) {
    if (span == 0) return;
    std::lock_guard lk(mu_);
    if (span > nodes_.size()) return;
    attr_locked(span, key, std::move(value));
}

void RequestTrace::attr_all(std::uint32_t span, std::initializer_list<IntAttr> attrs) {
    if (span == 0) return;
    std::lock_guard lk(mu_);
    if (span > nodes_.size()) return;
    for (const auto& [k, v] : attrs) attr_locked(span, k, v);
}

void RequestTrace::attr(std::uint32_t span, const char* key, std::int64_t value) {
    if (span == 0) return;
    std::lock_guard lk(mu_);
    if (span > nodes_.size()) return;
    attr_locked(span, key, value);
}

void RequestTrace::finish(bool ok, double end_us) {
    if (end_us < 0.0) end_us = forensic_now_us();
    bool expected = false;
    if (!finished_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) return;
    ok_.store(ok, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    end_us_ = end_us;
    for (SpanNode& node : nodes_) {
        if (node.dur_us < 0.0) node.dur_us = std::max(0.0, end_us - node.ts_us);
    }
}

bool RequestTrace::finish_with_totals(bool ok, double end_us,
                                      std::vector<std::pair<std::string, double>>& totals) {
    if (end_us < 0.0) end_us = forensic_now_us();
    bool expected = false;
    if (!finished_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
        return false;
    }
    ok_.store(ok, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    end_us_ = end_us;
    for (SpanNode& node : nodes_) {
        if (node.dur_us < 0.0) node.dur_us = std::max(0.0, end_us - node.ts_us);
    }
    totals = phase_totals_locked();
    return true;
}

double RequestTrace::dur_us() const {
    std::lock_guard lk(mu_);
    return end_us_ < 0.0 ? 0.0 : end_us_ - start_us_;
}

std::vector<SpanNode> RequestTrace::nodes() const {
    std::lock_guard lk(mu_);
    std::vector<SpanNode> out = nodes_;
    // Scatter the attribute arena back onto the snapshot: append order
    // within a span is preserved because the arena itself is in append
    // order.
    for (const AttrRec& rec : attrs_) {
        if (rec.span == 0 || rec.span > out.size()) continue;
        out[rec.span - 1].attrs.emplace_back(rec.key,
                                             rec.is_int ? std::to_string(rec.ival) : rec.sval);
    }
    return out;
}

std::size_t RequestTrace::node_count() const {
    std::lock_guard lk(mu_);
    return nodes_.size();
}

std::vector<std::pair<std::string, double>> RequestTrace::phase_totals() const {
    std::lock_guard lk(mu_);
    return phase_totals_locked();
}

std::vector<std::pair<std::string, double>> RequestTrace::phase_totals_locked() const {
    std::vector<std::pair<std::string, double>> totals;
    for (const SpanNode& node : nodes_) {
        if (node.parent != kRoot || node.dur_us < 0.0) continue;
        auto it = std::find_if(totals.begin(), totals.end(),
                               [&](const auto& t) { return t.first == node.name; });
        if (it == totals.end()) {
            totals.emplace_back(node.name, node.dur_us);
        } else {
            it->second += node.dur_us;
        }
    }
    return totals;
}

std::string RequestTrace::chrome_json() const {
    std::string out = "[";
    bool first = true;
    append_chrome_events(out, first, id_, request_class_name(cls()), nodes());
    out += "\n]\n";
    return out;
}

std::string RequestTrace::json(bool include_spans) const {
    std::string out = "{\"id\":" + std::to_string(id_);
    out += ",\"class\":\"";
    out += request_class_name(cls());
    out += "\",\"start_us\":" + format_us(start_us_);
    out += ",\"dur_us\":" + format_us(dur_us());
    out += ",\"ok\":";
    out += ok() ? "true" : "false";
    out += ",\"retries\":" + std::to_string(retries());
    out += ",\"timeouts\":" + std::to_string(timeouts());
    out += ",\"hedges\":" + std::to_string(hedges());
    out += ",\"replans\":" + std::to_string(replans());
    out += ",\"decodes\":" + std::to_string(decodes());
    out += ",\"spans\":" + std::to_string(node_count());
    out += ",\"spans_dropped\":" + std::to_string(dropped());
    out += ",\"phase_us\":{";
    bool first = true;
    for (const auto& [name, us] : phase_totals()) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escape(name) + "\":" + format_us(us);
    }
    out += "}";
    if (include_spans) {
        out += ",\"tree\":[";
        first = true;
        for (const SpanNode& node : nodes()) {
            if (!first) out += ",";
            first = false;
            out += "{\"span\":" + std::to_string(node.id);
            out += ",\"parent\":" + std::to_string(node.parent);
            out += ",\"name\":\"" + json_escape(node.name) + "\"";
            out += ",\"ts_us\":" + format_us(node.ts_us);
            out += ",\"dur_us\":" + format_us(std::max(0.0, node.dur_us));
            out += ",\"tid\":" + std::to_string(node.tid);
            out += ",\"seq\":" + std::to_string(node.seq);
            out += ",\"args\":";
            append_attrs_json(out, node.attrs);
            out += "}";
        }
        out += "]";
    }
    out += "}";
    return out;
}

// ----------------------------------------------------------- RequestForensics

RequestForensics::RequestForensics(ForensicsOptions options) : options_(options) {
    classes_.reserve(kRequestClasses);
    for (int c = 0; c < kRequestClasses; ++c) {
        classes_.push_back(std::make_unique<PerClass>(options_));
    }
}

std::shared_ptr<RequestTrace> RequestForensics::start(RequestClass cls) {
    return start_at(cls, forensic_now_us());
}

std::shared_ptr<RequestTrace> RequestForensics::start_at(RequestClass cls, double ts_us) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<RequestTrace>(id, cls, ts_us, options_.max_nodes);
}

void RequestForensics::finish(const std::shared_ptr<RequestTrace>& trace, bool ok) {
    finish_at(trace, ok, forensic_now_us());
}

void RequestForensics::finish_at(const std::shared_ptr<RequestTrace>& trace, bool ok,
                                 double end_us) {
    if (trace == nullptr) return;
    if (end_us < 0.0) end_us = forensic_now_us();
    std::vector<std::pair<std::string, double>> totals;
    if (!trace->finish_with_totals(ok, end_us, totals)) return;

    const double dur = end_us - trace->start_us();
    const double now_seconds = end_us / 1e6;
    PerClass& pc = per_class(trace->cls());
    pc.window.record(dur, now_seconds);
    pc.slo.record(dur, ok, now_seconds);
    pc.finished.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard lk(pc.phase_mu);
        for (auto& [name, us] : totals) {
            auto it = std::find_if(pc.phase_totals.begin(), pc.phase_totals.end(),
                                   [&](const auto& t) { return t.first == name; });
            if (it == pc.phase_totals.end()) {
                pc.phase_totals.emplace_back(std::move(name), us);
            } else {
                it->second += us;
            }
        }
    }

    const bool slow = options_.slow_threshold_us >= 0.0 && dur >= options_.slow_threshold_us;
    if (!slow && ok && !trace->recovery_active()) return;
    std::lock_guard lk(exemplar_mu_);
    exemplars_.push_back(trace);
    while (exemplars_.size() > options_.max_exemplars) {
        exemplars_.pop_front();
        ++evicted_;
    }
}

std::int64_t RequestForensics::finished_total(RequestClass cls) const {
    return per_class(cls).finished.load(std::memory_order_relaxed);
}

double RequestForensics::windowed_percentile(RequestClass cls, double q, double now_us) const {
    if (now_us < 0.0) now_us = forensic_now_us();
    return per_class(cls).window.percentile(q, now_us / 1e6);
}

SloTracker::Snapshot RequestForensics::slo_snapshot(RequestClass cls, double now_us) const {
    if (now_us < 0.0) now_us = forensic_now_us();
    return per_class(cls).slo.snapshot(now_us / 1e6);
}

std::vector<std::pair<std::string, double>> RequestForensics::phase_totals(
    RequestClass cls) const {
    const PerClass& pc = per_class(cls);
    std::lock_guard lk(pc.phase_mu);
    return pc.phase_totals;
}

std::size_t RequestForensics::captured() const {
    std::lock_guard lk(exemplar_mu_);
    return exemplars_.size();
}

std::size_t RequestForensics::evicted() const {
    std::lock_guard lk(exemplar_mu_);
    return evicted_;
}

std::shared_ptr<const RequestTrace> RequestForensics::find(std::uint64_t id) const {
    std::lock_guard lk(exemplar_mu_);
    for (const auto& trace : exemplars_) {
        if (trace->id() == id) return trace;
    }
    return nullptr;
}

std::vector<std::shared_ptr<const RequestTrace>> RequestForensics::exemplars() const {
    std::lock_guard lk(exemplar_mu_);
    return {exemplars_.begin(), exemplars_.end()};
}

std::string RequestForensics::slo_json(double now_us) const {
    if (now_us < 0.0) now_us = forensic_now_us();
    std::string out = "{\"schema\":\"ecfrm.slo.v1\",\"now_us\":" + format_us(now_us);
    out += ",\"window_seconds\":" + format_frac(options_.window_seconds);
    out += ",\"target_us\":" + format_us(options_.slo_target_us);
    out += ",\"objective\":" + format_frac(options_.slo_objective);
    out += ",\"classes\":[";
    const double now_seconds = now_us / 1e6;
    bool first = true;
    for (int c = 0; c < kRequestClasses; ++c) {
        const auto cls = static_cast<RequestClass>(c);
        const PerClass& pc = per_class(cls);
        const SloTracker::Snapshot snap = pc.slo.snapshot(now_seconds);
        if (!first) out += ",";
        first = false;
        out += "{\"class\":\"";
        out += request_class_name(cls);
        out += "\",\"finished_total\":" + std::to_string(finished_total(cls));
        out += ",\"window_count\":" + std::to_string(pc.window.count(now_seconds));
        out += ",\"p50_us\":" + format_us(pc.window.percentile(0.50, now_seconds));
        out += ",\"p99_us\":" + format_us(pc.window.percentile(0.99, now_seconds));
        out += ",\"p999_us\":" + format_us(pc.window.percentile(0.999, now_seconds));
        out += ",\"breaches\":" + std::to_string(snap.breaches);
        out += ",\"compliance\":" + format_frac(snap.compliance);
        out += ",\"fast_burn\":" + format_frac(snap.fast_burn);
        out += ",\"slow_burn\":" + format_frac(snap.slow_burn);
        out += ",\"budget_remaining\":" + format_frac(snap.budget_remaining);
        out += "}";
    }
    out += "]}\n";
    return out;
}

std::string RequestForensics::slow_json() const {
    const auto traces = exemplars();
    std::string out = "{\"schema\":\"ecfrm.slow.v1\"";
    out += ",\"captured\":" + std::to_string(traces.size());
    std::size_t evicted;
    {
        std::lock_guard lk(exemplar_mu_);
        evicted = evicted_;
    }
    out += ",\"evicted\":" + std::to_string(evicted);
    out += ",\"requests\":[";
    bool first = true;
    for (const auto& trace : traces) {
        if (!first) out += ",";
        first = false;
        out += trace->json(/*include_spans=*/false);
    }
    out += "]}\n";
    return out;
}

std::string RequestForensics::chrome_json() const {
    std::string out = "[";
    bool first = true;
    for (const auto& trace : exemplars()) {
        append_chrome_events(out, first, trace->id(), request_class_name(trace->cls()),
                             trace->nodes());
    }
    out += "\n]\n";
    return out;
}

std::string RequestForensics::slowlog_ndjson() const {
    std::string out;
    for (const auto& trace : exemplars()) {
        out += trace->json(/*include_spans=*/true);
        out += "\n";
    }
    return out;
}

}  // namespace ecfrm::obs

#include "span_log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "alloc_counter.h"

namespace perfbench {
namespace {

struct Buffer {
    std::vector<SpanRecord> spans;
    int tid = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<int> g_phase{0};
std::atomic<std::uint64_t> g_next_id{1};

std::mutex g_mu;  // guards g_buffers
std::vector<std::unique_ptr<Buffer>> g_buffers;

thread_local Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_request = 0;
thread_local std::uint64_t t_current = 0;

Buffer& thread_buffer() {
    if (t_buffer == nullptr) {
        AllocPause pause;
        std::lock_guard<std::mutex> lock(g_mu);
        g_buffers.push_back(std::make_unique<Buffer>());
        g_buffers.back()->tid = static_cast<int>(g_buffers.size());
        g_buffers.back()->spans.reserve(4096);
        t_buffer = g_buffers.back().get();
    }
    return *t_buffer;
}

}  // namespace

double now_us() {
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
}

namespace spans {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_phase(Phase phase) { g_phase.store(static_cast<int>(phase), std::memory_order_release); }
void set_request(std::uint64_t id) { t_request = id; }
std::uint64_t current() { return t_current; }
std::uint64_t next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record(const char* name, std::uint64_t id, std::uint64_t parent, double start_us,
            double end_us, int disk, std::int64_t count) {
    AllocPause pause;
    SpanRecord r;
    r.name = name;
    r.id = id;
    r.parent = parent;
    r.request = t_request;
    r.start_us = start_us;
    r.end_us = end_us;
    r.disk = disk;
    r.count = count;
    r.phase = static_cast<Phase>(g_phase.load(std::memory_order_relaxed));
    thread_buffer().spans.push_back(r);
}

const std::vector<SpanRecord>& thread_spans() { return thread_buffer().spans; }

std::vector<SpanRecord> collect() {
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<SpanRecord> all;
    for (const auto& b : g_buffers) all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

bool write_chrome_json(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    static const char* const kPhases[] = {"setup", "serve", "rebuild"};
    std::lock_guard<std::mutex> lock(g_mu);
    std::fputs("[", f);
    bool first = true;
    for (const auto& b : g_buffers) {
        for (const SpanRecord& s : b->spans) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                         "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                         "\"disk\":%d,\"count\":%lld,\"phase\":\"%s\"}}",
                         first ? "" : ",", s.name, b->tid, s.start_us, s.dur_us(),
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.request), s.disk,
                         static_cast<long long>(s.count), kPhases[static_cast<int>(s.phase)]);
            first = false;
        }
    }
    std::fputs("\n]\n", f);
    return std::fclose(f) == 0;
}

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name) : name_(name), on_(spans::enabled()) {
    if (!on_) return;
    id_ = spans::next_id();
    parent_ = t_current;
    t_current = id_;
    start_us_ = now_us();
}

void ScopedSpan::close() {
    if (!on_ || closed_) return;
    closed_ = true;
    t_current = parent_;
    spans::record(name_, id_, parent_, start_us_, now_us(), -1, count_);
}

}  // namespace perfbench

// In-memory span log for the traced run.
//
// The benchmark times calls into each layer's public functions from its
// own code: a ScopedSpan around a store or planner call, and the timing
// device decorator around every device call. Each span records its name,
// start, end, parent span and request id. A client thread sets the
// request id (a thread-local) around each request, so device calls made
// on that thread are attributed to it; device calls made on pool threads
// carry request 0 (unattributed). Spans stay in per-thread buffers until
// the benchmark writes them out at exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Which part of a round a span belongs to.
enum class Phase : int { setup = 0, serve = 1, rebuild = 2 };

struct SpanRecord {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0: no parent
    std::uint64_t request = 0;  // 0: unattributed
    double start_us = 0.0;
    double end_us = 0.0;
    int disk = -1;              // device spans: the disk index
    std::int64_t count = 0;     // device spans: elements; API spans: allocations
    Phase phase = Phase::setup;

    double dur_us() const { return end_us - start_us; }
};

/// Steady-clock microseconds since the first call.
double now_us();

namespace spans {

/// Recording is off by default; only the traced pass turns it on.
void set_enabled(bool on);
bool enabled();

void set_phase(Phase phase);

/// Request id of the calling thread's spans (0 outside a request).
void set_request(std::uint64_t id);

/// Innermost open ScopedSpan of the calling thread (0 when none).
std::uint64_t current();

std::uint64_t next_id();

/// Append a finished span to the calling thread's buffer.
void record(const char* name, std::uint64_t id, std::uint64_t parent, double start_us,
            double end_us, int disk, std::int64_t count);

/// The calling thread's buffer. Indices stay valid; a client takes the
/// size before a call and reads the spans the call added after it.
const std::vector<SpanRecord>& thread_spans();

/// Every recorded span of every thread. Call once the recording threads
/// have stopped.
std::vector<SpanRecord> collect();

/// Write every span as a chrome-tracing JSON array. Returns false on an
/// I/O error.
bool write_chrome_json(const std::string& path);

}  // namespace spans

/// Opens a span on the calling thread and records it when closed. While
/// open it is the parent of spans recorded on the same thread.
class ScopedSpan {
  public:
    explicit ScopedSpan(const char* name);
    ~ScopedSpan() { close(); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    void set_count(std::int64_t count) { count_ = count; }
    /// Record the span now (idempotent).
    void close();
    std::uint64_t id() const { return id_; }

  private:
    const char* name_;
    bool on_;
    bool closed_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double start_us_ = 0.0;
    std::int64_t count_ = 0;
};

}  // namespace perfbench

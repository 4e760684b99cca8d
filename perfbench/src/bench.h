// Shared declarations of the store benchmark binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch_dir;  // file devices live under here (removed on exit)
    std::string trace_out;    // traced run: chrome-tracing span dump ("" = none)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one invocation hands back to main(): the metrics of its mode
/// (end-to-end when untraced, per-layer when traced) and the correctness
/// ledger. Every operation the benchmark issues (read, append, flush,
/// rebuild, parity check, read-back) counts in `attempted`; one that
/// errors or returns a wrong byte counts in `failed`. A failed self-check
/// clears `correct` and says why in `problems`.
struct Outcome {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;

    void problem(std::string what) {
        correct = false;
        problems.push_back(std::move(what));
    }
};

/// Names of the workloads run_workload accepts.
const std::vector<std::string>& workload_names();

/// Run one workload. Prints human-readable progress and metadata lines to
/// stdout; main() prints the final JSON line.
Outcome run_workload(const Options& options);

}  // namespace perfbench

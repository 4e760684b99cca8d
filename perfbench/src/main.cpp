// perfbench: the store benchmark binary.
//
//   perfbench --workload <hot_reads|degraded_file> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--trace-out <file>]
//
// Prints metadata and human-readable lines, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced (--trace 0) metrics are the end-to-end ones; traced (--trace 1)
// metrics are the per-layer ones. Exits 0 only when every operation
// succeeded with the right bytes and every self-check held.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <malloc.h>

#include "bench.h"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --scratch <dir> [--trace-out <file>]\n",
                 why);
    return 2;
}

void print_result(const perfbench::Outcome& out) {
    std::string json = "{\"correct\": ";
    json += out.correct && out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const perfbench::Metric& m : out.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        json += first ? "" : ", ";
        json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            opt.trace = value != "0";
        } else if (flag == "--scratch") {
            opt.scratch_dir = value;
        } else if (flag == "--trace-out") {
            opt.trace_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload) return usage("--workload is required");
    if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
    bool known = false;
    for (const std::string& name : perfbench::workload_names()) known = known || name == opt.workload;
    if (!known) return usage(("unknown workload " + opt.workload).c_str());
    if (opt.scratch_dir.empty()) return usage("--scratch is required");

    // Every round builds a fresh store and frees the last one. Keep the
    // freed heap in the process (no trimming, and the large-allocation
    // threshold glibc would otherwise reach only after the first frees),
    // so later rounds reuse warm pages instead of timing page faults.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    perfbench::Outcome out;
    try {
        out = perfbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (perfbench::Metric& m : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.problem("metric " + m.name + " is not finite");
            m.value = 0.0;
        }
    }
    for (const std::string& p : out.problems) std::printf("problem: %s\n", p.c_str());
    std::fflush(stdout);
    print_result(out);
    return out.correct && out.failed == 0 ? 0 : 1;
}

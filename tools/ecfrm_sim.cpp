// ecfrm_sim: run the paper's experiment protocol for ANY code / layout /
// parameters from the command line — the research harness without a
// recompile.
//
//   ecfrm_sim <code_spec> [options]
//     code_spec            rs:<k>,<m> | lrc:<k>,<l>,<m>
//     --layout L           standard | rotated | ecfrm | all   (default all)
//     --trials N           trials per experiment               (default 2000)
//     --elem BYTES         element size in bytes               (default 1 MiB)
//     --max-size E         max request size in elements        (default 20)
//     --degraded           run the degraded protocol (speed + cost)
//     --policy P           local | balance (degraded repair)   (default local)
//     --seed S             PRNG seed                           (default 2015)
//     --faults F           fault-injection mode: run a real store under the
//                          ecfrm.faultplan.v1 plan in F and verify the bytes
//     --metrics-out F      write metrics as NDJSON to F
//     --metrics-prom F     write metrics in Prometheus text format to F
//     --trace-out F        write every trial as a request of a chrome://tracing
//                          JSON trace to F (on the simulated clock)
//
// Examples:
//   ecfrm_sim lrc:12,3,3 --degraded
//   ecfrm_sim rs:20,10 --max-size 40 --elem 4194304
//   ecfrm_sim rs:6,3 --metrics-out metrics.json --trace-out trace.json
//   ecfrm_sim rs:6,3 --faults plan.json --elem 4096
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "core/read_planner.h"
#include "gf/kernels.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "sim/array_sim.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"
#include "workload/workload.h"

namespace {

using namespace ecfrm;

struct Options {
    std::string spec;
    std::vector<layout::LayoutKind> kinds{layout::LayoutKind::standard, layout::LayoutKind::rotated,
                                          layout::LayoutKind::ecfrm};
    int trials = 2000;
    std::int64_t elem_bytes = 1 << 20;
    int max_size = 20;
    bool degraded = false;
    core::DegradedPolicy policy = core::DegradedPolicy::local_first;
    std::uint64_t seed = 2015;
    std::string faults_path;
    std::string metrics_out;
    std::string metrics_prom;
    std::string trace_out;
    int serve_port = -1;      // >= 0: serve live metrics while running
    double serve_hold = 0.0;  // seconds to keep serving after the run
};

int usage() {
    std::fprintf(stderr,
                 "usage: ecfrm_sim <code_spec> [--layout standard|rotated|ecfrm|all] [--trials N]\n"
                 "                 [--elem BYTES] [--max-size E] [--degraded] [--policy local|balance]\n"
                 "                 [--seed S] [--faults plan.json] [--metrics-out F]\n"
                 "                 [--metrics-prom F] [--trace-out F] [--serve PORT]\n"
                 "                 [--serve-hold SECS]\n");
    return 2;
}

/// --faults mode: instead of the analytic disk model, build a REAL
/// StripeStore per layout on FaultDevice-wrapped memory disks, write a
/// deterministic payload, read it all back through the self-healing read
/// path, and verify every byte. Typed read errors (e.g. beyond_tolerance
/// when the plan kills too many disks) are reported per error code; the
/// exit status flags silent corruption — bytes that came back wrong.
int run_fault_mode(const Options& opt, const std::shared_ptr<codes::ErasureCode>& code,
                   const store::FaultPlan& plan) {
    std::printf("fault-injection protocol: plan seed %llu, %zu rules, %lld B elements\n",
                static_cast<unsigned long long>(plan.seed), plan.rules.size(),
                static_cast<long long>(opt.elem_bytes));
    std::printf("fault plan: %s\n", plan.to_json().c_str());
    std::printf("%-20s %6s %6s %6s %6s %7s %6s %10s  %s\n", "scheme", "reads", "retry", "tmout",
                "replan", "degr", "errs", "mismatch", "errors_by_code");

    bool clean = true;
    for (auto kind : opt.kinds) {
        auto st = store::StripeStore::open(core::Scheme(code, kind), opt.elem_bytes,
                                           store::faulty_memory_factory(opt.elem_bytes, plan));
        if (!st.ok()) {
            std::fprintf(stderr, "error: %s\n", st.error().message.c_str());
            return 1;
        }
        store::RecoveryOptions recovery;
        recovery.max_retries = 3;
        recovery.max_replans = 4;
        st.value()->set_recovery(recovery);
        obs::MetricRegistry metrics("ecfrm_sim_faults");
        st.value()->attach_observability(&metrics);

        const std::int64_t data_elems = 4 * st.value()->scheme().layout().data_per_stripe();
        std::vector<std::uint8_t> payload(static_cast<std::size_t>(data_elems * opt.elem_bytes));
        Rng rng(opt.seed);
        for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
        auto written = st.value()->append(ConstByteSpan(payload.data(), payload.size()));
        if (written.ok()) written = st.value()->flush();
        if (!written.ok()) {
            std::fprintf(stderr, "error: write phase: %s\n", written.error().message.c_str());
            return 1;
        }

        int reads = 0, read_errors = 0;
        std::int64_t mismatched = 0;
        std::map<std::string, int> errors_by_code;
        const std::int64_t chunk = std::max<std::int64_t>(1, data_elems / 4);
        for (std::int64_t start = 0; start < data_elems; start += chunk) {
            const std::int64_t count = std::min(chunk, data_elems - start);
            std::vector<std::uint8_t> got(static_cast<std::size_t>(count * opt.elem_bytes));
            ++reads;
            auto status = st.value()->read_elements(start, count, ByteSpan(got.data(), got.size()));
            if (!status.ok()) {
                ++read_errors;
                ++errors_by_code[Error::code_name(status.error().code)];
                continue;
            }
            const std::uint8_t* want = payload.data() + start * opt.elem_bytes;
            for (std::size_t i = 0; i < got.size(); ++i) {
                if (got[i] != want[i]) ++mismatched;
            }
        }
        clean = clean && mismatched == 0;

        std::string codes_text;
        for (const auto& [name, count] : errors_by_code) {
            if (!codes_text.empty()) codes_text += " ";
            codes_text += std::string(name) + "=" + std::to_string(count);
        }
        std::printf("%-20s %6d %6lld %6lld %6lld %7lld %6d %10lld  %s\n",
                    st.value()->scheme().name().c_str(), reads,
                    static_cast<long long>(metrics.counter("ecfrm_store_retries_total").value()),
                    static_cast<long long>(metrics.counter("ecfrm_store_timeouts_total").value()),
                    static_cast<long long>(metrics.counter("ecfrm_store_replans_total").value()),
                    static_cast<long long>(
                        metrics.counter("ecfrm_store_degraded_reads_total").value()),
                    read_errors, static_cast<long long>(mismatched),
                    codes_text.empty() ? "-" : codes_text.c_str());
        st.value()->attach_observability(nullptr);
    }
    std::printf("fault-injection protocol: %s\n",
                clean ? "no silent corruption" : "SILENT CORRUPTION DETECTED");
    return clean ? 0 : 1;
}

bool write_file(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
        return false;
    }
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (argc < 2) return usage();
    opt.spec = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--layout") {
            const char* v = value();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "all") == 0) {
                // keep default
            } else if (std::strcmp(v, "standard") == 0) {
                opt.kinds = {layout::LayoutKind::standard};
            } else if (std::strcmp(v, "rotated") == 0) {
                opt.kinds = {layout::LayoutKind::rotated};
            } else if (std::strcmp(v, "ecfrm") == 0) {
                opt.kinds = {layout::LayoutKind::ecfrm};
            } else {
                return usage();
            }
        } else if (arg == "--trials") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.trials = std::atoi(v);
        } else if (arg == "--elem") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.elem_bytes = std::atoll(v);
        } else if (arg == "--max-size") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.max_size = std::atoi(v);
        } else if (arg == "--degraded") {
            opt.degraded = true;
        } else if (arg == "--policy") {
            const char* v = value();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "balance") == 0) {
                opt.policy = core::DegradedPolicy::balance;
            } else if (std::strcmp(v, "local") != 0) {
                return usage();
            }
        } else if (arg == "--seed") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.seed = static_cast<std::uint64_t>(std::atoll(v));
        } else if (arg == "--faults") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.faults_path = v;
        } else if (arg == "--metrics-out") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.metrics_out = v;
        } else if (arg == "--metrics-prom") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.metrics_prom = v;
        } else if (arg == "--trace-out") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.trace_out = v;
        } else if (arg == "--serve") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.serve_port = std::atoi(v);
        } else if (arg == "--serve-hold") {
            const char* v = value();
            if (v == nullptr) return usage();
            opt.serve_hold = std::atof(v);
        } else {
            return usage();
        }
    }
    if (opt.trials <= 0 || opt.elem_bytes <= 0 || opt.max_size <= 0) return usage();

    std::unique_ptr<obs::MetricRegistry> metrics;
    std::unique_ptr<obs::RequestForensics> forensics;
    if (!opt.metrics_out.empty() || !opt.metrics_prom.empty() || opt.serve_port >= 0) {
        metrics = std::make_unique<obs::MetricRegistry>("ecfrm_sim");
        core::attach_planner_metrics(metrics.get());
        gf::attach_kernel_metrics(metrics.get());
    }
    if (!opt.trace_out.empty()) {
        // Keep every trial (up to 16384 of them) for the export.
        obs::ForensicsOptions fopts;
        fopts.slow_threshold_us = 0.0;
        fopts.max_exemplars = std::size_t{1} << 14;
        forensics = std::make_unique<obs::RequestForensics>(fopts);
    }

    // The server starts before the protocol so the run is scrapable live;
    // the snapshotter's captures turn the counters into rates.
    std::unique_ptr<obs::Snapshotter> snapshotter;
    std::unique_ptr<obs::ExpositionServer> server;
    if (opt.serve_port >= 0) {
        snapshotter = std::make_unique<obs::Snapshotter>(metrics.get(), 0.5);
        snapshotter->start();
        server = std::make_unique<obs::ExpositionServer>(metrics.get(), snapshotter.get());
        auto status = server->start(opt.serve_port);
        if (!status.ok()) {
            std::fprintf(stderr, "error: %s\n", status.error().message.c_str());
            return 1;
        }
        // Flushed immediately: test drivers read the port from a pipe.
        std::printf("serving metrics on http://127.0.0.1:%d/metrics\n", server->port());
        std::fflush(stdout);
    }

    auto code = codes::make_code(opt.spec);
    if (!code.ok()) {
        std::fprintf(stderr, "error: %s\n", code.error().message.c_str());
        return 1;
    }

    if (!opt.faults_path.empty()) {
        std::FILE* f = std::fopen(opt.faults_path.c_str(), "rb");
        if (f == nullptr) {
            std::fprintf(stderr, "error: cannot open %s\n", opt.faults_path.c_str());
            return 1;
        }
        std::string text;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
        std::fclose(f);
        auto plan = store::FaultPlan::from_json(text);
        if (!plan.ok()) {
            std::fprintf(stderr, "error: %s: %s\n", opt.faults_path.c_str(),
                         plan.error().message.c_str());
            return 1;
        }
        return run_fault_mode(opt, code.value(), plan.value());
    }

    std::printf("%s protocol: %d trials, %lld B elements, sizes 1..%d%s\n",
                opt.degraded ? "degraded-read" : "normal-read", opt.trials,
                static_cast<long long>(opt.elem_bytes), opt.max_size,
                opt.degraded ? (opt.policy == core::DegradedPolicy::balance ? ", balance policy"
                                                                            : ", local-first policy")
                             : "");
    if (opt.degraded) {
        std::printf("%-20s %12s %12s %12s\n", "scheme", "MB/s", "cost", "E[max load]");
    } else {
        std::printf("%-20s %12s %12s\n", "scheme", "MB/s", "E[max load]");
    }

    for (auto kind : opt.kinds) {
        core::Scheme scheme(code.value(), kind);
        const std::int64_t elements = 40 * scheme.layout().data_per_stripe();
        sim::DiskModel model(sim::DiskProfile::savvio_10k3(), opt.elem_bytes);
        Rng rng(opt.seed);

        // Per-layout, per-disk accounting: how many elements (and bytes)
        // each disk serves across the whole protocol. The max/min ratio of
        // these counters is the balance story the paper tells.
        std::vector<obs::Counter*> disk_elems, disk_bytes;
        if (metrics != nullptr) {
            for (int d = 0; d < scheme.disks(); ++d) {
                const obs::Labels labels{{"disk", std::to_string(d)},
                                         {"layout", layout::to_string(kind)}};
                disk_elems.push_back(&metrics->counter("ecfrm_sim_disk_elements_total", labels));
                disk_bytes.push_back(&metrics->counter("ecfrm_sim_disk_bytes_total", labels));
            }
        }
        auto account = [&](const core::AccessPlan& plan) {
            if (metrics == nullptr) return;
            const auto& loads = plan.per_disk_loads();
            for (std::size_t d = 0; d < loads.size() && d < disk_elems.size(); ++d) {
                if (loads[d] == 0) continue;
                disk_elems[d]->add(loads[d]);
                disk_bytes[d]->add(loads[d] * opt.elem_bytes);
            }
        };

        double sim_clock_us = 0.0;  // virtual timeline for the trace
        double speed = 0.0, cost = 0.0, max_load = 0.0;
        for (int t = 0; t < opt.trials; ++t) {
            sim::ReadTiming timing;
            std::int64_t trial_max_load = 0;
            if (opt.degraded) {
                const auto req = workload::random_degraded_read(rng, elements, scheme.disks(), opt.max_size);
                auto plan = core::plan_degraded_read(scheme, req.read.start, req.read.count,
                                                     std::vector<DiskId>{req.failed_disk}, opt.policy);
                if (!plan.ok()) {
                    std::fprintf(stderr, "error: %s\n", plan.error().message.c_str());
                    return 1;
                }
                account(plan.value());
                timing = sim::simulate_read(plan.value(), model, rng, metrics.get());
                speed += timing.mb_per_s();
                cost += plan->cost();
                trial_max_load = plan->max_load();
            } else {
                const auto req = workload::random_read(rng, elements, opt.max_size);
                const auto plan = core::plan_normal_read(scheme, req.start, req.count);
                account(plan);
                timing = sim::simulate_read(plan, model, rng, metrics.get());
                speed += timing.mb_per_s();
                trial_max_load = plan.max_load();
            }
            max_load += static_cast<double>(trial_max_load);
            if (forensics != nullptr) {
                // One request per trial on the simulated clock.
                const double dur_us = timing.seconds * 1e6;
                auto rt = forensics->start_at(
                    opt.degraded ? obs::RequestClass::degraded : obs::RequestClass::normal,
                    sim_clock_us);
                const std::uint32_t span =
                    rt->complete(obs::RequestTrace::kRoot, "trial", sim_clock_us, dur_us,
                                 {{"trial", t},
                                  {"max_load", trial_max_load},
                                  {"requested_bytes", timing.requested_bytes}});
                rt->attr(span, "layout", layout::to_string(kind));
                forensics->finish_at(rt, true, sim_clock_us + dur_us);
                sim_clock_us += dur_us;
            }
        }
        if (opt.degraded) {
            std::printf("%-20s %12.2f %12.3f %12.3f\n", scheme.name().c_str(), speed / opt.trials,
                        cost / opt.trials, max_load / opt.trials);
        } else {
            std::printf("%-20s %12.2f %12.3f\n", scheme.name().c_str(), speed / opt.trials,
                        max_load / opt.trials);
        }
    }

    if (server != nullptr && opt.serve_hold > 0.0) {
        std::printf("holding for %.1fs (GET /quitquitquit to release)\n", opt.serve_hold);
        std::fflush(stdout);
        server->wait_for_quit(opt.serve_hold);
    }

    bool io_ok = true;
    if (!opt.metrics_out.empty()) io_ok &= write_file(opt.metrics_out, metrics->to_json());
    if (!opt.metrics_prom.empty()) io_ok &= write_file(opt.metrics_prom, metrics->to_prometheus());
    if (forensics != nullptr) {
        io_ok &= write_file(opt.trace_out, forensics->chrome_json());
        if (forensics->evicted() > 0) {
            std::fprintf(stderr, "warning: %s holds the last %zu trials; %zu earlier were dropped\n",
                         opt.trace_out.c_str(), forensics->captured(), forensics->evicted());
        }
    }
    core::attach_planner_metrics(nullptr);
    gf::attach_kernel_metrics(nullptr);
    return io_ok ? 0 : 1;
}

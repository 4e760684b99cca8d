// ecfrm_cli: a small archival store on a directory of file-backed disks.
//
//   ecfrm_cli create <dir> <code_spec> <layout> <element_bytes>
//   ecfrm_cli put <dir> <input_file>
//   ecfrm_cli get <dir> <offset> <length> <output_file>
//   ecfrm_cli cat <dir> <output_file>
//   ecfrm_cli fail <dir> <disk>
//   ecfrm_cli reconstruct <dir> <disk>
//   ecfrm_cli scrub <dir>
//   ecfrm_cli corrupt <dir> <disk> <row> <byte>
//   ecfrm_cli status <dir>
//
//   code_spec: rs:<k>,<m> or lrc:<k>,<l>,<m>; layout: standard|rotated|ecfrm
//
// The archive survives process restarts: geometry and committed size live
// in <dir>/MANIFEST, payloads in <dir>/disk_<i>.dat.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/explain.h"
#include "core/read_planner.h"
#include "gf/kernels.h"
#include "core/scheme.h"
#include "layout/layout.h"
#include "obs/exposition.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/disk.h"
#include "store/ec_pipeline.h"
#include "store/fault_device.h"
#include "store/io_backend.h"
#include "store/manifest.h"
#include "store/stripe_store.h"

namespace {

using namespace ecfrm;
namespace fs = std::filesystem;

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  ecfrm_cli create <dir> <code_spec> <layout> <element_bytes>\n"
                 "  ecfrm_cli put <dir> <input_file> [object_name]\n"
                 "  ecfrm_cli get <dir> <offset> <length> <output_file>\n"
                 "  ecfrm_cli get-object <dir> <object_name> <output_file>\n"
                 "  ecfrm_cli list <dir>\n"
                 "  ecfrm_cli cat <dir> <output_file>\n"
                 "  ecfrm_cli overwrite <dir> <offset> <input_file>\n"
                 "  ecfrm_cli fail <dir> <disk>\n"
                 "  ecfrm_cli reconstruct <dir> <disk>\n"
                 "  ecfrm_cli scrub <dir>\n"
                 "  ecfrm_cli corrupt <dir> <disk> <row> <byte>\n"
                 "  ecfrm_cli status <dir>\n"
                 "  ecfrm_cli explain <code_spec> <layout> <start> <count>"
                 " [--failed d0,d1] [--policy local|balance]\n"
                 "  ecfrm_cli slowlog <dir> [--requests N] [--read-elems N] [--threshold-us T]\n"
                 "      [--seed S] [--out slow.ndjson] [--chrome-out trace.json]\n"
                 "  ecfrm_cli heat <dir> [--requests N] [--read-elems N] [--seed S]\n"
                 "      [--out heat.json] [--ndjson disks.ndjson]\n"
                 "  ecfrm_cli faultcamp [--seed S] [--elem BYTES] [--out artifact.json]\n"
                 "  ecfrm_cli pipeline [--spec S] [--layout L] [--elem BYTES] [--stripes N]\n"
                 "      [--policy immediate|delayed|threshold] [--max-pending N] [--rate ROWS_S]\n"
                 "      [--burst ROWS] [--chunk ROWS] [--repair-disk D] [--out state.json]\n"
                 "  ecfrm_cli simd [--out artifact.json]\n"
                 "  ecfrm_cli serve-bench <code_spec> <layout> [--threads N] [--requests N]"
                 " [--elem BYTES] [--read-elems N] [--stripes N] [--degraded] [--seed S]"
                 " [--out artifact.json]\n"
                 "global options (any command):\n"
                 "  --metrics-out <file>   dump metrics as newline-delimited JSON\n"
                 "  --metrics-prom <file>  dump metrics in Prometheus text format\n"
                 "  --trace-out <file>     dump spans as chrome://tracing JSON\n"
                 "  --serve <port>         serve /metrics, /metrics.json, /slo, /slow,\n"
                 "                         /requests/<id>, /disks, /heat and /healthz on\n"
                 "                         127.0.0.1 (GET / lists every route)\n"
                 "  --serve-hold <secs>    keep serving after the command (GET /quitquitquit ends)\n");
    return 2;
}

/// Process-wide observability sinks, enabled by the global flags.
struct ObsOutputs {
    std::string metrics_path;
    std::string prometheus_path;
    std::string trace_path;
    int serve_port = -1;       // >= 0: expose live metrics over HTTP
    double serve_hold = 0.0;   // seconds to keep serving after the command
    std::unique_ptr<obs::MetricRegistry> metrics;
    std::unique_ptr<obs::RequestForensics> forensics;
    std::unique_ptr<obs::DiskHeatModel> heat;  // sized lazily at archive open
    std::unique_ptr<obs::Snapshotter> snapshotter;
    std::unique_ptr<obs::ExpositionServer> server;

    /// The heat model needs the device count, which is only known once an
    /// archive's manifest is read — after enable() has already started the
    /// server. Store commands call this as they open, and the server picks
    /// the model up mid-flight.
    void attach_heat_for(int disks) {
        if (metrics == nullptr && forensics == nullptr) return;
        if (heat != nullptr && heat->disks() == disks) return;
        heat = std::make_unique<obs::DiskHeatModel>(disks);
        if (server != nullptr) server->attach_heat(heat.get());
    }

    void enable() {
        if (!metrics_path.empty() || !prometheus_path.empty() || serve_port >= 0) {
            metrics = std::make_unique<obs::MetricRegistry>("ecfrm_cli");
            core::attach_planner_metrics(metrics.get());
            gf::attach_kernel_metrics(metrics.get());
        }
        // Request forensics ride along with any observability sink: store
        // commands feed /slo and /slow whenever --serve (or a metrics
        // dump) is active. --trace-out keeps every request's span tree,
        // up to 16384 of them.
        if (!trace_path.empty()) {
            obs::ForensicsOptions opts;
            opts.slow_threshold_us = 0.0;
            opts.max_exemplars = std::size_t{1} << 14;
            forensics = std::make_unique<obs::RequestForensics>(opts);
        } else if (metrics != nullptr) {
            forensics = std::make_unique<obs::RequestForensics>();
        }
        if (serve_port >= 0) {
            snapshotter = std::make_unique<obs::Snapshotter>(metrics.get(), 1.0);
            snapshotter->start();
            server = std::make_unique<obs::ExpositionServer>(metrics.get(), snapshotter.get(),
                                                             forensics.get());
            auto status = server->start(serve_port);
            if (!status.ok()) {
                std::fprintf(stderr, "error: %s\n", status.error().message.c_str());
                server.reset();
                return;
            }
            std::printf("serving metrics on http://127.0.0.1:%d/metrics\n", server->port());
            std::fflush(stdout);
        }
    }

    /// Honour --serve-hold: keep the command's final metrics scrapable
    /// until the hold expires or a client GETs /quitquitquit.
    void hold() {
        if (server == nullptr || serve_hold <= 0.0) return;
        std::printf("holding for %.1fs (GET /quitquitquit to release)\n", serve_hold);
        std::fflush(stdout);
        server->wait_for_quit(serve_hold);
    }

    static bool write_file(const std::string& path, const std::string& body) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        if (!out.good()) {
            std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
            return false;
        }
        return true;
    }

    /// Dump whatever was requested; returns false on write failure.
    bool flush() const {
        bool ok = true;
        if (metrics != nullptr && !metrics_path.empty()) {
            ok = write_file(metrics_path, metrics->to_json()) && ok;
        }
        if (metrics != nullptr && !prometheus_path.empty()) {
            ok = write_file(prometheus_path, metrics->to_prometheus()) && ok;
        }
        if (!trace_path.empty()) {
            ok = write_file(trace_path, forensics->chrome_json()) && ok;
            if (forensics->evicted() > 0) {
                std::fprintf(stderr,
                             "warning: %s holds the last %zu requests; %zu earlier were dropped\n",
                             trace_path.c_str(), forensics->captured(), forensics->evicted());
            }
        }
        return ok;
    }
};

ObsOutputs g_obs;

int fail_with(const Error& error) {
    std::fprintf(stderr, "error: %s\n", error.message.c_str());
    return 1;
}

struct Archive {
    store::Manifest manifest;
    std::unique_ptr<store::StripeStore> store;
};

Result<Archive> open_archive(const std::string& dir) {
    auto manifest = store::Manifest::load(dir);
    if (!manifest.ok()) return manifest.error();

    auto code = codes::make_code(manifest->code_spec);
    if (!code.ok()) return code.error();
    core::Scheme scheme(code.value(), manifest->kind);

    const std::int64_t element_bytes = manifest->element_bytes;
    auto st = store::StripeStore::open(
        std::move(scheme), element_bytes,
        [&dir, element_bytes](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
            // Backend per ECFRM_IO_BACKEND (default: uring when the
            // kernel has it, else pread); all backends share the
            // archive's on-disk format.
            return store::open_file_device(dir, index, element_bytes);
        });
    if (!st.ok()) return st.error();
    auto restored = st.value()->restore(manifest->extents, manifest->stripes);
    if (!restored.ok()) return restored.error();
    g_obs.attach_heat_for(st.value()->scheme().disks());
    st.value()->attach_observability(g_obs.metrics.get(), g_obs.forensics.get(), g_obs.heat.get());
    return Archive{std::move(manifest).take(), std::move(st).take()};
}

Status save_manifest(const std::string& dir, Archive& archive) {
    archive.manifest.logical_bytes = archive.store->logical_bytes();
    archive.manifest.stripes =
        archive.store->stored_data_elements() / archive.store->scheme().layout().data_per_stripe();
    archive.manifest.extents = archive.store->extents();
    return archive.manifest.save(dir);
}

int cmd_create(const std::string& dir, const std::string& spec, const std::string& layout_name,
               const std::string& elem) {
    auto code = codes::make_code(spec);
    if (!code.ok()) return fail_with(code.error());
    auto kind = store::parse_layout_kind(layout_name);
    if (!kind.ok()) return fail_with(kind.error());
    const long long element_bytes = std::atoll(elem.c_str());
    if (element_bytes <= 0 || element_bytes % 8 != 0) {
        std::fprintf(stderr, "error: element_bytes must be a positive multiple of 8\n");
        return 1;
    }
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (fs::exists(dir + "/MANIFEST")) {
        std::fprintf(stderr, "error: archive already exists at %s\n", dir.c_str());
        return 1;
    }
    store::Manifest manifest;
    manifest.code_spec = spec;
    manifest.kind = kind.value();
    manifest.element_bytes = element_bytes;
    auto status = manifest.save(dir);
    if (!status.ok()) return fail_with(status.error());

    core::Scheme scheme(code.value(), kind.value());
    std::printf("created %s archive on %d disks (element %lld B, stripe %d rows)\n",
                scheme.name().c_str(), scheme.disks(), element_bytes, scheme.layout().rows_per_stripe());
    return 0;
}

int write_range(Archive& archive, std::int64_t offset, std::int64_t length, const std::string& output);

int cmd_put(const std::string& dir, const std::string& input, const std::string& object_name) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    if (!object_name.empty() && archive->manifest.find_object(object_name) != nullptr) {
        std::fprintf(stderr, "error: object '%s' already exists\n", object_name.c_str());
        return 1;
    }

    std::ifstream in(input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", input.c_str());
        return 1;
    }
    const std::int64_t object_offset = archive->store->logical_bytes();
    std::vector<char> buffer(1 << 20);
    std::int64_t total = 0;
    while (in) {
        in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
        const std::streamsize got = in.gcount();
        if (got <= 0) break;
        auto status = archive->store->append(
            ConstByteSpan(reinterpret_cast<const std::uint8_t*>(buffer.data()), static_cast<std::size_t>(got)));
        if (!status.ok()) return fail_with(status.error());
        total += got;
    }
    auto status = archive->store->flush();
    if (!status.ok()) return fail_with(status.error());
    if (!object_name.empty()) {
        archive->manifest.objects.push_back({object_name, object_offset, total});
    }
    status = save_manifest(dir, archive.value());
    if (!status.ok()) return fail_with(status.error());
    std::printf("stored %lld bytes%s%s (archive now %lld bytes)\n", static_cast<long long>(total),
                object_name.empty() ? "" : " as object ", object_name.c_str(),
                static_cast<long long>(archive->store->logical_bytes()));
    return 0;
}

int cmd_get_object(const std::string& dir, const std::string& name, const std::string& output) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    const store::ObjectRecord* object = archive->manifest.find_object(name);
    if (object == nullptr) {
        std::fprintf(stderr, "error: no such object '%s'\n", name.c_str());
        return 1;
    }
    return write_range(archive.value(), object->offset, object->bytes, output);
}

int cmd_list(const std::string& dir) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    std::printf("%-32s %14s %14s\n", "object", "offset", "bytes");
    for (const auto& o : archive->manifest.objects) {
        std::printf("%-32s %14lld %14lld\n", o.name.c_str(), static_cast<long long>(o.offset),
                    static_cast<long long>(o.bytes));
    }
    std::printf("(%zu objects, %lld logical bytes)\n", archive->manifest.objects.size(),
                static_cast<long long>(archive->store->logical_bytes()));
    return 0;
}

int write_range(Archive& archive, std::int64_t offset, std::int64_t length, const std::string& output) {
    auto bytes = archive.store->read_bytes(offset, length);
    if (!bytes.ok()) return fail_with(bytes.error());
    std::ofstream out(output, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "error: cannot open %s for writing\n", output.c_str());
        return 1;
    }
    out.write(reinterpret_cast<const char*>(bytes->data()), static_cast<std::streamsize>(bytes->size()));
    if (!out.good()) {
        std::fprintf(stderr, "error: short write to %s\n", output.c_str());
        return 1;
    }
    std::printf("read %zu bytes -> %s\n", bytes->size(), output.c_str());
    return 0;
}

int cmd_get(const std::string& dir, const std::string& off, const std::string& len, const std::string& output) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    return write_range(archive.value(), std::atoll(off.c_str()), std::atoll(len.c_str()), output);
}

int cmd_cat(const std::string& dir, const std::string& output) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    const std::int64_t length = archive->store->logical_bytes();
    return write_range(archive.value(), 0, length, output);
}

int cmd_overwrite(const std::string& dir, const std::string& off, const std::string& input) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    std::ifstream in(input, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", input.c_str());
        return 1;
    }
    std::vector<char> body((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    auto status = archive->store->overwrite(
        std::atoll(off.c_str()),
        ConstByteSpan(reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
    if (!status.ok()) return fail_with(status.error());
    std::printf("overwrote %zu bytes at offset %s (parity delta-updated)\n", body.size(), off.c_str());
    return 0;
}

int cmd_fail(const std::string& dir, const std::string& disk) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    auto status = archive->store->fail_disk(std::atoi(disk.c_str()));
    if (!status.ok()) return fail_with(status.error());
    std::printf("disk %s marked failed (content dropped)\n", disk.c_str());
    return 0;
}

int cmd_reconstruct(const std::string& dir, const std::string& disk) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    auto stats = archive->store->reconstruct_disk(std::atoi(disk.c_str()));
    if (!stats.ok()) return fail_with(stats.error());
    std::printf("rebuilt %lld elements from %lld reads\n", static_cast<long long>(stats->elements_rebuilt),
                static_cast<long long>(stats->elements_read));
    return 0;
}

int cmd_scrub(const std::string& dir) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    auto report = archive->store->scrub();
    if (!report.ok()) return fail_with(report.error());
    std::printf("scanned %lld groups: %lld inconsistent, %lld elements repaired, %lld unrecoverable\n",
                static_cast<long long>(report->groups_scanned),
                static_cast<long long>(report->groups_inconsistent),
                static_cast<long long>(report->elements_repaired),
                static_cast<long long>(report->unrecoverable_groups));
    return report->unrecoverable_groups == 0 ? 0 : 1;
}

int cmd_corrupt(const std::string& dir, const std::string& disk, const std::string& row,
                const std::string& byte) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    auto status = archive->store->corrupt_element(std::atoi(disk.c_str()), std::atoll(row.c_str()),
                                                  static_cast<std::size_t>(std::atoll(byte.c_str())));
    if (!status.ok()) return fail_with(status.error());
    std::printf("flipped one byte on disk %s row %s (silently)\n", disk.c_str(), row.c_str());
    return 0;
}

int cmd_status(const std::string& dir) {
    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    const auto& scheme = archive->store->scheme();
    std::printf("scheme:         %s\n", scheme.name().c_str());
    std::printf("disks:          %d\n", scheme.disks());
    std::printf("element size:   %lld B\n", static_cast<long long>(archive->manifest.element_bytes));
    std::printf("logical size:   %lld B\n", static_cast<long long>(archive->store->logical_bytes()));
    std::printf("data elements:  %lld\n", static_cast<long long>(archive->store->stored_data_elements()));
    const auto failed = archive->store->failed_disks();
    std::printf("failed disks:   ");
    if (failed.empty()) {
        std::printf("none\n");
    } else {
        for (DiskId d : failed) std::printf("%d ", d);
        std::printf("\n");
    }
    auto parity = archive->store->verify_parity();
    std::printf("parity audit:   %s\n", parity.ok() ? "clean"
                                                    : (failed.empty() ? parity.error().message.c_str()
                                                                      : "skipped (failed disks)"));
    return 0;
}

/// `explain` plans a read against a synthetic scheme (no archive needed)
/// and prints the planner's decision as ecfrm.explain.v1 JSON.
int cmd_explain(const std::vector<std::string>& args) {
    std::vector<DiskId> failed;
    auto policy = core::DegradedPolicy::local_first;
    std::vector<std::string> positional;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--failed" && i + 1 < args.size()) {
            const std::string& list = args[++i];
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos) comma = list.size();
                failed.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
                pos = comma + 1;
            }
        } else if (args[i] == "--policy" && i + 1 < args.size()) {
            const std::string& name = args[++i];
            if (name == "balance") {
                policy = core::DegradedPolicy::balance;
            } else if (name != "local") {
                std::fprintf(stderr, "error: unknown policy '%s'\n", name.c_str());
                return 2;
            }
        } else {
            positional.push_back(args[i]);
        }
    }
    if (positional.size() != 4) return usage();
    auto code = codes::make_code(positional[0]);
    if (!code.ok()) return fail_with(code.error());
    auto kind = store::parse_layout_kind(positional[1]);
    if (!kind.ok()) return fail_with(kind.error());
    core::Scheme scheme(code.value(), kind.value());
    auto out = core::explain_read_json(scheme, std::atoll(positional[2].c_str()),
                                       std::atoll(positional[3].c_str()), failed, policy);
    if (!out.ok()) return fail_with(out.error());
    std::fputs(out->c_str(), stdout);
    return 0;
}

// ---------------------------------------------------------------------------
// slowlog: replay a seeded read workload against an archive with request
// forensics attached, then dump the captured exemplars as NDJSON (one
// request per line, full span tree). --threshold-us 0 captures every
// request, which makes this double as a per-phase latency profiler for an
// archive on real file-backed disks; --chrome-out exports the slowest
// captured request as a standalone chrome://tracing document.

int cmd_slowlog(const std::vector<std::string>& args) {
    if (args.size() < 3) return usage();
    const std::string& dir = args[2];
    int requests = 64;
    long long read_elems = 8;
    double threshold_us = 0.0;
    unsigned long long seed = 1;
    std::string out_path;
    std::string chrome_path;
    for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--requests" && i + 1 < args.size()) {
            requests = std::atoi(args[++i].c_str());
        } else if (args[i] == "--read-elems" && i + 1 < args.size()) {
            read_elems = std::atoll(args[++i].c_str());
        } else if (args[i] == "--threshold-us" && i + 1 < args.size()) {
            threshold_us = std::atof(args[++i].c_str());
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
            seed = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (args[i] == "--chrome-out" && i + 1 < args.size()) {
            chrome_path = args[++i];
        } else {
            return usage();
        }
    }
    if (requests <= 0 || read_elems <= 0) {
        std::fprintf(stderr, "error: --requests and --read-elems must be positive\n");
        return 1;
    }

    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    const std::int64_t committed = archive->store->committed_bytes();
    if (committed <= 0) {
        std::fprintf(stderr, "error: archive holds no committed bytes\n");
        return 1;
    }

    obs::ForensicsOptions opts;
    opts.slow_threshold_us = threshold_us;
    opts.max_exemplars = static_cast<std::size_t>(requests);
    obs::RequestForensics forensics(opts);
    archive->store->attach_observability(g_obs.metrics.get(), &forensics, g_obs.heat.get());

    const std::int64_t element_bytes = archive->manifest.element_bytes;
    const std::int64_t max_len = std::min<std::int64_t>(read_elems * element_bytes, committed);
    Rng rng(seed);
    int failures = 0;
    for (int r = 0; r < requests; ++r) {
        const std::int64_t length =
            1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_len)));
        const std::int64_t offset = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(committed - length + 1)));
        auto read = archive->store->read_bytes(offset, length);
        if (!read.ok()) ++failures;
    }
    archive->store->attach_observability(g_obs.metrics.get(), g_obs.forensics.get(), g_obs.heat.get());

    const auto exemplars = forensics.exemplars();
    std::printf("slowlog: %d requests, %zu captured (threshold %.1f us), %d failed\n", requests,
                exemplars.size(), threshold_us, failures);
    std::printf("%-6s %-9s %12s %6s %6s %7s %6s  %s\n", "id", "class", "dur_us", "retry",
                "hedge", "replan", "spans", "phases");
    for (const auto& trace : exemplars) {
        std::string phases;
        for (const auto& [name, us] : trace->phase_totals()) {
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s%s=%.0f", phases.empty() ? "" : " ", name.c_str(),
                          us);
            phases += buf;
        }
        std::printf("%-6llu %-9s %12.1f %6d %6d %7d %6zu  %s\n",
                    static_cast<unsigned long long>(trace->id()),
                    obs::request_class_name(trace->cls()), trace->dur_us(), trace->retries(),
                    trace->hedges(), trace->replans(), trace->node_count(), phases.c_str());
    }

    const std::string ndjson = forensics.slowlog_ndjson();
    if (!out_path.empty()) {
        if (!ObsOutputs::write_file(out_path, ndjson)) return 1;
    } else {
        std::fputs(ndjson.c_str(), stdout);
    }
    if (!chrome_path.empty()) {
        std::shared_ptr<const obs::RequestTrace> slowest;
        for (const auto& trace : exemplars) {
            if (slowest == nullptr || trace->dur_us() > slowest->dur_us()) slowest = trace;
        }
        if (slowest == nullptr) {
            std::fprintf(stderr, "error: no captured request to export\n");
            return 1;
        }
        if (!ObsOutputs::write_file(chrome_path, slowest->chrome_json())) return 1;
        std::printf("chrome trace of request %llu -> %s\n",
                    static_cast<unsigned long long>(slowest->id()), chrome_path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// heat: replay a seeded read workload against an archive with the live
// disk-heat scoreboard attached, then print the per-device health table and
// the cluster balance summary. --out dumps the full ecfrm.heat.v1 snapshot
// (the same document the /heat route serves); --ndjson dumps one JSON
// object per disk per line for log-pipeline ingestion. Without --out the
// snapshot goes to stdout after the table.

int cmd_heat(const std::vector<std::string>& args) {
    if (args.size() < 3) return usage();
    const std::string& dir = args[2];
    int requests = 64;
    long long read_elems = 8;
    unsigned long long seed = 1;
    std::string out_path;
    std::string ndjson_path;
    for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--requests" && i + 1 < args.size()) {
            requests = std::atoi(args[++i].c_str());
        } else if (args[i] == "--read-elems" && i + 1 < args.size()) {
            read_elems = std::atoll(args[++i].c_str());
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
            seed = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (args[i] == "--ndjson" && i + 1 < args.size()) {
            ndjson_path = args[++i];
        } else {
            return usage();
        }
    }
    if (requests <= 0 || read_elems <= 0) {
        std::fprintf(stderr, "error: --requests and --read-elems must be positive\n");
        return 1;
    }

    auto archive = open_archive(dir);
    if (!archive.ok()) return fail_with(archive.error());
    const std::int64_t committed = archive->store->committed_bytes();
    if (committed <= 0) {
        std::fprintf(stderr, "error: archive holds no committed bytes\n");
        return 1;
    }

    obs::DiskHeatModel heat(archive->store->scheme().disks());
    archive->store->attach_observability(g_obs.metrics.get(), g_obs.forensics.get(), &heat);

    const std::int64_t element_bytes = archive->manifest.element_bytes;
    const std::int64_t max_len = std::min<std::int64_t>(read_elems * element_bytes, committed);
    Rng rng(seed);
    int failures = 0;
    for (int r = 0; r < requests; ++r) {
        const std::int64_t length =
            1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_len)));
        const std::int64_t offset = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(committed - length + 1)));
        auto read = archive->store->read_bytes(offset, length);
        if (!read.ok()) ++failures;
    }
    archive->store->attach_observability(g_obs.metrics.get(), g_obs.forensics.get(), g_obs.heat.get());

    const double now = obs::DiskHeatModel::now_seconds();
    const obs::ClusterHeatSnapshot cluster = heat.snapshot(now);
    std::printf("heat: %d requests (%d failed), %ds window\n", requests, failures,
                static_cast<int>(cluster.window_seconds));
    std::printf("%-5s %6s %8s %10s %9s %9s %9s %4s %4s %4s %7s\n", "disk", "infl", "ops",
                "bytes", "ewma_us", "mean_us", "p99_us", "err", "tmo", "rty", "score");
    for (int d = 0; d < heat.disks(); ++d) {
        const obs::DiskHeatSnapshot s = heat.disk_snapshot(d, now);
        std::printf("%-5d %6lld %8lld %10lld %9.1f %9.1f %9.1f %4lld %4lld %4lld %6.2f%s\n",
                    s.disk, static_cast<long long>(s.in_flight), static_cast<long long>(s.ops),
                    static_cast<long long>(s.bytes), s.ewma_latency_us, s.mean_latency_us,
                    s.p99_latency_us, static_cast<long long>(s.errors),
                    static_cast<long long>(s.timeouts), static_cast<long long>(s.retries),
                    s.straggler_score, s.straggler ? " STRAGGLER" : "");
    }
    std::string stragglers;
    for (int d : cluster.stragglers) {
        if (!stragglers.empty()) stragglers += ",";
        stragglers += std::to_string(d);
    }
    std::printf(
        "cluster: requests=%lld measured_max_load=%.3f load_factor=%.3f skew_cov=%.3f "
        "hottest=%d stragglers=[%s]\n",
        static_cast<long long>(cluster.requests), cluster.measured_max_load,
        cluster.load_factor, cluster.skew_cov, cluster.hottest_disk, stragglers.c_str());

    const std::string snapshot_json = heat.heat_json(now);
    if (!out_path.empty()) {
        if (!ObsOutputs::write_file(out_path, snapshot_json)) return 1;
    } else {
        std::fputs(snapshot_json.c_str(), stdout);
    }
    if (!ndjson_path.empty() && !ObsOutputs::write_file(ndjson_path, heat.disks_ndjson(now))) {
        return 1;
    }
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// faultcamp: a seeded fault-injection campaign over the scheme x layout x
// fault-mix matrix. Each cell writes a deterministic payload through an array
// of FaultDevices, reads it back through the self-healing read path, and
// verifies every byte (or, for the beyond-tolerance mix, that every read
// surfaces the typed error). The ecfrm.faultcamp.v1 artifact embeds each
// cell's FaultPlan, so any failing cell replays from the artifact alone.

/// How one fault mix is injected and what the store is allowed to do back.
struct MixConfig {
    store::FaultPlan plan;
    store::RecoveryOptions recovery;
    bool use_pool = false;              // straggler_hedge needs concurrency
    bool expect_beyond_tolerance = false;
    bool audit_parity = false;          // only safe when reads are fault-free
};

constexpr std::int64_t kAllOps = 1'000'000'000;

MixConfig make_mix(const std::string& mix, std::uint64_t seed, int n, int k) {
    MixConfig cfg;
    cfg.plan.seed = seed;
    if (mix == "transient") {
        cfg.plan.max_burst = 2;
        store::FaultRule rule;
        rule.kind = store::FaultKind::transient;
        rule.op = store::FaultOp::read;
        rule.count = kAllOps;
        rule.probability = 0.08;
        cfg.plan.rules.push_back(rule);
        cfg.recovery.max_retries = 3;
    } else if (mix == "torn_write") {
        cfg.plan.max_burst = 2;
        store::FaultRule rule;
        rule.kind = store::FaultKind::torn_write;
        rule.op = store::FaultOp::write;
        rule.count = kAllOps;
        rule.probability = 0.2;
        rule.torn_fraction = 0.5;
        cfg.plan.rules.push_back(rule);
        cfg.recovery.max_retries = 3;
        cfg.audit_parity = true;  // write retries must have healed parity too
    } else if (mix == "latency_timeout") {
        store::FaultRule rule;
        rule.kind = store::FaultKind::latency;
        rule.disk = 0;
        rule.op = store::FaultOp::read;
        rule.count = 4;
        rule.latency_ms = 25.0;
        cfg.plan.rules.push_back(rule);
        cfg.recovery.op_timeout_ms = 5.0;
    } else if (mix == "bitflip_detected") {
        store::FaultRule rule;
        rule.kind = store::FaultKind::bit_flip;
        rule.disk = 1;
        rule.op = store::FaultOp::read;
        rule.count = 2;
        rule.flip_offset = 3;
        rule.detected = true;
        cfg.plan.rules.push_back(rule);
    } else if (mix == "fail_stop") {
        store::FaultRule rule;
        rule.kind = store::FaultKind::fail_stop;
        rule.disk = 2;
        rule.op = store::FaultOp::read;
        cfg.plan.rules.push_back(rule);
    } else if (mix == "straggler_hedge") {
        store::FaultRule rule;
        rule.kind = store::FaultKind::latency;
        rule.disk = 0;
        rule.op = store::FaultOp::read;
        rule.count = 2;
        rule.latency_ms = 50.0;
        cfg.plan.rules.push_back(rule);
        cfg.recovery.hedge_ms = 8.0;
        cfg.use_pool = true;
    } else if (mix == "beyond_tolerance") {
        // More fail-stops than the code has parity NODES (n and k here are
        // disk counts, so sub-packetized codes fail whole nodes, not
        // elements); every device trips on its first (write) op, so reads
        // find n-k+1 dead disks and must surface the typed error — never
        // wrong bytes, never a hang.
        for (DiskId d = 0; d <= static_cast<DiskId>(n - k); ++d) {
            store::FaultRule rule;
            rule.kind = store::FaultKind::fail_stop;
            rule.disk = d;
            cfg.plan.rules.push_back(rule);
        }
        cfg.expect_beyond_tolerance = true;
        cfg.recovery.max_replans = 8;
    }
    return cfg;
}

/// One campaign cell's evidence, as it lands in the artifact.
struct FaultCell {
    std::string spec;
    std::string layout;
    std::string mix;
    std::uint64_t seed = 0;
    std::string fault_plan_json = "{}";
    int reads = 0;
    int read_errors = 0;
    std::int64_t mismatched_bytes = 0;
    std::map<std::string, int> errors_by_code;
    std::int64_t retries = 0, timeouts = 0, replans = 0, hedged = 0;
    std::int64_t degraded = 0, decodes = 0;
    std::int64_t injected_faults = 0;
    /// Per-phase latency attribution (microseconds, summed over every
    /// request of the cell, all classes merged).
    std::vector<std::pair<std::string, double>> phase_us;
    /// Requests captured by the forensics layer (recovery-active or
    /// failed ones; the latency trigger is disabled for the campaign).
    std::int64_t captured = 0;
    /// False when a captured recovery-active request's phase durations do
    /// not tile its end-to-end latency.
    bool phase_ok = true;
    bool pass = false;
    std::string detail;
};

FaultCell run_fault_cell(const std::string& spec, layout::LayoutKind kind, const std::string& mix,
                         std::uint64_t cell_seed, std::int64_t elem_bytes) {
    FaultCell cell;
    cell.spec = spec;
    cell.layout = layout::to_string(kind);
    cell.mix = mix;
    cell.seed = cell_seed;

    auto code = codes::make_code(spec);
    if (!code.ok()) {
        cell.detail = code.error().message;
        return cell;
    }
    const MixConfig cfg =
        make_mix(mix, cell_seed, code.value()->nodes(), code.value()->data_nodes());
    cell.fault_plan_json = cfg.plan.to_json();

    std::vector<store::FaultDevice*> devices;
    auto factory = [&](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
        auto device = std::make_unique<store::FaultDevice>(std::make_unique<store::Disk>(elem_bytes),
                                                           cfg.plan, static_cast<DiskId>(index));
        devices.push_back(device.get());
        return std::unique_ptr<store::BlockDevice>(std::move(device));
    };

    std::unique_ptr<ThreadPool> pool;
    if (cfg.use_pool) pool = std::make_unique<ThreadPool>(4);
    obs::MetricRegistry metrics("ecfrm_faultcamp");
    auto st = store::StripeStore::open(core::Scheme(code.value(), kind), elem_bytes, factory,
                                       pool.get());
    if (!st.ok()) {
        cell.detail = st.error().message;
        return cell;
    }
    st.value()->set_recovery(cfg.recovery);
    // Capture every recovery-active request's span tree (latency trigger
    // off: within-tolerance cells finish in microseconds and would all
    // trip a wall-clock threshold on a loaded machine).
    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = -1.0;
    obs::RequestForensics forensics(fopts);
    st.value()->attach_observability(&metrics, &forensics);

    const std::int64_t data_elems = 4 * st.value()->scheme().layout().data_per_stripe();
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(data_elems * elem_bytes));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        const std::int64_t elem = static_cast<std::int64_t>(i) / elem_bytes;
        const std::int64_t byte = static_cast<std::int64_t>(i) % elem_bytes;
        payload[i] = static_cast<std::uint8_t>((elem * 131 + byte * 7 + 1) & 0xff);
    }
    auto written = st.value()->append(ConstByteSpan(payload.data(), payload.size()));
    if (written.ok()) written = st.value()->flush();
    if (!written.ok()) {
        cell.detail = "write phase: " + written.error().message;
        return cell;
    }

    const std::int64_t half = data_elems / 2;
    const std::int64_t chunks[][2] = {{0, half}, {half, data_elems - half}};
    for (const auto& chunk : chunks) {
        const std::int64_t start = chunk[0];
        const std::int64_t count = chunk[1];
        std::vector<std::uint8_t> got(static_cast<std::size_t>(count * elem_bytes));
        ++cell.reads;
        auto status = st.value()->read_elements(start, count, ByteSpan(got.data(), got.size()));
        if (!status.ok()) {
            ++cell.read_errors;
            ++cell.errors_by_code[Error::code_name(status.error().code)];
            continue;
        }
        const std::uint8_t* want = payload.data() + start * elem_bytes;
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] != want[i]) ++cell.mismatched_bytes;
        }
    }
    if (cfg.audit_parity) {
        auto parity = st.value()->verify_parity();
        if (!parity.ok()) cell.detail = "parity audit: " + parity.error().message;
    }

    cell.retries = metrics.counter("ecfrm_store_retries_total").value();
    cell.timeouts = metrics.counter("ecfrm_store_timeouts_total").value();
    cell.replans = metrics.counter("ecfrm_store_replans_total").value();
    cell.hedged = metrics.counter("ecfrm_store_hedged_reads_total").value();
    cell.degraded = metrics.counter("ecfrm_store_degraded_reads_total").value();
    cell.decodes = metrics.counter("ecfrm_store_decodes_total").value();
    for (const store::FaultDevice* device : devices) {
        cell.injected_faults += static_cast<std::int64_t>(device->events().size());
    }

    // Per-phase latency attribution, all request classes merged so every
    // cell reports where its (degraded-)read time went.
    for (int c = 0; c < obs::kRequestClasses; ++c) {
        for (const auto& [name, us] : forensics.phase_totals(static_cast<obs::RequestClass>(c))) {
            auto it = std::find_if(cell.phase_us.begin(), cell.phase_us.end(),
                                   [&](const auto& p) { return p.first == name; });
            if (it == cell.phase_us.end()) {
                cell.phase_us.emplace_back(name, us);
            } else {
                it->second += us;
            }
        }
    }
    cell.captured = static_cast<std::int64_t>(forensics.captured());
    // Audit the captured trees: a recovery-active request's phase spans
    // are recorded contiguously, so their durations must tile the
    // request's end-to-end latency (5% tolerance, plus a 10 us floor for
    // clock granularity on microsecond-scale requests).
    for (const auto& trace : forensics.exemplars()) {
        if (!trace->ok() || !trace->recovery_active()) continue;
        double phase_sum = 0.0;
        for (const auto& [name, us] : trace->phase_totals()) phase_sum += us;
        const double dur = trace->dur_us();
        if (std::fabs(dur - phase_sum) > std::max(0.05 * dur, 10.0)) {
            cell.phase_ok = false;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "request %llu: phases sum to %.1f us of %.1f us end-to-end",
                          static_cast<unsigned long long>(trace->id()), phase_sum, dur);
            if (cell.detail.empty()) cell.detail = buf;
        }
    }
    // Every cell whose counters show read-path recovery engaged must have
    // captured at least one exemplar for it. Retries are excluded from
    // the predicate: they also count write-path retries (torn writes),
    // which run outside any traced read request.
    const bool recovered = cell.timeouts + cell.replans + cell.hedged > 0;
    if (recovered && cell.captured == 0) {
        cell.phase_ok = false;
        if (cell.detail.empty()) cell.detail = "recovery engaged but no request was captured";
    }
    st.value()->attach_observability(nullptr);

    if (cfg.expect_beyond_tolerance) {
        cell.pass = cell.read_errors == cell.reads && cell.mismatched_bytes == 0 &&
                    cell.errors_by_code.size() == 1 &&
                    cell.errors_by_code.count("beyond_tolerance") == 1 && cell.phase_ok;
        if (!cell.pass && cell.detail.empty()) {
            cell.detail = "expected every read to fail with beyond_tolerance";
        }
        return cell;
    }
    cell.pass = cell.read_errors == 0 && cell.mismatched_bytes == 0 && cell.phase_ok &&
                cell.detail.empty();
    if (!cell.pass && cell.detail.empty()) {
        cell.detail = "read errors or byte mismatches under a within-tolerance mix";
    }
    // Scripted (probability-1) mixes are deterministic regardless of seed,
    // so the recovery mechanism they target must actually have engaged.
    if (cell.pass && mix == "latency_timeout" && (cell.timeouts < 1 || cell.replans < 1)) {
        cell.pass = false;
        cell.detail = "expected timeouts and a mid-flight replan";
    }
    if (cell.pass && mix == "bitflip_detected" && (cell.replans < 1 || cell.degraded < 1)) {
        cell.pass = false;
        cell.detail = "expected detected corruption to force a degraded replan";
    }
    if (cell.pass && mix == "fail_stop" && cell.degraded < 1) {
        cell.pass = false;
        cell.detail = "expected degraded reads around the tripped disk";
    }
    if (cell.pass && mix == "straggler_hedge" && cell.hedged < 1) {
        cell.pass = false;
        cell.detail = "expected hedged reads around the straggler";
    }
    return cell;
}

// ---------------------------------------------------------------------------
// Write-path cells: the matrix above aims faults at reads; these three aim
// them at the write pipeline itself — a scripted torn write inside a stripe
// commit, a device dying during a parity flush (repaired by the EcPipeline
// scheduler), and a crash that a manifest replay must make invisible. One
// scheme each, fully deterministic, same FaultCell evidence format.

std::vector<std::uint8_t> write_cell_payload(std::int64_t bytes, std::int64_t elem_bytes) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(bytes));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        const std::int64_t elem = static_cast<std::int64_t>(i) / elem_bytes;
        const std::int64_t byte = static_cast<std::int64_t>(i) % elem_bytes;
        payload[i] = static_cast<std::uint8_t>((elem * 131 + byte * 7 + 1) & 0xff);
    }
    return payload;
}

/// Read the whole payload back and count mismatches into the cell.
void write_cell_verify(FaultCell& cell, store::StripeStore& st,
                       const std::vector<std::uint8_t>& payload) {
    ++cell.reads;
    auto got = st.read_bytes(0, static_cast<std::int64_t>(payload.size()));
    if (!got.ok()) {
        ++cell.read_errors;
        ++cell.errors_by_code[Error::code_name(got.error().code)];
        return;
    }
    for (std::size_t i = 0; i < payload.size(); ++i) {
        if (got.value()[i] != payload[i]) ++cell.mismatched_bytes;
    }
}

FaultCell run_torn_midstripe_cell(std::uint64_t seed, std::int64_t elem_bytes) {
    FaultCell cell;
    cell.spec = "rs:6,3";
    cell.layout = "ecfrm";
    cell.mix = "torn_write_midstripe";
    cell.seed = seed;

    // Scripted, not probabilistic: write ops 1 and 2 of disk 2 tear —
    // mid-way through the first stripe commit's batch to that device. The
    // executor's retry rewrites the full payload, healing the torn rows.
    store::FaultPlan plan;
    plan.seed = seed;
    store::FaultRule torn;
    torn.kind = store::FaultKind::torn_write;
    torn.op = store::FaultOp::write;
    torn.disk = 2;
    torn.first_op = 1;
    torn.count = 2;
    torn.torn_fraction = 0.5;
    plan.rules = {torn};
    cell.fault_plan_json = plan.to_json();

    auto code = codes::make_code(cell.spec);
    if (!code.ok()) {
        cell.detail = code.error().message;
        return cell;
    }
    std::vector<store::FaultDevice*> devices;
    auto factory = [&](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
        auto device = std::make_unique<store::FaultDevice>(
            std::make_unique<store::Disk>(elem_bytes), plan, static_cast<DiskId>(index));
        devices.push_back(device.get());
        return std::unique_ptr<store::BlockDevice>(std::move(device));
    };
    obs::MetricRegistry metrics("ecfrm_faultcamp");
    auto st = store::StripeStore::open(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                       elem_bytes, factory);
    if (!st.ok()) {
        cell.detail = st.error().message;
        return cell;
    }
    store::RecoveryOptions recovery;
    recovery.max_retries = 4;
    st.value()->set_recovery(recovery);
    st.value()->attach_observability(&metrics);

    const auto payload = write_cell_payload(4 * st.value()->stripe_data_bytes(), elem_bytes);
    store::EcPipeline pipeline(*st.value(), nullptr);
    auto wrote = pipeline.append(ConstByteSpan(payload.data(), payload.size()));
    if (wrote.ok()) wrote = pipeline.flush();
    if (!wrote.ok()) {
        cell.detail = "write phase: " + wrote.error().message;
        return cell;
    }
    write_cell_verify(cell, *st.value(), payload);
    auto parity = st.value()->verify_parity();
    if (!parity.ok()) cell.detail = "parity audit: " + parity.error().message;

    cell.retries = metrics.counter("ecfrm_store_retries_total").value();
    for (const store::FaultDevice* device : devices) {
        cell.injected_faults += static_cast<std::int64_t>(device->events().size());
    }
    st.value()->attach_observability(nullptr);
    cell.pass = cell.read_errors == 0 && cell.mismatched_bytes == 0 && cell.retries >= 1 &&
                cell.injected_faults >= 1 && cell.detail.empty();
    if (!cell.pass && cell.detail.empty()) {
        cell.detail = "torn mid-stripe write was not healed by the retry layer";
    }
    return cell;
}

FaultCell run_parity_flush_failstop_cell(std::uint64_t seed, std::int64_t elem_bytes) {
    FaultCell cell;
    cell.spec = "rs:6,3";
    cell.layout = "ecfrm";
    cell.mix = "parity_flush_failstop";
    cell.seed = seed;

    auto code = codes::make_code(cell.spec);
    if (!code.ok()) {
        cell.detail = code.error().message;
        return cell;
    }
    const DiskId victim = 4;
    const int kStripes = 4;

    // Dry run on clean devices: count the data-phase write ops the victim
    // absorbs, so the scripted fail_stop fires on its FIRST parity-flush
    // write — the disk dies exactly between data commit and parity flush.
    std::int64_t data_ops = 0;
    {
        obs::MetricRegistry probe("ecfrm_faultcamp");
        store::StripeStore twin(core::Scheme(code.value(), layout::LayoutKind::ecfrm), elem_bytes);
        twin.attach_observability(&probe);
        const auto payload = write_cell_payload(kStripes * twin.stripe_data_bytes(), elem_bytes);
        const std::int64_t stripe_bytes = twin.stripe_data_bytes();
        for (int s = 0; s < kStripes; ++s) {
            auto committed = twin.commit_data_stripe(
                ConstByteSpan(payload.data() + s * stripe_bytes, stripe_bytes), stripe_bytes);
            if (!committed.ok()) {
                cell.detail = "probe phase: " + committed.error().message;
                return cell;
            }
        }
        data_ops = probe.counter("ecfrm_disk_write_ops_total",
                                 {{"disk", std::to_string(victim)}})
                       .value();
        twin.attach_observability(nullptr);
    }

    store::FaultPlan plan;
    plan.seed = seed;
    store::FaultRule dead;
    dead.kind = store::FaultKind::fail_stop;
    dead.op = store::FaultOp::write;
    dead.disk = victim;
    dead.first_op = data_ops;
    plan.rules = {dead};
    cell.fault_plan_json = plan.to_json();

    std::vector<store::FaultDevice*> devices;
    auto factory = [&](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
        auto device = std::make_unique<store::FaultDevice>(
            std::make_unique<store::Disk>(elem_bytes), plan, static_cast<DiskId>(index));
        devices.push_back(device.get());
        return std::unique_ptr<store::BlockDevice>(std::move(device));
    };
    obs::MetricRegistry metrics("ecfrm_faultcamp");
    auto st = store::StripeStore::open(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                       elem_bytes, factory);
    if (!st.ok()) {
        cell.detail = st.error().message;
        return cell;
    }
    st.value()->attach_observability(&metrics);

    const auto payload = write_cell_payload(kStripes * st.value()->stripe_data_bytes(), elem_bytes);
    const std::int64_t stripe_bytes = st.value()->stripe_data_bytes();
    std::vector<StripeId> stripes;
    for (int s = 0; s < kStripes; ++s) {
        auto committed = st.value()->commit_data_stripe(
            ConstByteSpan(payload.data() + s * stripe_bytes, stripe_bytes), stripe_bytes);
        if (!committed.ok()) {
            cell.detail = "data phase: " + committed.error().message;
            return cell;
        }
        stripes.push_back(committed.value());
    }
    // Parity flush: the victim trips on its first parity write; degraded
    // writes skip its placements and every other parity lands.
    for (int s = 0; s < kStripes; ++s) {
        auto encoded = st.value()->encode_stripe_parity(
            stripes[static_cast<std::size_t>(s)],
            ConstByteSpan(payload.data() + s * stripe_bytes, stripe_bytes));
        if (!encoded.ok()) {
            cell.detail = "parity flush: " + encoded.error().message;
            return cell;
        }
    }
    if (st.value()->failed_disks() != std::vector<DiskId>{victim}) {
        cell.detail = "fail_stop did not trip during the parity flush";
        return cell;
    }

    // Foreground reads decode around the dead disk, byte-exact.
    write_cell_verify(cell, *st.value(), payload);

    // The pipeline's repair scheduler restores full redundancy.
    store::EcPipeline pipeline(*st.value(), nullptr);
    auto requested = pipeline.request_repair(victim);
    if (requested.ok()) requested = pipeline.wait_repairs();
    if (!requested.ok()) {
        cell.detail = "repair phase: " + requested.error().message;
    } else {
        auto parity = st.value()->verify_parity();
        if (!parity.ok()) cell.detail = "post-repair parity audit: " + parity.error().message;
        write_cell_verify(cell, *st.value(), payload);
    }

    cell.degraded = metrics.counter("ecfrm_store_degraded_reads_total").value();
    cell.decodes = metrics.counter("ecfrm_store_decodes_total").value();
    for (const store::FaultDevice* device : devices) {
        cell.injected_faults += static_cast<std::int64_t>(device->events().size());
    }
    st.value()->attach_observability(nullptr);
    cell.pass = cell.read_errors == 0 && cell.mismatched_bytes == 0 && cell.degraded >= 1 &&
                cell.injected_faults >= 1 && cell.detail.empty();
    if (!cell.pass && cell.detail.empty()) {
        cell.detail = "expected degraded reads around the mid-flush failure, then clean repair";
    }
    return cell;
}

FaultCell run_manifest_replay_cell(std::uint64_t seed, std::int64_t elem_bytes) {
    FaultCell cell;
    cell.spec = "rs:6,3";
    cell.layout = "ecfrm";
    cell.mix = "manifest_replay";
    cell.seed = seed;

    auto code = codes::make_code(cell.spec);
    if (!code.ok()) {
        cell.detail = code.error().message;
        return cell;
    }
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() / ("ecfrm_faultcamp_replay_" + std::to_string(::getpid())))
            .string();
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    auto factory = [&](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
        return store::open_file_device(dir, index, elem_bytes);
    };

    store::Manifest manifest;
    manifest.code_spec = cell.spec;
    manifest.kind = layout::LayoutKind::ecfrm;
    manifest.element_bytes = elem_bytes;

    std::vector<std::uint8_t> durable;
    {
        auto st = store::StripeStore::open(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                           elem_bytes, factory);
        if (!st.ok()) {
            cell.detail = st.error().message;
            fs::remove_all(dir, ec);
            return cell;
        }
        store::EcPipeline pipeline(*st.value(), nullptr);
        durable = write_cell_payload(3 * st.value()->stripe_data_bytes(), elem_bytes);
        auto wrote = pipeline.append(ConstByteSpan(durable.data(), durable.size()));
        if (wrote.ok()) wrote = pipeline.flush();
        if (!wrote.ok()) {
            cell.detail = "durable phase: " + wrote.error().message;
            fs::remove_all(dir, ec);
            return cell;
        }
        // The manifest save is the durability point: everything it covers
        // has data AND parity on the devices (flush drained the encodes).
        manifest.logical_bytes = st.value()->committed_bytes();
        manifest.stripes = st.value()->stored_data_elements() /
                           st.value()->scheme().layout().data_per_stripe();
        manifest.extents = st.value()->extents();
        auto saved = manifest.save(dir);
        if (!saved.ok()) {
            cell.detail = "manifest save: " + saved.error().message;
            fs::remove_all(dir, ec);
            return cell;
        }
        // Crash mid-ingest: two more stripes land on the devices and a
        // tail is buffered, none of it recorded in the manifest. The
        // store object is simply dropped — no save, no flush.
        const auto torn =
            write_cell_payload(2 * st.value()->stripe_data_bytes() + elem_bytes / 2, elem_bytes);
        (void)pipeline.append(ConstByteSpan(torn.data(), torn.size()));
        (void)pipeline.quiesce();
    }

    // Replay: reopen from the manifest alone. The covered prefix must be
    // byte-exact and parity-consistent; the torn ingest is invisible.
    auto loaded = store::Manifest::load(dir);
    if (!loaded.ok()) {
        cell.detail = "manifest load: " + loaded.error().message;
        fs::remove_all(dir, ec);
        return cell;
    }
    auto reopened = store::StripeStore::open(core::Scheme(code.value(), loaded->kind),
                                             loaded->element_bytes, factory);
    if (!reopened.ok()) {
        cell.detail = reopened.error().message;
        fs::remove_all(dir, ec);
        return cell;
    }
    auto restored = reopened.value()->restore(loaded->extents, loaded->stripes);
    if (!restored.ok()) {
        cell.detail = "restore: " + restored.error().message;
        fs::remove_all(dir, ec);
        return cell;
    }
    if (reopened.value()->committed_bytes() != static_cast<std::int64_t>(durable.size())) {
        cell.detail = "replay exposed bytes beyond the manifest's durability point";
        fs::remove_all(dir, ec);
        return cell;
    }
    write_cell_verify(cell, *reopened.value(), durable);
    auto parity = reopened.value()->verify_parity();
    if (!parity.ok()) cell.detail = "replayed parity audit: " + parity.error().message;
    fs::remove_all(dir, ec);

    cell.pass = cell.read_errors == 0 && cell.mismatched_bytes == 0 && cell.detail.empty();
    if (!cell.pass && cell.detail.empty()) {
        cell.detail = "manifest replay did not reproduce the durable prefix";
    }
    return cell;
}

// ---------------------------------------------------------------------------
// The straggler lab: one persistently slow device, three hedge policies.
// A static hedge deadline is only useful if someone tuned it to the
// straggler's stall; the lab runs the same workload with no hedging, with
// a mistuned static deadline (longer than the stall, so it never fires),
// and with auto_hedge deriving its deadline from the fleet's live windowed
// p99 — and requires the adaptive run to win on p99 with the straggler
// flagged on the heat scoreboard.

struct StragglerRun {
    std::string policy;
    double p99_us = 0.0;
    std::int64_t hedged = 0;
    int read_errors = 0;
    std::int64_t mismatched_bytes = 0;
    bool straggler_flagged = false;  // disk 0 flagged in the final snapshot
};

struct StragglerLab {
    double stall_ms = 0.0;
    double static_hedge_ms = 0.0;
    std::vector<StragglerRun> runs;
    bool pass = false;
    std::string detail;
};

StragglerRun run_straggler_config(const char* policy, double hedge_ms, bool auto_hedge,
                                  double stall_ms, std::uint64_t seed, std::int64_t elem_bytes) {
    StragglerRun run;
    run.policy = policy;

    store::FaultPlan plan;
    plan.seed = seed;
    store::FaultRule rule;
    rule.kind = store::FaultKind::latency;
    rule.disk = 0;
    rule.op = store::FaultOp::read;
    rule.count = kAllOps;
    rule.latency_ms = stall_ms;
    plan.rules.push_back(rule);

    auto code = codes::make_code("rs:6,3");
    if (!code.ok()) {
        run.read_errors = 1;
        return run;
    }
    // Enough threads that the straggler's sleeping fetches cannot starve
    // the fast disks' queues while hedges overlap in-flight stalls.
    ThreadPool pool(8);
    auto st = store::StripeStore::open(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                       elem_bytes, store::faulty_memory_factory(elem_bytes, plan),
                                       &pool);
    if (!st.ok()) {
        run.read_errors = 1;
        return run;
    }
    store::RecoveryOptions recovery;
    recovery.hedge_ms = hedge_ms;
    recovery.auto_hedge = auto_hedge;
    recovery.auto_hedge_min_ms = 0.5;
    st.value()->set_recovery(recovery);

    obs::DiskHeatModel heat(st.value()->scheme().disks());
    obs::MetricRegistry metrics("ecfrm_straggler");
    st.value()->attach_observability(&metrics, nullptr, &heat);

    const std::int64_t data_elems = 4 * st.value()->scheme().layout().data_per_stripe();
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(data_elems * elem_bytes));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>((i * 167 + 5) & 0xff);
    }
    auto written = st.value()->append(ConstByteSpan(payload.data(), payload.size()));
    if (written.ok()) written = st.value()->flush();
    if (!written.ok()) {
        run.read_errors = 1;
        return run;
    }

    // Full-payload reads touch every disk, so each request feeds one
    // completion per device. The warmup gives the heat window its
    // min_ops samples per disk (the adaptive deadline refuses to fire
    // before that); warmup reads are not timed.
    const int warmup = static_cast<int>(heat.options().min_ops) + 2;
    const int measured = 24;
    std::vector<std::uint8_t> got(payload.size());
    std::vector<double> lat_us;
    lat_us.reserve(static_cast<std::size_t>(measured));
    for (int r = 0; r < warmup + measured; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        auto status = st.value()->read_elements(0, data_elems, ByteSpan(got.data(), got.size()));
        const auto t1 = std::chrono::steady_clock::now();
        if (!status.ok()) {
            ++run.read_errors;
            continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            if (got[i] != payload[i]) ++run.mismatched_bytes;
        }
        if (r >= warmup) {
            lat_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
            // Pace the closed loop: a hedged request returns while the
            // straggler's abandoned queue is still burning a pool thread
            // for the rest of its stall. The gap must roughly cover one
            // orphaned stall, or back-to-back issue piles those sleeps
            // onto the pool and turns thread starvation into the measured
            // latency.
            std::this_thread::sleep_for(std::chrono::milliseconds(36));
        }
    }
    run.p99_us = percentile(std::move(lat_us), 0.99);
    run.hedged = metrics.counter("ecfrm_store_hedged_reads_total").value();
    const auto cluster = heat.snapshot(obs::DiskHeatModel::now_seconds());
    for (int d : cluster.stragglers) {
        if (d == 0) run.straggler_flagged = true;
    }
    st.value()->attach_observability(nullptr);
    return run;
}

StragglerLab run_straggler_lab(std::uint64_t seed, std::int64_t elem_bytes) {
    StragglerLab lab;
    // The latency fault fires per element op, so a full-payload read pays
    // roughly (rows on disk 0) * stall_ms before the slow queue drains —
    // tens of milliseconds end to end. The static deadline sits above
    // that whole accumulated stall: mistuned for this fleet, it never
    // fires, while the adaptive deadline tracks the healthy disks' live
    // p99 and triggers within a few milliseconds.
    lab.stall_ms = 8.0;
    lab.static_hedge_ms = 100.0;
    lab.runs.push_back(
        run_straggler_config("none", 0.0, false, lab.stall_ms, seed, elem_bytes));
    lab.runs.push_back(run_straggler_config("static_mistuned", lab.static_hedge_ms, false,
                                            lab.stall_ms, seed ^ 0x9e37, elem_bytes));
    lab.runs.push_back(
        run_straggler_config("auto", 0.0, true, lab.stall_ms, seed ^ 0x79b9, elem_bytes));

    const StragglerRun& none = lab.runs[0];
    const StragglerRun& fixed = lab.runs[1];
    const StragglerRun& adaptive = lab.runs[2];
    for (const StragglerRun& run : lab.runs) {
        if (run.read_errors != 0 || run.mismatched_bytes != 0) {
            lab.detail = "policy " + run.policy + ": read errors or byte mismatches";
            return lab;
        }
    }
    // The adaptive run must beat BOTH baselines decisively (well outside
    // the noise of the accumulated stall), must actually have hedged, and
    // must have the slow device flagged on its scoreboard.
    const double bar = 0.8 * std::min(none.p99_us, fixed.p99_us);
    if (adaptive.p99_us >= bar) {
        lab.detail = "auto_hedge p99 did not beat the baselines";
    } else if (adaptive.hedged < 1) {
        lab.detail = "auto_hedge never triggered a hedge";
    } else if (!adaptive.straggler_flagged) {
        lab.detail = "slow disk 0 was not flagged as a straggler";
    } else {
        lab.pass = true;
    }
    return lab;
}

std::string json_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

std::string straggler_lab_json(const StragglerLab& lab) {
    std::string out = "{\"scheme\":\"rs:6,3\",\"layout\":\"ecfrm\"";
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"stall_ms\":%.1f,\"static_hedge_ms\":%.1f", lab.stall_ms,
                  lab.static_hedge_ms);
    out += buf;
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < lab.runs.size(); ++i) {
        const StragglerRun& run = lab.runs[i];
        if (i > 0) out += ",";
        out += "{\"policy\":\"" + run.policy + "\"";
        std::snprintf(buf, sizeof(buf), ",\"p99_us\":%.1f", run.p99_us);
        out += buf;
        out += ",\"hedged\":" + std::to_string(run.hedged);
        out += ",\"read_errors\":" + std::to_string(run.read_errors);
        out += ",\"mismatched_bytes\":" + std::to_string(run.mismatched_bytes);
        out += std::string(",\"straggler_flagged\":") +
               (run.straggler_flagged ? "true" : "false") + "}";
    }
    out += "]";
    out += std::string(",\"pass\":") + (lab.pass ? "true" : "false");
    out += ",\"detail\":\"" + json_escape(lab.detail) + "\"}";
    return out;
}

std::string faultcamp_json(std::uint64_t seed, std::int64_t elem_bytes,
                           const std::vector<FaultCell>& cells, const StragglerLab& lab,
                           bool all_pass) {
    std::string out = "{\"schema\":\"ecfrm.faultcamp.v1\",";
    out += "\"seed\":\"" + std::to_string(seed) + "\",";
    out += "\"element_bytes\":" + std::to_string(elem_bytes) + ",";
    out += std::string("\"pass\":") + (all_pass ? "true" : "false") + ",";
    out += "\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const FaultCell& cell = cells[i];
        if (i > 0) out += ",";
        out += "{\"scheme\":\"" + cell.spec + "\"";
        out += ",\"layout\":\"" + cell.layout + "\"";
        out += ",\"mix\":\"" + cell.mix + "\"";
        out += ",\"cell_seed\":\"" + std::to_string(cell.seed) + "\"";
        out += ",\"reads\":" + std::to_string(cell.reads);
        out += ",\"read_errors\":" + std::to_string(cell.read_errors);
        out += ",\"mismatched_bytes\":" + std::to_string(cell.mismatched_bytes);
        out += ",\"injected_faults\":" + std::to_string(cell.injected_faults);
        out += ",\"errors_by_code\":{";
        bool first = true;
        for (const auto& [code, count] : cell.errors_by_code) {
            if (!first) out += ",";
            first = false;
            out += "\"" + std::string(code) + "\":" + std::to_string(count);
        }
        out += "},\"counters\":{";
        out += "\"retries\":" + std::to_string(cell.retries);
        out += ",\"timeouts\":" + std::to_string(cell.timeouts);
        out += ",\"replans\":" + std::to_string(cell.replans);
        out += ",\"hedged_reads\":" + std::to_string(cell.hedged);
        out += ",\"degraded_reads\":" + std::to_string(cell.degraded);
        out += ",\"decodes\":" + std::to_string(cell.decodes);
        out += "},\"phase_us\":{";
        first = true;
        for (const auto& [phase, us] : cell.phase_us) {
            if (!first) out += ",";
            first = false;
            char buf[96];
            std::snprintf(buf, sizeof(buf), "\"%s\":%.1f", phase.c_str(), us);
            out += buf;
        }
        out += "}";
        out += ",\"captured\":" + std::to_string(cell.captured);
        out += std::string(",\"pass\":") + (cell.pass ? "true" : "false");
        out += ",\"detail\":\"" + json_escape(cell.detail) + "\"";
        out += ",\"fault_plan\":" + cell.fault_plan_json;
        out += "}";
    }
    out += "],\"straggler_lab\":" + straggler_lab_json(lab) + "}\n";
    return out;
}

int cmd_faultcamp(const std::vector<std::string>& args) {
    std::uint64_t seed = 20260805;
    std::string out_path;
    std::int64_t elem_bytes = 1024;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--seed" && i + 1 < args.size()) {
            seed = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else if (args[i] == "--elem" && i + 1 < args.size()) {
            elem_bytes = std::atoll(args[++i].c_str());
        } else {
            return usage();
        }
    }
    if (elem_bytes <= 0 || elem_bytes % 8 != 0) {
        std::fprintf(stderr, "error: --elem must be a positive multiple of 8\n");
        return 1;
    }

    const std::vector<std::string> specs{"rs:6,3", "lrc:6,2,2", "hhxor:6,4", "htec:9,6,3"};
    const std::vector<layout::LayoutKind> kinds{
        layout::LayoutKind::standard, layout::LayoutKind::rotated, layout::LayoutKind::ecfrm};
    const std::vector<std::string> mixes{"transient",        "torn_write", "latency_timeout",
                                         "bitflip_detected", "fail_stop",  "straggler_hedge",
                                         "beyond_tolerance"};
    std::printf("faultcamp: seed=%llu, %zu cells (replay any cell with --seed %llu)\n",
                static_cast<unsigned long long>(seed), specs.size() * kinds.size() * mixes.size(),
                static_cast<unsigned long long>(seed));
    std::printf("%-10s %-9s %-17s %6s %5s %5s %5s %5s %5s %6s  %s\n", "scheme", "layout", "mix",
                "faults", "retry", "tmout", "replan", "hedge", "degr", "errors", "verdict");

    std::vector<FaultCell> cells;
    bool all_pass = true;
    std::uint64_t index = 0;
    for (const auto& spec : specs) {
        for (const auto kind : kinds) {
            for (const auto& mix : mixes) {
                ++index;
                const std::uint64_t cell_seed = seed ^ (0x9e3779b97f4a7c15ULL * index);
                cells.push_back(run_fault_cell(spec, kind, mix, cell_seed, elem_bytes));
                const FaultCell& cell = cells.back();
                all_pass = all_pass && cell.pass;
                std::printf("%-10s %-9s %-17s %6lld %5lld %5lld %6lld %5lld %5lld %6d  %s%s%s\n",
                            cell.spec.c_str(), cell.layout.c_str(), cell.mix.c_str(),
                            static_cast<long long>(cell.injected_faults),
                            static_cast<long long>(cell.retries),
                            static_cast<long long>(cell.timeouts),
                            static_cast<long long>(cell.replans),
                            static_cast<long long>(cell.hedged),
                            static_cast<long long>(cell.degraded), cell.read_errors,
                            cell.pass ? "ok" : "FAIL", cell.detail.empty() ? "" : ": ",
                            cell.detail.c_str());
            }
        }
    }

    // Write-path cells after the read matrix: one deterministic scenario
    // each, aimed at the commit/flush/replay machinery instead of reads.
    using WriteCellFn = FaultCell (*)(std::uint64_t, std::int64_t);
    const WriteCellFn write_cells[] = {run_torn_midstripe_cell, run_parity_flush_failstop_cell,
                                       run_manifest_replay_cell};
    for (WriteCellFn fn : write_cells) {
        ++index;
        cells.push_back(fn(seed ^ (0x9e3779b97f4a7c15ULL * index), elem_bytes));
        const FaultCell& cell = cells.back();
        all_pass = all_pass && cell.pass;
        std::printf("%-10s %-9s %-17s %6lld %5lld %5lld %6lld %5lld %5lld %6d  %s%s%s\n",
                    cell.spec.c_str(), cell.layout.c_str(), cell.mix.c_str(),
                    static_cast<long long>(cell.injected_faults),
                    static_cast<long long>(cell.retries), static_cast<long long>(cell.timeouts),
                    static_cast<long long>(cell.replans), static_cast<long long>(cell.hedged),
                    static_cast<long long>(cell.degraded), cell.read_errors,
                    cell.pass ? "ok" : "FAIL", cell.detail.empty() ? "" : ": ",
                    cell.detail.c_str());
    }

    // The straggler lab runs after the matrix: same artifact, its own
    // pass/fail line per hedge policy.
    const StragglerLab lab = run_straggler_lab(seed, elem_bytes);
    std::printf("straggler lab: rs:6,3/ecfrm, disk 0 stalls %.0fms per element read\n",
                lab.stall_ms);
    for (const StragglerRun& run : lab.runs) {
        std::printf("  %-16s p99=%9.1fus hedged=%-4lld straggler_flagged=%s\n",
                    run.policy.c_str(), run.p99_us, static_cast<long long>(run.hedged),
                    run.straggler_flagged ? "yes" : "no");
    }
    std::printf("  verdict: %s%s%s\n", lab.pass ? "ok" : "FAIL", lab.detail.empty() ? "" : ": ",
                lab.detail.c_str());
    all_pass = all_pass && lab.pass;

    const std::string artifact = faultcamp_json(seed, elem_bytes, cells, lab, all_pass);
    if (!out_path.empty() && !ObsOutputs::write_file(out_path, artifact)) return 1;
    std::printf("faultcamp: %s (%zu cells + straggler lab%s%s)\n", all_pass ? "PASS" : "FAIL",
                cells.size(), out_path.empty() ? "" : ", artifact: ", out_path.c_str());
    return all_pass ? 0 : 1;
}

// ---------------------------------------------------------------------------
// simd: report the GF kernel dispatch state — CPU features, active tier
// (after any ECFRM_SIMD override), and a short per-tier microbench — as
// ecfrm.simd.v1 JSON on stdout.

/// Median-of-3 throughput of `fn`, which moves `bytes` per call. Warm-up
/// plus ~8ms per repetition keeps the whole command under a second while
/// staying well above timer noise.
double simd_bench_gbps(const std::function<void()>& fn, double bytes) {
    using clock = std::chrono::steady_clock;
    fn();  // warm up caches, fault in tables, settle turbo
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        int iters = 0;
        const auto start = clock::now();
        auto now = start;
        do {
            fn();
            ++iters;
            now = clock::now();
        } while (now - start < std::chrono::milliseconds(8));
        const double secs = std::chrono::duration<double>(now - start).count();
        best = std::max(best, bytes * iters / secs / 1e9);
    }
    return best;
}

int cmd_simd(const std::vector<std::string>& args) {
    std::string out_path;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else {
            return usage();
        }
    }

    // tier_supported() already folds in the CPUID probes, so it doubles as
    // the feature report (and is honest on non-x86: everything false).
    const bool has_ssse3 = gf::tier_supported(gf::SimdTier::ssse3);
    const bool has_avx2 = gf::tier_supported(gf::SimdTier::avx2);
    const bool has_gfni = gf::tier_supported(gf::SimdTier::gfni);
    const char* env = std::getenv("ECFRM_SIMD");

    constexpr std::size_t kN = 1 << 20;  // 1 MiB regions, matching bench_gf
    constexpr std::size_t kK = 6, kM = 3;
    std::vector<std::uint8_t> src(kN, 0xa5), dst(kN, 0x5a);
    std::vector<std::vector<std::uint8_t>> srcs(kK, src), dsts(kM, dst);
    std::vector<const std::uint8_t*> sptr(kK);
    std::vector<std::uint8_t*> dptr(kM);
    for (std::size_t j = 0; j < kK; ++j) sptr[j] = srcs[j].data();
    for (std::size_t p = 0; p < kM; ++p) dptr[p] = dsts[p].data();
    std::uint8_t coeffs[kM * kK];
    for (std::size_t i = 0; i < kM * kK; ++i) coeffs[i] = static_cast<std::uint8_t>(2 + i);

    std::string json = "{\"schema\":\"ecfrm.simd.v1\",";
    json += "\"features\":{";
    json += std::string("\"ssse3\":") + (has_ssse3 ? "true" : "false");
    json += std::string(",\"avx2\":") + (has_avx2 ? "true" : "false");
    json += std::string(",\"gfni\":") + (has_gfni ? "true" : "false");
    json += "},";
    json += std::string("\"env_override\":") +
            (env != nullptr ? "\"" + json_escape(env) + "\"" : "null") + ",";
    json += std::string("\"active_tier\":\"") + gf::to_string(gf::active_tier()) + "\",";
    json += "\"tiers\":[";

    std::printf("%-8s %-10s %14s %14s\n", "tier", "supported", "addmul GB/s", "encode GB/s");
    for (int t = 0; t < gf::kSimdTierCount; ++t) {
        const auto tier = static_cast<gf::SimdTier>(t);
        const gf::KernelTable* kt = gf::kernels_for(tier);
        if (t > 0) json += ",";
        json += std::string("{\"tier\":\"") + gf::to_string(tier) + "\"";
        json += std::string(",\"supported\":") + (kt != nullptr ? "true" : "false");
        if (kt == nullptr) {
            json += "}";
            std::printf("%-8s %-10s %14s %14s\n", gf::to_string(tier), "no", "-", "-");
            continue;
        }
        const double addmul = simd_bench_gbps(
            [&] { kt->addmul_region(dst.data(), src.data(), 0x57, kN); }, kN);
        // Fused encode moves m*k source-bytes of GF work per call.
        const double encode = simd_bench_gbps(
            [&] { kt->encode_blocks(dptr.data(), kM, sptr.data(), kK, coeffs, kN); },
            static_cast<double>(kM) * kK * kN);
        char buf[128];
        std::snprintf(buf, sizeof(buf), ",\"addmul_gbps\":%.2f,\"encode_gbps\":%.2f}", addmul,
                      encode);
        json += buf;
        std::printf("%-8s %-10s %14.2f %14.2f\n", gf::to_string(tier), "yes", addmul, encode);
    }
    json += "]}\n";

    if (!out_path.empty()) {
        if (!ObsOutputs::write_file(out_path, json)) return 1;
    } else {
        std::fputs(json.c_str(), stdout);
    }
    return 0;
}

/// Deterministic payload byte for logical offset `i`, so any reader thread
/// can verify any range byte-exactly without sharing the written buffer.
std::uint8_t serve_bench_byte(std::int64_t i) {
    return static_cast<std::uint8_t>((i * 131) ^ (i >> 9) ^ 0x3d);
}

/// Multi-reader throughput probe: an in-memory store filled with a known
/// pattern, hammered by N threads issuing verified random-range reads
/// (optionally degraded). The store runs with no internal pool — the reader
/// threads are the concurrency, the shape a request-serving node has.
int cmd_serve_bench(const std::vector<std::string>& args) {
    if (args.size() < 4) return usage();
    const std::string& spec = args[2];
    const std::string& layout_name = args[3];
    int threads = 8;
    int requests = 64;
    long long element_bytes = 512;
    long long read_elems = 8;
    long long stripes = 6;
    bool degraded = false;
    unsigned long long seed = 1;
    std::string out_path;
    for (std::size_t i = 4; i < args.size(); ++i) {
        if (args[i] == "--threads" && i + 1 < args.size()) {
            threads = std::atoi(args[++i].c_str());
        } else if (args[i] == "--requests" && i + 1 < args.size()) {
            requests = std::atoi(args[++i].c_str());
        } else if (args[i] == "--elem" && i + 1 < args.size()) {
            element_bytes = std::atoll(args[++i].c_str());
        } else if (args[i] == "--read-elems" && i + 1 < args.size()) {
            read_elems = std::atoll(args[++i].c_str());
        } else if (args[i] == "--stripes" && i + 1 < args.size()) {
            stripes = std::atoll(args[++i].c_str());
        } else if (args[i] == "--degraded") {
            degraded = true;
        } else if (args[i] == "--seed" && i + 1 < args.size()) {
            seed = std::strtoull(args[++i].c_str(), nullptr, 10);
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else {
            return usage();
        }
    }
    if (threads <= 0 || requests <= 0 || read_elems <= 0 || stripes <= 0 ||
        element_bytes <= 0 || element_bytes % 8 != 0) {
        std::fprintf(stderr,
                     "error: serve-bench parameters must be positive"
                     " (element_bytes a multiple of 8)\n");
        return 1;
    }

    auto code = codes::make_code(spec);
    if (!code.ok()) return fail_with(code.error());
    auto kind = store::parse_layout_kind(layout_name);
    if (!kind.ok()) return fail_with(kind.error());
    core::Scheme scheme(code.value(), kind.value());

    store::StripeStore st(std::move(scheme), element_bytes, nullptr);
    const std::int64_t total_bytes =
        stripes * st.scheme().layout().data_per_stripe() * element_bytes;
    {
        std::vector<std::uint8_t> chunk(1 << 20);
        std::int64_t written = 0;
        while (written < total_bytes) {
            const std::int64_t n =
                std::min<std::int64_t>(static_cast<std::int64_t>(chunk.size()), total_bytes - written);
            for (std::int64_t i = 0; i < n; ++i) {
                chunk[static_cast<std::size_t>(i)] = serve_bench_byte(written + i);
            }
            auto status = st.append(ConstByteSpan(chunk.data(), static_cast<std::size_t>(n)));
            if (!status.ok()) return fail_with(status.error());
            written += n;
        }
        auto status = st.flush();
        if (!status.ok()) return fail_with(status.error());
    }
    if (degraded) {
        auto status = st.fail_disk(0);
        if (!status.ok()) return fail_with(status.error());
    }
    st.attach_observability(g_obs.metrics.get(), g_obs.forensics.get());

    const std::int64_t committed = st.committed_bytes();
    const std::int64_t max_len = std::min<std::int64_t>(read_elems * element_bytes, committed);

    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(threads));
    std::atomic<std::int64_t> bytes_read{0};
    std::atomic<std::int64_t> requests_ok{0};
    std::atomic<int> io_failures{0};
    std::atomic<bool> mismatch{false};
    auto worker = [&](int tid) {
        // Per-thread stream: seed mixed with the thread id keeps runs
        // reproducible for a fixed --seed and --threads.
        Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(tid + 1)));
        auto& samples = latencies[static_cast<std::size_t>(tid)];
        samples.reserve(static_cast<std::size_t>(requests));
        for (int r = 0; r < requests; ++r) {
            const std::int64_t length =
                1 + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(max_len)));
            const std::int64_t offset = static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(committed - length + 1)));
            const auto t0 = std::chrono::steady_clock::now();
            auto read = st.read_bytes(offset, length);
            const auto t1 = std::chrono::steady_clock::now();
            if (!read.ok()) {
                io_failures.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            samples.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
            bytes_read.fetch_add(length, std::memory_order_relaxed);
            requests_ok.fetch_add(1, std::memory_order_relaxed);
            for (std::int64_t i = 0; i < length; ++i) {
                if (read.value()[static_cast<std::size_t>(i)] != serve_bench_byte(offset + i)) {
                    mismatch.store(true, std::memory_order_relaxed);
                    break;
                }
            }
        }
    };

    const auto wall0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (auto& t : pool) t.join();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();

    std::vector<double> all;
    for (const auto& samples : latencies) all.insert(all.end(), samples.begin(), samples.end());
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(std::move(all), 0.99);
    const double throughput =
        wall_seconds > 0.0 ? static_cast<double>(bytes_read.load()) / 1e6 / wall_seconds : 0.0;

    std::printf("serve-bench %s %s: %d threads x %d requests%s\n", st.scheme().name().c_str(),
                layout::to_string(st.scheme().kind()), threads, requests,
                degraded ? " (degraded: disk 0 down)" : "");
    std::printf("%-16s %12s %12s %12s %12s\n", "requests_ok", "MB/s", "p50 us", "p99 us",
                "verify");
    std::printf("%-16lld %12.2f %12.1f %12.1f %12s\n",
                static_cast<long long>(requests_ok.load()), throughput, p50, p99,
                mismatch.load() ? "FAIL" : "ok");

    char num[512];
    std::string json = "{\"schema\":\"ecfrm.servebench.v1\"";
    json += ",\"scheme\":\"" + json_escape(st.scheme().name()) + "\"";
    json += ",\"layout\":\"" + std::string(layout::to_string(st.scheme().kind())) + "\"";
    std::snprintf(num, sizeof(num),
                  ",\"threads\":%d,\"requests_per_thread\":%d,\"element_bytes\":%lld"
                  ",\"stripes\":%lld,\"degraded\":%s,\"seed\":%llu",
                  threads, requests, element_bytes, stripes, degraded ? "true" : "false", seed);
    json += num;
    std::snprintf(num, sizeof(num),
                  ",\"requests_ok\":%lld,\"io_failures\":%d,\"bytes_read\":%lld"
                  ",\"wall_seconds\":%.6f,\"throughput_mb_s\":%.3f,\"p50_us\":%.1f"
                  ",\"p99_us\":%.1f,\"verified\":%s}\n",
                  static_cast<long long>(requests_ok.load()), io_failures.load(),
                  static_cast<long long>(bytes_read.load()), wall_seconds, throughput, p50, p99,
                  mismatch.load() ? "false" : "true");
    json += num;

    if (!out_path.empty()) {
        if (!ObsOutputs::write_file(out_path, json)) return 1;
    } else {
        std::fputs(json.c_str(), stdout);
    }
    if (mismatch.load()) {
        std::fprintf(stderr, "error: read verification mismatch against the written pattern\n");
        return 1;
    }
    if (io_failures.load() != 0) {
        std::fprintf(stderr, "error: %d reads failed\n", io_failures.load());
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// pipeline: run the online write/repair pipeline end to end on an in-memory
// store and emit its ecfrm.pipeline.v1 state — queue depth, repair policy,
// token bucket, encode backlog. With --repair-disk the named disk is failed
// after ingest and repaired by the scheduler before the state is emitted,
// so the repair counters carry real evidence.

int cmd_pipeline(const std::vector<std::string>& args) {
    std::string spec = "rs:4,2";
    std::string layout_name = "ecfrm";
    std::int64_t elem_bytes = 1024;
    std::int64_t stripes = 8;
    std::string out_path;
    int repair_disk = -1;
    store::PipelineOptions opts;
    for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "--spec" && i + 1 < args.size()) {
            spec = args[++i];
        } else if (args[i] == "--layout" && i + 1 < args.size()) {
            layout_name = args[++i];
        } else if (args[i] == "--elem" && i + 1 < args.size()) {
            elem_bytes = std::atoll(args[++i].c_str());
        } else if (args[i] == "--stripes" && i + 1 < args.size()) {
            stripes = std::atoll(args[++i].c_str());
        } else if (args[i] == "--policy" && i + 1 < args.size()) {
            auto policy = store::parse_repair_policy(args[++i]);
            if (!policy.ok()) return fail_with(policy.error());
            opts.repair_policy = policy.value();
        } else if (args[i] == "--max-pending" && i + 1 < args.size()) {
            opts.max_pending_stripes = static_cast<std::size_t>(std::atoll(args[++i].c_str()));
        } else if (args[i] == "--rate" && i + 1 < args.size()) {
            opts.repair_rows_per_second = std::atof(args[++i].c_str());
        } else if (args[i] == "--burst" && i + 1 < args.size()) {
            opts.repair_burst_rows = std::atof(args[++i].c_str());
        } else if (args[i] == "--chunk" && i + 1 < args.size()) {
            opts.repair_chunk_rows = std::atoll(args[++i].c_str());
        } else if (args[i] == "--repair-disk" && i + 1 < args.size()) {
            repair_disk = std::atoi(args[++i].c_str());
        } else if (args[i] == "--out" && i + 1 < args.size()) {
            out_path = args[++i];
        } else {
            return usage();
        }
    }
    if (elem_bytes <= 0 || elem_bytes % 8 != 0) {
        std::fprintf(stderr, "error: --elem must be a positive multiple of 8\n");
        return 1;
    }
    if (stripes <= 0) {
        std::fprintf(stderr, "error: --stripes must be positive\n");
        return 1;
    }
    auto code = codes::make_code(spec);
    if (!code.ok()) return fail_with(code.error());
    auto kind = store::parse_layout_kind(layout_name);
    if (!kind.ok()) return fail_with(kind.error());

    ThreadPool pool(4);
    store::StripeStore st(core::Scheme(code.value(), kind.value()), elem_bytes, &pool);
    if (repair_disk >= 0 && repair_disk >= st.scheme().disks()) {
        std::fprintf(stderr, "error: --repair-disk %d out of range (%d disks)\n", repair_disk,
                     st.scheme().disks());
        return 1;
    }
    st.attach_observability(g_obs.metrics.get(), g_obs.forensics.get());
    store::EcPipeline pipeline(st, &pool, opts);
    pipeline.attach_observability(g_obs.metrics.get(), g_obs.forensics.get());

    // Deterministic ingest through the online-encode stage.
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(stripes * st.stripe_data_bytes()));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>((i * 131 + 7) & 0xff);
    }
    auto wrote = pipeline.append(ConstByteSpan(payload.data(), payload.size()));
    if (wrote.ok()) wrote = pipeline.flush();
    if (!wrote.ok()) return fail_with(wrote.error());

    if (repair_disk >= 0) {
        auto failed = st.fail_disk(repair_disk);
        if (!failed.ok()) return fail_with(failed.error());
        auto requested = pipeline.request_repair(repair_disk);
        if (requested.ok()) requested = pipeline.wait_repairs();
        if (!requested.ok()) return fail_with(requested.error());
    }

    // Byte-verify the whole stream before reporting anything.
    auto got = st.read_bytes(0, static_cast<std::int64_t>(payload.size()));
    if (!got.ok()) return fail_with(got.error());
    if (got.value() != payload) {
        std::fprintf(stderr, "error: read-back mismatch after pipeline ingest\n");
        return 1;
    }

    const auto s = pipeline.snapshot();
    std::printf("pipeline %s %s: %lld stripes ingested, policy=%s, %lld async + %lld sync encodes",
                st.scheme().name().c_str(), layout::to_string(st.scheme().kind()),
                static_cast<long long>(stripes), store::repair_policy_name(s.policy),
                static_cast<long long>(s.encoded_stripes), static_cast<long long>(s.sync_encodes));
    if (repair_disk >= 0) {
        std::printf(", disk %d repaired (%lld rows)", repair_disk,
                    static_cast<long long>(s.repair_rows_done));
    }
    std::printf("\n");
    const std::string json = pipeline.to_json() + "\n";
    if (!out_path.empty()) {
        if (!ObsOutputs::write_file(out_path, json)) return 1;
    } else {
        std::fputs(json.c_str(), stdout);
    }
    return 0;
}

int dispatch(const std::vector<std::string>& args) {
    const int argc = static_cast<int>(args.size());
    if (argc >= 2 && args[1] == "faultcamp") return cmd_faultcamp(args);
    if (argc >= 2 && args[1] == "pipeline") return cmd_pipeline(args);
    if (argc >= 2 && args[1] == "simd") return cmd_simd(args);
    if (argc >= 2 && args[1] == "serve-bench") return cmd_serve_bench(args);
    if (argc < 3) return usage();
    const std::string& cmd = args[1];
    if (cmd == "explain") return cmd_explain(args);
    if (cmd == "slowlog") return cmd_slowlog(args);
    if (cmd == "heat") return cmd_heat(args);
    const std::string& dir = args[2];
    if (cmd == "create" && argc == 6) return cmd_create(dir, args[3], args[4], args[5]);
    if (cmd == "put" && argc == 4) return cmd_put(dir, args[3], "");
    if (cmd == "put" && argc == 5) return cmd_put(dir, args[3], args[4]);
    if (cmd == "get-object" && argc == 5) return cmd_get_object(dir, args[3], args[4]);
    if (cmd == "list" && argc == 3) return cmd_list(dir);
    if (cmd == "get" && argc == 6) return cmd_get(dir, args[3], args[4], args[5]);
    if (cmd == "cat" && argc == 4) return cmd_cat(dir, args[3]);
    if (cmd == "overwrite" && argc == 5) return cmd_overwrite(dir, args[3], args[4]);
    if (cmd == "fail" && argc == 4) return cmd_fail(dir, args[3]);
    if (cmd == "reconstruct" && argc == 4) return cmd_reconstruct(dir, args[3]);
    if (cmd == "scrub" && argc == 3) return cmd_scrub(dir);
    if (cmd == "corrupt" && argc == 6) return cmd_corrupt(dir, args[3], args[4], args[5]);
    if (cmd == "status" && argc == 3) return cmd_status(dir);
    return usage();
}

}  // namespace

int main(int argc, char** argv) {
    // Strip the global observability flags wherever they appear, then
    // dispatch on the remaining positional arguments.
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string* sink = nullptr;
        if (arg == "--metrics-out") sink = &g_obs.metrics_path;
        if (arg == "--metrics-prom") sink = &g_obs.prometheus_path;
        if (arg == "--trace-out") sink = &g_obs.trace_path;
        if (sink != nullptr) {
            if (i + 1 >= argc) return usage();
            *sink = argv[++i];
            continue;
        }
        if (arg == "--serve") {
            if (i + 1 >= argc) return usage();
            g_obs.serve_port = std::atoi(argv[++i]);
            continue;
        }
        if (arg == "--serve-hold") {
            if (i + 1 >= argc) return usage();
            g_obs.serve_hold = std::atof(argv[++i]);
            continue;
        }
        args.push_back(arg);
    }
    g_obs.enable();
    const int rc = dispatch(args);
    g_obs.hold();
    if (!g_obs.flush()) return rc == 0 ? 1 : rc;
    return rc;
}

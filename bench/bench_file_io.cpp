// bench_file_io: file-backend microbenchmark — pread vs uring on
// identical on-disk data.
//
// Two shapes, both on one disk file (per-disk queue depth is the unit the
// executor drives, so one disk is the honest comparison):
//
//   strided batch reads, queue depth D — one read_batch call per request
//   with D rows at stride 2, so runs never coalesce and every element is
//   its own transfer. pread pays a preadv per run; uring preps D SQEs and
//   submits them with one io_uring_enter. This is the SQE-batching win
//   the uring mode exists for.
//
//   concurrent reads, 8 threads — every thread hammers the same disk
//   with qd-8 strided batches of genuinely concurrent positional I/O.
//
// Series:
//   <backend>/qd<D>/strided_read_mb_s      higher_is_better
//   <backend>/t8/concurrent_read_mb_s      higher_is_better
//   uring_vs_pread/qd<D>_speedup           higher_is_better
//   uring_vs_pread/t8_speedup              higher_is_better
// ECFRM_BENCH_TRIALS caps request counts for CI smoke runs.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "artifact.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "store/io_backend.h"

namespace ecfrm {
namespace {

constexpr std::int64_t kElementBytes = 512;
constexpr std::int64_t kRows = 16384;  // 16 MiB data file, page-cache resident
constexpr std::uint64_t kSeed = 20260809;

int trials(int dflt) {
    if (const char* t = std::getenv("ECFRM_BENCH_TRIALS"); t != nullptr && std::atoi(t) > 0) {
        return std::atoi(t);
    }
    return dflt;
}

std::unique_ptr<store::BlockDevice> open_backend(const std::string& dir,
                                                 store::IoBackend backend) {
    auto dev = store::open_file_device(dir, 0, kElementBytes, backend);
    if (!dev.ok()) {
        std::fprintf(stderr, "open %s backend: %s\n", store::to_string(backend),
                     dev.error().message.c_str());
        std::abort();
    }
    return std::move(dev).take();
}

/// Per-case destination buffers, acquired from the process element arena
/// exactly like executor staging buffers: for the uring backend these
/// land in registered memory and batches issue as READ_FIXED, which is
/// the production fast path this bench exists to measure.
std::vector<PooledBuffer> make_dests(int qd) {
    std::vector<PooledBuffer> dests;
    dests.reserve(static_cast<std::size_t>(qd));
    for (int j = 0; j < qd; ++j) {
        dests.push_back(store::element_arena(kElementBytes)->acquire());
    }
    return dests;
}

/// One scattered qd-deep batch of sorted random rows (the shape a
/// rotated-layout degraded read produces); returns bytes read.
std::int64_t read_strided(const store::BlockDevice& dev, Rng& rng, int qd,
                          std::vector<PooledBuffer>& scratch) {
    // Sorted, pairwise non-adjacent rows: no run ever coalesces, and the
    // scatter defeats readahead the same way a real multi-stripe plan
    // does.
    const std::uint64_t span = static_cast<std::uint64_t>(kRows) / static_cast<std::uint64_t>(qd);
    std::vector<RowId> rows;
    std::vector<ByteSpan> outs;
    rows.reserve(static_cast<std::size_t>(qd));
    outs.reserve(static_cast<std::size_t>(qd));
    for (int j = 0; j < qd; ++j) {
        rows.push_back(static_cast<RowId>(static_cast<std::uint64_t>(j) * span +
                                          2 + rng.next_below(span - 2)));
        outs.push_back(scratch[static_cast<std::size_t>(j)].span());
    }
    auto status = dev.read_batch(std::span<const RowId>(rows.data(), rows.size()),
                                 std::span<const ByteSpan>(outs.data(), outs.size()));
    if (!status.ok()) {
        std::fprintf(stderr, "read_batch failed: %s\n", status.error().message.c_str());
        std::abort();
    }
    return qd * kElementBytes;
}

double strided_case(const std::string& dir, store::IoBackend backend, int qd) {
    const auto dev = open_backend(dir, backend);
    Rng rng(kSeed);
    std::vector<PooledBuffer> scratch = make_dests(qd);
    const int requests = trials(2000);
    // Warm the page cache (and the ring pools) outside the timed region.
    for (int i = 0; i < 32; ++i) read_strided(*dev, rng, qd, scratch);
    std::int64_t bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < requests; ++i) bytes += read_strided(*dev, rng, qd, scratch);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return secs > 0.0 ? static_cast<double>(bytes) / 1e6 / secs : 0.0;
}

double concurrent_case(const std::string& dir, store::IoBackend backend, int threads) {
    const auto dev = open_backend(dir, backend);
    const int qd = 8;
    const int requests = trials(2000) / threads + 1;
    std::vector<std::thread> pool;
    std::vector<std::int64_t> bytes(static_cast<std::size_t>(threads), 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(kSeed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1)));
            std::vector<PooledBuffer> scratch = make_dests(qd);
            for (int i = 0; i < requests; ++i) {
                bytes[static_cast<std::size_t>(t)] += read_strided(*dev, rng, qd, scratch);
            }
        });
    }
    for (auto& t : pool) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    std::int64_t total = 0;
    for (std::int64_t b : bytes) total += b;
    return secs > 0.0 ? static_cast<double>(total) / 1e6 / secs : 0.0;
}

}  // namespace
}  // namespace ecfrm

int main() {
    using namespace ecfrm;
    namespace fs = std::filesystem;
    bench::ArtifactWriter& writer = bench::ArtifactWriter::instance();
    writer.set_param("element_bytes", std::to_string(kElementBytes));
    writer.set_param("rows", std::to_string(kRows));
    writer.set_param("seed", std::to_string(kSeed));

    const fs::path dir =
        fs::temp_directory_path() / ("ecfrm_bench_file_io_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);

    {
        // Fill once with the pread backend; every backend reads the same
        // file (shared on-disk format).
        const auto dev = store::open_file_device(dir.string(), 0, kElementBytes,
                                                 store::IoBackend::pread);
        if (!dev.ok()) std::abort();
        Rng rng(kSeed);
        std::vector<std::uint8_t> elem(static_cast<std::size_t>(kElementBytes));
        for (RowId r = 0; r < kRows; ++r) {
            for (auto& b : elem) b = static_cast<std::uint8_t>(rng.next_below(256));
            if (!dev.value()->write(r, ConstByteSpan(elem.data(), elem.size())).ok()) {
                std::abort();
            }
        }
    }

    const store::IoBackend backends[] = {store::IoBackend::pread, store::IoBackend::uring};
    const int depths[] = {1, 8, 32};
    double strided[2][3] = {};
    double concurrent[2] = {};

    std::printf("%-8s %6s %14s\n", "backend", "qd", "MB/s");
    for (int b = 0; b < 2; ++b) {
        for (int d = 0; d < 3; ++d) {
            strided[b][d] = strided_case(dir.string(), backends[b], depths[d]);
            std::printf("%-8s %6d %14.1f\n", store::to_string(backends[b]), depths[d],
                        strided[b][d]);
            writer.add_scalar(std::string(store::to_string(backends[b])) + "/qd" +
                                  std::to_string(depths[d]) + "/strided_read_mb_s",
                              "MB/s", bench::Direction::higher_is_better, strided[b][d],
                              trials(2000));
        }
        concurrent[b] = concurrent_case(dir.string(), backends[b], 8);
        std::printf("%-8s %6s %14.1f  (8 threads)\n", store::to_string(backends[b]), "t8",
                    concurrent[b]);
        writer.add_scalar(std::string(store::to_string(backends[b])) + "/t8/concurrent_read_mb_s",
                          "MB/s", bench::Direction::higher_is_better, concurrent[b],
                          trials(2000));
    }

    // Acceptance series: the ratios CI pins against the committed
    // baseline. On kernels without io_uring the uring backend degrades to
    // pread and the speedups report that honestly.
    for (int d = 0; d < 3; ++d) {
        const double speedup = strided[0][d] > 0.0 ? strided[1][d] / strided[0][d] : 0.0;
        std::printf("uring vs pread qd%-3d %14.2fx\n", depths[d], speedup);
        writer.add_scalar("uring_vs_pread/qd" + std::to_string(depths[d]) + "_speedup", "x",
                          bench::Direction::higher_is_better, speedup, trials(2000));
    }
    const double t8_speedup = concurrent[0] > 0.0 ? concurrent[1] / concurrent[0] : 0.0;
    std::printf("uring vs pread t8   %14.2fx\n", t8_speedup);
    writer.add_scalar("uring_vs_pread/t8_speedup", "x", bench::Direction::higher_is_better,
                      t8_speedup, trials(2000));

    fs::remove_all(dir);
    return 0;
}

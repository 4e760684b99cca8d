// Randomized differential test: a StripeStore under a random operation
// stream (append / overwrite / flush / read / fail / reconstruct /
// corrupt+scrub) must always agree byte-for-byte with a plain in-memory
// reference model, for every scheme and layout, as long as concurrent
// failures stay within the code's tolerance.
//
// The faulty variants run the same op stream over FaultDevice-wrapped
// disks injecting probabilistic torn writes and transient EIOs; the
// store's retry/replan machinery must absorb every injected fault so the
// byte-for-byte agreement still holds. Any failure reproduces from the
// printed seed alone: it determines the op stream AND the fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "store/fault_device.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"

namespace ecfrm::store {
namespace {

using layout::LayoutKind;

struct FuzzParam {
    const char* spec;
    LayoutKind kind;
    std::uint64_t seed;
    bool with_faults;
};

/// The fuzz campaign's fault mix: unbounded windows of probabilistic torn
/// writes and transient errors on every disk. max_burst 2 with 3 store
/// retries guarantees forward progress while still exercising multi-fault
/// bursts.
FaultPlan fuzz_fault_plan(std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.max_burst = 2;
    FaultRule torn;
    torn.kind = FaultKind::torn_write;
    torn.op = FaultOp::write;
    torn.count = 1'000'000'000;
    torn.probability = 0.05;
    torn.torn_fraction = 0.5;
    FaultRule eio;
    eio.kind = FaultKind::transient;
    eio.op = FaultOp::any;
    eio.count = 1'000'000'000;
    eio.probability = 0.05;
    plan.rules = {torn, eio};
    return plan;
}

void run_fuzz(const char* spec, LayoutKind kind, std::uint64_t seed, bool with_faults,
              const StripeStore::DeviceFactory* factory = nullptr) {
    auto code = codes::make_code(spec);
    ASSERT_TRUE(code.ok());
    const int tolerance = code.value()->fault_tolerance();

    const std::int64_t elem = 32;
    std::unique_ptr<StripeStore> store;
    if (factory != nullptr) {
        // Caller-supplied devices (the backend-differential cells): same
        // op stream, different I/O stack underneath.
        auto opened = StripeStore::open(core::Scheme(code.value(), kind), elem, *factory);
        ASSERT_TRUE(opened.ok()) << opened.error().message;
        store = std::move(opened).take();
        if (with_faults) {
            RecoveryOptions recovery;
            recovery.max_retries = 3;
            store->set_recovery(recovery);
        }
    } else if (with_faults) {
        const FaultPlan plan = fuzz_fault_plan(seed);
        SCOPED_TRACE("replay: seed=" + std::to_string(seed) + " fault_plan=" + plan.to_json());
        auto opened = StripeStore::open(core::Scheme(code.value(), kind), elem,
                                        faulty_memory_factory(elem, plan));
        ASSERT_TRUE(opened.ok()) << opened.error().message;
        store = std::move(opened).take();
        RecoveryOptions recovery;
        recovery.max_retries = 3;
        store->set_recovery(recovery);
    } else {
        store = std::make_unique<StripeStore>(core::Scheme(code.value(), kind), elem);
    }

    std::vector<std::uint8_t> reference;  // logical byte stream
    std::set<DiskId> failed;
    Rng rng(seed);

    const int kOps = 300;
    for (int op = 0; op < kOps; ++op) {
        switch (rng.next_below(11)) {
            case 0:
            case 1:
            case 2: {  // append a random chunk
                const std::size_t size = 1 + rng.next_below(4 * static_cast<std::uint64_t>(elem));
                std::vector<std::uint8_t> chunk(size);
                for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_below(256));
                ASSERT_TRUE(store->append(ConstByteSpan(chunk.data(), chunk.size())).ok());
                reference.insert(reference.end(), chunk.begin(), chunk.end());
                break;
            }
            case 3: {  // flush (creates a fresh extent on partial stripes)
                ASSERT_TRUE(store->flush().ok());
                ASSERT_EQ(store->committed_bytes(), static_cast<std::int64_t>(reference.size()));
                break;
            }
            case 4:
            case 5:
            case 6: {  // random read of the committed prefix
                const std::int64_t committed = store->committed_bytes();
                if (committed == 0) break;
                const std::int64_t offset = static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(committed)));
                const std::int64_t length = 1 + static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(committed - offset)));
                auto out = store->read_bytes(offset, length);
                ASSERT_TRUE(out.ok()) << "op " << op << ": " << out.error().message;
                ASSERT_TRUE(std::memcmp(out->data(), reference.data() + offset,
                                        static_cast<std::size_t>(length)) == 0)
                    << "op " << op << " read mismatch at offset " << offset;
                break;
            }
            case 7: {  // fail a disk (stay within tolerance)
                if (static_cast<int>(failed.size()) >= tolerance) break;
                const auto disk = static_cast<DiskId>(rng.next_below(
                    static_cast<std::uint64_t>(store->scheme().disks())));
                if (failed.count(disk) > 0) break;
                ASSERT_TRUE(store->fail_disk(disk).ok());
                failed.insert(disk);
                break;
            }
            case 8: {  // reconstruct one failed disk
                if (failed.empty()) break;
                const DiskId disk = *failed.begin();
                auto stats = store->reconstruct_disk(disk);
                ASSERT_TRUE(stats.ok()) << "op " << op << ": " << stats.error().message;
                failed.erase(disk);
                break;
            }
            case 9: {  // silent corruption + scrub (only when all healthy)
                // Scrub audits raw device bytes, so it only runs in the
                // clean campaign — injected transients would abort it.
                if (with_faults) break;
                // Localizing a silent corruption takes two redundant
                // symbols (one to detect, one to identify the culprit);
                // single-parity codes like XOR(k) can only detect, so the
                // hypothesis-testing repair has nothing to pin the blame
                // with and this op would be a false alarm for them.
                if (tolerance < 2) break;
                if (!failed.empty() || store->stored_data_elements() == 0) break;
                const std::int64_t total = store->stored_data_elements();
                const auto e = static_cast<ElementId>(rng.next_below(static_cast<std::uint64_t>(total)));
                const Location loc = store->scheme().layout().locate_data(e);
                ASSERT_TRUE(store
                                ->corrupt_element(loc.disk, loc.row,
                                                  rng.next_below(static_cast<std::uint64_t>(elem)))
                                .ok());
                auto report = store->scrub();
                ASSERT_TRUE(report.ok());
                ASSERT_EQ(report->unrecoverable_groups, 0);
                break;
            }
            case 10: {  // in-place overwrite of a committed range (RMW)
                // The executor's batched RMW path: read the touched
                // elements, fold GF deltas into every live parity that
                // covers them, write back. Requires encoded parity (the
                // append path encodes inline, so the whole committed
                // prefix qualifies) and every participating disk online.
                const std::int64_t committed = store->committed_bytes();
                if (committed == 0 || !failed.empty()) break;
                const std::int64_t offset = static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(committed)));
                const std::int64_t max_len =
                    std::min<std::int64_t>(committed - offset, 3 * elem);
                const std::int64_t length = 1 + static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(max_len)));
                std::vector<std::uint8_t> chunk(static_cast<std::size_t>(length));
                for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_below(256));
                auto status = store->overwrite(offset, ConstByteSpan(chunk.data(), chunk.size()));
                ASSERT_TRUE(status.ok()) << "op " << op << ": " << status.error().message;
                std::copy(chunk.begin(), chunk.end(),
                          reference.begin() + static_cast<std::ptrdiff_t>(offset));
                break;
            }
        }
    }

    // Final audit: flush everything, read the whole stream, verify parity.
    ASSERT_TRUE(store->flush().ok());
    for (DiskId disk : std::vector<DiskId>(failed.begin(), failed.end())) {
        ASSERT_TRUE(store->reconstruct_disk(disk).ok());
    }
    auto out = store->read_bytes(0, static_cast<std::int64_t>(reference.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), reference);
    if (!with_faults) {
        // verify_parity reads raw device bytes without the retry layer, so
        // an injected transient would fail it spuriously.
        EXPECT_TRUE(store->verify_parity().ok());
    }
}

class FuzzStoreTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(FuzzStoreTest, RandomOpStreamMatchesReferenceModel) {
    const auto [spec, kind, seed, with_faults] = GetParam();
    run_fuzz(spec, kind, seed, with_faults);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, FuzzStoreTest,
    ::testing::Values(FuzzParam{"rs:6,3", LayoutKind::standard, 1, false},
                      FuzzParam{"rs:6,3", LayoutKind::ecfrm, 2, false},
                      FuzzParam{"rs:6,3", LayoutKind::rotated, 3, false},
                      FuzzParam{"lrc:6,2,2", LayoutKind::standard, 4, false},
                      FuzzParam{"lrc:6,2,2", LayoutKind::ecfrm, 5, false},
                      FuzzParam{"lrc:6,2,2", LayoutKind::rotated, 6, false},
                      FuzzParam{"rs:8,4", LayoutKind::ecfrm, 7, false},
                      FuzzParam{"lrc:8,2,3", LayoutKind::ecfrm, 8, false},
                      FuzzParam{"rs:10,5", LayoutKind::ecfrm, 9, false},
                      FuzzParam{"lrc:10,2,4", LayoutKind::ecfrm, 10, false},
                      FuzzParam{"rs:6,3", LayoutKind::ecfrm, 11, false},
                      FuzzParam{"lrc:6,2,2", LayoutKind::ecfrm, 12, false},
                      FuzzParam{"hhxor:6,4", LayoutKind::standard, 13, false},
                      FuzzParam{"hhxor:6,4", LayoutKind::rotated, 14, false},
                      FuzzParam{"hhxor:6,4", LayoutKind::ecfrm, 15, false},
                      FuzzParam{"htec:9,6,3", LayoutKind::standard, 16, false},
                      FuzzParam{"htec:9,6,3", LayoutKind::rotated, 17, false},
                      FuzzParam{"htec:9,6,3", LayoutKind::ecfrm, 18, false},
                      FuzzParam{"xor:5", LayoutKind::ecfrm, 19, false},
                      FuzzParam{"hhxor:8,3", LayoutKind::ecfrm, 20, false}));

/// Faulty campaign matrix: scheme x layout x seeds, torn writes +
/// transient errors injected throughout. The seed scheme pair keeps its
/// 8-seed depth; the zoo codes run a 4-seed sweep per layout so the
/// campaign stays inside the tier-1 time budget.
std::vector<FuzzParam> faulty_params() {
    std::vector<FuzzParam> params;
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::rotated, LayoutKind::ecfrm}) {
            for (std::uint64_t seed = 101; seed <= 108; ++seed) {
                params.push_back({spec, kind, seed, true});
            }
        }
    }
    for (const char* spec : {"hhxor:6,4", "htec:9,6,3"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::rotated, LayoutKind::ecfrm}) {
            for (std::uint64_t seed = 111; seed <= 114; ++seed) {
                params.push_back({spec, kind, seed, true});
            }
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(FaultyStreams, FuzzStoreTest, ::testing::ValuesIn(faulty_params()));

/// Multi-threaded faulty differential variant: the committed prefix is
/// frozen, then 8 reader threads issue random verified reads while a
/// chaos thread cycles disks through fail/reconstruct — all under the
/// same probabilistic torn-write/transient fault plan as the serial
/// campaign. Every read must come back byte-identical to the reference
/// model regardless of interleaving. (The fault schedule depends on the
/// thread interleaving, so this variant checks correctness under any
/// schedule rather than replaying one.) With `pool_threads` > 0 the store
/// fans each read's disk queues out on a thread pool. A `hedge_ms`
/// deadline on top adds occasional 1 ms read stalls to the fault plan;
/// the hedge must abandon those straggling queues to orphaned pool tasks
/// and decode their elements instead, and the cell asserts hedges fired.
void run_concurrent_fuzz(const char* spec, LayoutKind kind, std::uint64_t seed,
                         int pool_threads = 0, double hedge_ms = 0.0) {
    auto code = codes::make_code(spec);
    ASSERT_TRUE(code.ok());
    ASSERT_GE(code.value()->fault_tolerance(), 2) << "chaos thread needs 2 spare failures";

    const std::int64_t elem = 32;
    FaultPlan plan = fuzz_fault_plan(seed);
    if (hedge_ms > 0.0) {
        FaultRule stall;
        stall.kind = FaultKind::latency;
        stall.op = FaultOp::read;
        stall.count = 1'000'000'000;
        stall.probability = 0.02;
        stall.latency_ms = 1.0;
        plan.rules.push_back(stall);
    }
    SCOPED_TRACE("replay: seed=" + std::to_string(seed) + " fault_plan=" + plan.to_json());
    // Declared before the store: both must outlive its orphaned queues.
    obs::MetricRegistry metrics;
    std::unique_ptr<ThreadPool> pool;
    if (pool_threads > 0) pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(pool_threads));
    auto opened = StripeStore::open(core::Scheme(code.value(), kind), elem,
                                    faulty_memory_factory(elem, plan), pool.get());
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto store = std::move(opened).take();
    RecoveryOptions recovery;
    recovery.max_retries = 3;
    recovery.batch_elements = 2;
    recovery.hedge_ms = hedge_ms;
    store->set_recovery(recovery);

    // Freeze a multi-extent committed prefix for the readers to verify.
    std::vector<std::uint8_t> reference;
    Rng rng(seed);
    for (int run = 0; run < 3; ++run) {
        const std::size_t size = 1 + rng.next_below(40 * static_cast<std::uint64_t>(elem));
        std::vector<std::uint8_t> chunk(size);
        for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_below(256));
        ASSERT_TRUE(store->append(ConstByteSpan(chunk.data(), chunk.size())).ok());
        ASSERT_TRUE(store->flush().ok());
        reference.insert(reference.end(), chunk.begin(), chunk.end());
    }
    const auto committed = static_cast<std::int64_t>(reference.size());
    ASSERT_EQ(store->committed_bytes(), committed);
    store->attach_observability(&metrics);

    // One disk stays down so part of the run is degraded even between
    // chaos cycles; the chaos thread cycles a second one.
    const auto down = static_cast<DiskId>(rng.next_below(
        static_cast<std::uint64_t>(store->scheme().disks())));
    ASSERT_TRUE(store->fail_disk(down).ok());
    const auto cycled = static_cast<DiskId>(
        (down + 1) % static_cast<DiskId>(store->scheme().disks()));

    std::atomic<int> mismatches{0};
    std::atomic<int> read_errors{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&, t] {
            Rng thread_rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(t + 1)));
            for (int r = 0; r < 25; ++r) {
                const std::int64_t offset = static_cast<std::int64_t>(
                    thread_rng.next_below(static_cast<std::uint64_t>(committed)));
                const std::int64_t length = 1 + static_cast<std::int64_t>(thread_rng.next_below(
                    static_cast<std::uint64_t>(committed - offset)));
                auto out = store->read_bytes(offset, length);
                if (!out.ok()) {
                    read_errors.fetch_add(1);
                    continue;
                }
                if (std::memcmp(out->data(), reference.data() + offset,
                                static_cast<std::size_t>(length)) != 0) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    std::thread chaos([&] {
        for (int cycle = 0; cycle < 3; ++cycle) {
            ASSERT_TRUE(store->fail_disk(cycled).ok());
            auto stats = store->reconstruct_disk(cycled);
            ASSERT_TRUE(stats.ok()) << stats.error().message;
        }
    });
    for (auto& t : readers) t.join();
    chaos.join();
    EXPECT_EQ(read_errors.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    if (hedge_ms > 0.0) {
        EXPECT_GT(metrics.counter("ecfrm_store_hedged_reads_total").value(), 0);
    }

    // Heal fully and audit the stream end to end.
    ASSERT_TRUE(store->reconstruct_disk(down).ok());
    auto out = store->read_bytes(0, committed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), reference);
}

struct ConcurrentFuzzParam {
    const char* spec;
    LayoutKind kind;
    std::uint64_t seed;
    int pool_threads = 0;
    double hedge_ms = 0.0;
};

class ConcurrentFuzzStoreTest : public ::testing::TestWithParam<ConcurrentFuzzParam> {};

TEST_P(ConcurrentFuzzStoreTest, ConcurrentReadersMatchReferenceModel) {
    const auto [spec, kind, seed, pool_threads, hedge_ms] = GetParam();
    run_concurrent_fuzz(spec, kind, seed, pool_threads, hedge_ms);
}

INSTANTIATE_TEST_SUITE_P(
    ConcurrentStreams, ConcurrentFuzzStoreTest,
    ::testing::Values(ConcurrentFuzzParam{"rs:6,3", LayoutKind::ecfrm, 201},
                      ConcurrentFuzzParam{"rs:6,3", LayoutKind::standard, 202},
                      ConcurrentFuzzParam{"lrc:6,2,2", LayoutKind::ecfrm, 203},
                      ConcurrentFuzzParam{"lrc:6,2,2", LayoutKind::rotated, 204},
                      ConcurrentFuzzParam{"hhxor:6,4", LayoutKind::ecfrm, 205},
                      ConcurrentFuzzParam{"htec:9,6,3", LayoutKind::standard, 206}));

// Pooled cells: disk queues run on a 4-thread pool, joined (no hedge) or
// under a sub-millisecond hedge deadline, so straggling queues are
// decoded around and left orphaned on the pool.
INSTANTIATE_TEST_SUITE_P(
    PooledStreams, ConcurrentFuzzStoreTest,
    ::testing::Values(ConcurrentFuzzParam{"rs:6,3", LayoutKind::ecfrm, 207, 4, 0.0},
                      ConcurrentFuzzParam{"lrc:6,2,2", LayoutKind::rotated, 208, 4, 0.05}));

/// Backend-differential cells: the identical deterministic op stream
/// (append / flush / read / fail / reconstruct / corrupt+scrub, fixed
/// seed) runs over file-backed stores once per I/O backend. Every run is
/// verified byte-for-byte against the same in-memory reference model, so
/// stdio, pread and uring are pinned byte-identical to each other — in
/// clean mode and with FaultDevice-injected torn writes and transient
/// EIOs layered on top of the real file I/O.
struct BackendDiffParam {
    const char* spec;
    std::uint64_t seed;
    bool with_faults;
};

class BackendDifferentialFuzzTest : public ::testing::TestWithParam<BackendDiffParam> {};

TEST_P(BackendDifferentialFuzzTest, BackendsByteIdenticalUnderSameStream) {
    const auto [spec, seed, with_faults] = GetParam();
    for (const IoBackend backend : {IoBackend::stdio, IoBackend::pread, IoBackend::uring}) {
        SCOPED_TRACE(std::string("backend=") + to_string(backend));
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            ("ecfrm_fuzz_" + std::string(to_string(backend)) + "_" + std::to_string(seed) +
             (with_faults ? "_faulty" : "_clean") + "_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir);
        const std::int64_t elem = 32;
        const FaultPlan plan = fuzz_fault_plan(seed);
        const StripeStore::DeviceFactory factory =
            [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
            auto dev = open_file_device(dir.string(), index, elem, backend);
            if (!dev.ok()) return dev.error();
            if (!with_faults) return std::move(dev).take();
            return std::unique_ptr<BlockDevice>(
                std::make_unique<FaultDevice>(std::move(dev).take(), plan, index));
        };
        run_fuzz(spec, LayoutKind::ecfrm, seed, with_faults, &factory);
        std::filesystem::remove_all(dir);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BackendMatrix, BackendDifferentialFuzzTest,
    ::testing::Values(BackendDiffParam{"rs:6,3", 301, false},
                      BackendDiffParam{"lrc:6,2,2", 302, false},
                      BackendDiffParam{"rs:6,3", 303, true},
                      BackendDiffParam{"lrc:6,2,2", 304, true}));

// CI replay hook: ECFRM_FUZZ_SEED (decimal) drives one extra faulty run
// per scheme on the EC-FRM layout. The seed is printed so any failure in a
// per-run randomized CI job can be replayed locally with the same env var.
TEST(FuzzStoreReplay, EnvSeededFaultyRun) {
    std::uint64_t seed = 20260805;
    if (const char* env = std::getenv("ECFRM_FUZZ_SEED")) {
        seed = std::strtoull(env, nullptr, 10);
    }
    std::printf("[fuzz] replay with: ECFRM_FUZZ_SEED=%llu (fault plan: %s)\n",
                static_cast<unsigned long long>(seed),
                fuzz_fault_plan(seed).to_json().c_str());
    run_fuzz("rs:6,3", LayoutKind::ecfrm, seed, /*with_faults=*/true);
    run_fuzz("lrc:6,2,2", LayoutKind::ecfrm, seed, /*with_faults=*/true);
}

}  // namespace
}  // namespace ecfrm::store

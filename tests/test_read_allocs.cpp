// Exact heap-allocation gate for the read path. This executable replaces
// the global operator new with a per-thread counting one, then pins how
// many allocations a 10-element read makes from StripeStore down to the
// devices: healthy and with one disk failed, through read_elements and
// read_bytes, on in-memory RS(6,3) EC-FRM disks without a thread pool,
// with and without a heat model attached, on one thread and on four —
// and one chunk of an online rebuild, which runs on the same engine, and
// one stripe appended through StripeStore and through a pool-less
// EcPipeline, which share one write path.
// Everything on that path runs on the calling thread and allocates the
// same way every time, so the counts are exact, not bounds: a change that
// adds an allocation anywhere on the path fails here. Over file devices a
// read's batches are served on the disks' own I/O threads; a process-wide
// counter checks that those threads allocate nothing, so the calling
// thread's count is still the read's whole count.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "obs/heat.h"
#include "store/ec_pipeline.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"

namespace {

// A plain thread_local integer: no constructor, so operator new can bump
// it without a TLS initialisation guard.
thread_local std::uint64_t t_allocs = 0;
// Every thread's allocations.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
    ++t_allocs;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++t_allocs;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void*)) alignment = sizeof(void*);
    void* p = nullptr;
    if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
    return p;
}

void* checked(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace ecfrm::store {
namespace {

constexpr std::int64_t kElem = 4096;
constexpr ElementId kStart = 25;  // crosses a stripe boundary (18 data elements per stripe)
constexpr std::int64_t kCount = 10;
constexpr DiskId kFailed = 4;

// The pinned budgets, for a read after one warm-up read on the same
// thread. Each reading thread leases a request scratch that keeps a
// read's metadata from one read to the next — plan, per-disk schedule,
// element table, submission round, exclusion list, straggler flags,
// planner working memory, decode spans — so a read_elements allocates
// nothing, and read_bytes only its result vector. A degraded read adds
// none: its lost element's repair was solved once, by the warm-up read,
// into the code's repair cache, and the plan refers to it through the
// scratch's memo. A heat model adds none: its straggler mask fills the
// scratch.
constexpr std::uint64_t kHealthyReadElements = 0;
constexpr std::uint64_t kHealthyReadBytes = 1;
constexpr std::uint64_t kDegradedReadElements = 0;
constexpr std::uint64_t kDegradedReadBytes = 1;

// One rebuild_rows chunk of one stripe (3 rows of the failed disk) after
// a warm-up chunk of the same shape. Plan, fetch and decode run in the
// thread's request scratch and arena staging and allocate nothing; every
// allocation is the flush to the replacement and its storage:
//   - the write plan: its per-disk loads and its placements (2), the
//     payload spans (1);
//   - PlanExecutor::write: the shared submission round with its rows,
//     payloads and queue list (4), the per-disk schedule, a PlanBatches:
//     its indices, rows, batch list and fill cursors (4).
// The in-memory replacement disk adds none: its rows land in a slab the
// warm-up chunk already took.
constexpr RowId kRebuildChunkRows = 3;
constexpr std::uint64_t kRebuildChunk = 11;

// One full stripe appended after warm-up stripes, pool-less, on the
// fixture's store grown to 9 stripes (27 rows; the measured stripe's rows
// 27-29 lie in each disk's first slab, so no device table grows under
// them). StripeStore::append and a pool-less EcPipeline::append commit
// the same way, data and parity in one WritePlan round, so both cost the
// same:
//   - the parity encode: the buffer list and its 9 elements (10), and
//     each of the 3 groups' data and parity span lists (6);
//   - the write plan: its per-disk loads and its placements (2), the
//     payload spans (1);
//   - PlanExecutor::write: the shared submission round with its rows,
//     payloads and queue list (4), and the per-disk schedule, a
//     PlanBatches: its indices, rows, batch list and fill cursors (4),
//     however many disks the stripe spans.
// The in-memory disks add none: each row lands in a slab slot.
constexpr std::int64_t kWarmStripes = 5;
constexpr std::uint64_t kStripeAppend = 27;

class ReadAllocs : public ::testing::Test {
  protected:
    void SetUp() override {
        auto code = codes::make_code("rs:6,3");
        ASSERT_TRUE(code.ok());
        store_ = std::make_unique<StripeStore>(core::Scheme(code.value(), layout::LayoutKind::ecfrm),
                                               kElem);
        Rng rng(7);
        data_.resize(static_cast<std::size_t>(kElem * 18 * 4));
        for (auto& b : data_) b = static_cast<std::uint8_t>(rng.next_below(256));
        ASSERT_TRUE(store_->append(ConstByteSpan(data_.data(), data_.size())).ok());
        ASSERT_TRUE(store_->flush().ok());
        out_.resize(static_cast<std::size_t>(kCount * kElem));
    }

    /// Allocations of one read_elements call, after a warm-up read that
    /// absorbs one-time setup (buffer arena, kernel dispatch, this
    /// thread's request scratch). Safe to call from several threads at
    /// once, each with its own `out`.
    std::uint64_t read_elements_allocs(std::vector<std::uint8_t>& out_buf) {
        const ByteSpan out(out_buf.data(), out_buf.size());
        EXPECT_TRUE(store_->read_elements(kStart, kCount, out).ok());
        const std::uint64_t before = t_allocs;
        const Status status = store_->read_elements(kStart, kCount, out);
        const std::uint64_t allocs = t_allocs - before;
        EXPECT_TRUE(status.ok());
        EXPECT_EQ(std::memcmp(out_buf.data(), data_.data() + kStart * kElem, out_buf.size()), 0);
        return allocs;
    }
    std::uint64_t read_elements_allocs() { return read_elements_allocs(out_); }

    std::uint64_t read_bytes_allocs() {
        EXPECT_TRUE(store_->read_bytes(kStart * kElem, kCount * kElem).ok());
        const std::uint64_t before = t_allocs;
        auto got = store_->read_bytes(kStart * kElem, kCount * kElem);
        const std::uint64_t allocs = t_allocs - before;
        EXPECT_TRUE(got.ok());
        if (got.ok()) {
            EXPECT_EQ(std::memcmp(got->data(), data_.data() + kStart * kElem, got->size()), 0);
        }
        return allocs;
    }

    std::unique_ptr<StripeStore> store_;
    std::vector<std::uint8_t> data_;
    std::vector<std::uint8_t> out_;
};

TEST_F(ReadAllocs, HealthyReadElements) {
    EXPECT_EQ(read_elements_allocs(), kHealthyReadElements);
}

TEST_F(ReadAllocs, HealthyReadBytes) { EXPECT_EQ(read_bytes_allocs(), kHealthyReadBytes); }

TEST_F(ReadAllocs, DegradedReadDecodes) {
    // The degraded budgets cover a read that really decodes.
    auto plan = core::plan_degraded_read(store_->scheme(), kStart, kCount, kFailed);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->decodes().size(), 1u);
}

TEST_F(ReadAllocs, DegradedReadElements) {
    ASSERT_TRUE(store_->fail_disk(kFailed).ok());
    EXPECT_EQ(read_elements_allocs(), kDegradedReadElements);
}

TEST_F(ReadAllocs, DegradedReadBytes) {
    ASSERT_TRUE(store_->fail_disk(kFailed).ok());
    EXPECT_EQ(read_bytes_allocs(), kDegradedReadBytes);
}

TEST_F(ReadAllocs, HeatModelAddsNoAllocations) {
    obs::DiskHeatModel heat(store_->scheme().disks());
    store_->attach_observability(nullptr, nullptr, &heat);
    EXPECT_EQ(read_elements_allocs(), kHealthyReadElements);
    ASSERT_TRUE(store_->fail_disk(kFailed).ok());
    // Enough traffic for the heat window to judge every live disk, so the
    // degraded planner's straggler mask really computes the fleet median.
    for (int i = 0; i < 32; ++i) (void)read_elements_allocs();
    EXPECT_EQ(read_elements_allocs(), kDegradedReadElements);
    EXPECT_EQ(read_bytes_allocs(), kDegradedReadBytes);
    store_->attach_observability(nullptr);
}

TEST_F(ReadAllocs, FourThreadsEachReachTheSteadyStateBudget) {
    for (const bool degraded : {false, true}) {
        if (degraded) {
            ASSERT_TRUE(store_->fail_disk(kFailed).ok());
        }
        constexpr int kThreads = 4;
        std::array<std::uint64_t, kThreads> allocs{};
        std::array<std::vector<std::uint8_t>, kThreads> outs;
        for (auto& out : outs) out.resize(out_.size());
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                allocs[static_cast<std::size_t>(t)] =
                    read_elements_allocs(outs[static_cast<std::size_t>(t)]);
            });
        }
        for (std::thread& th : threads) th.join();
        for (int t = 0; t < kThreads; ++t) {
            EXPECT_EQ(allocs[static_cast<std::size_t>(t)],
                      degraded ? kDegradedReadElements : kHealthyReadElements)
                << "thread " << t << (degraded ? " degraded" : " healthy");
        }
    }
}

TEST_F(ReadAllocs, SteadyStateRebuildChunk) {
    ASSERT_TRUE(store_->fail_disk(kFailed).ok());
    ASSERT_TRUE(store_->begin_rebuild(kFailed).ok());
    auto rows = store_->rebuild_target_rows(kFailed);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value(), 4 * kRebuildChunkRows);
    // Warm up on the last stripe first, so the replacement's row table
    // already spans the measured chunk.
    ASSERT_TRUE(store_->rebuild_rows(kFailed, rows.value() - kRebuildChunkRows, kRebuildChunkRows)
                    .ok());
    const std::uint64_t before = t_allocs;
    auto stats = store_->rebuild_rows(kFailed, kRebuildChunkRows, kRebuildChunkRows);
    const std::uint64_t allocs = t_allocs - before;
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_EQ(stats->elements_rebuilt, kRebuildChunkRows);
    EXPECT_EQ(allocs, kRebuildChunk);

    for (RowId first : {RowId{0}, 2 * kRebuildChunkRows}) {
        ASSERT_TRUE(store_->rebuild_rows(kFailed, first, kRebuildChunkRows).ok());
    }
    ASSERT_TRUE(store_->finish_rebuild(kFailed).ok());
    EXPECT_TRUE(store_->verify_parity().ok());
    auto got = store_->read_bytes(0, static_cast<std::int64_t>(data_.size()));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), data_);
}

/// Allocations of appending one stripe through `append`, after
/// kWarmStripes warm-up stripes through it.
template <class Append>
std::uint64_t stripe_append_allocs(std::int64_t stripe_bytes, Append&& append) {
    std::vector<std::uint8_t> stripe(static_cast<std::size_t>(stripe_bytes), 0x5a);
    const ConstByteSpan data(stripe.data(), stripe.size());
    for (std::int64_t i = 0; i < kWarmStripes; ++i) EXPECT_TRUE(append(data).ok());
    const std::uint64_t before = t_allocs;
    const Status status = append(data);
    const std::uint64_t allocs = t_allocs - before;
    EXPECT_TRUE(status.ok());
    return allocs;
}

TEST_F(ReadAllocs, SteadyStateStripeAppend) {
    const std::uint64_t allocs = stripe_append_allocs(
        store_->stripe_data_bytes(), [&](ConstByteSpan d) { return store_->append(d); });
    EXPECT_EQ(allocs, kStripeAppend);
    EXPECT_TRUE(store_->verify_parity().ok());
}

TEST_F(ReadAllocs, SteadyStatePipelineStripeAppend) {
    EcPipeline pipeline(*store_, nullptr);
    const std::uint64_t allocs = stripe_append_allocs(
        store_->stripe_data_bytes(), [&](ConstByteSpan d) { return pipeline.append(d); });
    EXPECT_EQ(allocs, kStripeAppend);
    EXPECT_EQ(store_->unencoded_stripes(), 0);
    EXPECT_TRUE(store_->verify_parity().ok());
}

TEST_F(ReadAllocs, ElementAlignedReadsMakeNoStagingCopies) {
    (void)read_bytes_allocs();
    ASSERT_TRUE(store_->fail_disk(kFailed).ok());
    (void)read_bytes_allocs();
    EXPECT_EQ(store_->assemble_staging_copies(), 0);
}

// A read over file devices, healthy and degraded, in both backend modes:
// every disk's first chunk is served on that disk's I/O thread, and those
// threads allocate nothing (each batch's runs and iovecs are planned on
// the reading thread), so every allocation the read causes is the
// reading thread's own.
TEST(ReadAllocsFileDevices, IoThreadsAllocateNothing) {
    namespace fs = std::filesystem;
    for (const IoBackend backend : {IoBackend::pread, IoBackend::uring}) {
        SCOPED_TRACE(to_string(backend));
        const fs::path dir = fs::temp_directory_path() /
                             ("ecfrm_test_read_allocs_" + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
        {
            auto code = codes::make_code("rs:6,3");
            ASSERT_TRUE(code.ok());
            auto opened = StripeStore::open(
                core::Scheme(code.value(), layout::LayoutKind::ecfrm), kElem,
                [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
                    return open_file_device(dir.string(), index, kElem, backend);
                });
            ASSERT_TRUE(opened.ok()) << opened.error().message;
            auto store = std::move(opened).take();
            std::vector<std::uint8_t> data(static_cast<std::size_t>(kElem * 18 * 4));
            Rng rng(9);
            for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
            ASSERT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
            ASSERT_TRUE(store->flush().ok());
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kCount * kElem));
            for (const bool degraded : {false, true}) {
                if (degraded) {
                    ASSERT_TRUE(store->fail_disk(kFailed).ok());
                }
                const ByteSpan span(out.data(), out.size());
                ASSERT_TRUE(store->read_elements(kStart, kCount, span).ok());  // warm-up
                const std::uint64_t all_before = g_allocs.load();
                const std::uint64_t mine_before = t_allocs;
                ASSERT_TRUE(store->read_elements(kStart, kCount, span).ok());
                const std::uint64_t mine = t_allocs - mine_before;
                EXPECT_EQ(g_allocs.load() - all_before, mine) << "degraded " << degraded;
                EXPECT_GT(mine, 0u) << "degraded " << degraded;  // the batches' plans
                EXPECT_EQ(std::memcmp(out.data(), data.data() + kStart * kElem, out.size()), 0);
            }
        }
        fs::remove_all(dir);
    }
}

}  // namespace
}  // namespace ecfrm::store

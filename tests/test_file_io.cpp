// The file I/O backends: UringDisk in pread and uring mode.
//
// Pins the properties the io_uring work depends on: both backends are
// byte-identical on the same files, concurrent same-disk readers see
// consistent bytes without serializing, offsets survive >2 GiB files,
// content and the failed state survive reopen, coalesced batches match
// per-op reads, the async batch contract holds, the store counts an async
// first chunk once,
// a replacement that cannot come online stays failed, and the BufferPool
// arena behaves.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "store/fault_device.h"
#include "store/io_backend.h"
#include "store/stripe_store.h"
#include "store/uring_disk.h"

namespace ecfrm::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    explicit TempDir(const std::string& tag) {
        path_ = (fs::temp_directory_path() /
                 ("ecfrm_test_" + tag + "_" + std::to_string(::getpid())))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

const IoBackend kBackends[] = {IoBackend::pread, IoBackend::uring};

class BackendTest : public ::testing::TestWithParam<IoBackend> {};

// Both backends share one on-disk format: write with each backend, read
// back with each, bytes identical.
TEST(IoBackend, BackendsShareOnDiskFormat) {
    TempDir dir("backend_format");
    constexpr std::int64_t kElem = 64;
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * 8, 7);
    for (IoBackend writer : kBackends) {
        fs::remove_all(dir.path());
        fs::create_directories(dir.path());
        {
            auto disk = open_file_device(dir.path(), 0, kElem, writer);
            ASSERT_TRUE(disk.ok()) << to_string(writer);
            for (RowId r = 0; r < 8; ++r) {
                ASSERT_TRUE(disk.value()
                                ->write(r, ConstByteSpan(payload.data() + r * kElem, kElem))
                                .ok());
            }
        }
        for (IoBackend reader : kBackends) {
            auto disk = open_file_device(dir.path(), 0, kElem, reader);
            ASSERT_TRUE(disk.ok()) << to_string(reader);
            EXPECT_EQ(disk.value()->rows(), 8);
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * 8);
            std::vector<RowId> rows;
            std::vector<ByteSpan> outs;
            for (RowId r = 0; r < 8; ++r) {
                rows.push_back(r);
                outs.emplace_back(out.data() + r * kElem, kElem);
            }
            ASSERT_TRUE(disk.value()->read_batch(rows, outs).ok())
                << to_string(writer) << " -> " << to_string(reader);
            EXPECT_TRUE(std::memcmp(out.data(), payload.data(), out.size()) == 0)
                << to_string(writer) << " -> " << to_string(reader);
        }
    }
}

// 8 readers hammer one disk with overlapping batch reads while checking
// every byte. Run under TSAN this also proves the shared-lock read path
// is race-free; the readers genuinely overlap (no stream-position mutex).
TEST_P(BackendTest, ConcurrentSameDiskReadersSeeConsistentBytes) {
    TempDir dir("backend_mt");
    constexpr std::int64_t kElem = 128;
    constexpr RowId kRows = 64;
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * kRows, 21);
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    for (RowId r = 0; r < kRows; ++r) {
        ASSERT_TRUE(
            disk.value()->write(r, ConstByteSpan(payload.data() + r * kElem, kElem)).ok());
    }

    constexpr int kReaders = 8;
    std::vector<std::thread> readers;
    std::vector<int> failures(kReaders, 0);
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t]() {
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * 16);
            for (int iter = 0; iter < 50; ++iter) {
                const RowId base = static_cast<RowId>(rng.next_below(kRows - 16));
                const std::size_t n = 1 + rng.next_below(16);
                std::vector<RowId> rows;
                std::vector<ByteSpan> outs;
                for (std::size_t i = 0; i < n; ++i) {
                    // Mix of sequential and strided rows: exercises both
                    // coalesced runs and multi-SQE batches.
                    rows.push_back(base + static_cast<RowId>(iter % 2 == 0 ? i : 2 * (i % 8)));
                    outs.emplace_back(out.data() + i * kElem, kElem);
                }
                if (!disk.value()->read_batch(rows, outs).ok()) {
                    ++failures[t];
                    continue;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    if (std::memcmp(out.data() + i * kElem, payload.data() + rows[i] * kElem,
                                    static_cast<std::size_t>(kElem)) != 0) {
                        ++failures[t];
                    }
                }
            }
        });
    }
    for (auto& th : readers) th.join();
    for (int t = 0; t < kReaders; ++t) EXPECT_EQ(failures[t], 0) << "reader " << t;
}

// Offsets are off_t, not long-truncated: a row whose byte offset exceeds
// 2^31 round-trips. The file stays sparse (tmpfs/disk-friendly) — only
// the touched elements occupy space.
TEST_P(BackendTest, OffsetsBeyondTwoGiB) {
    TempDir dir("backend_2gib");
    constexpr std::int64_t kElem = 1 << 20;  // 1 MiB elements
    // Row 2200 puts the element at ~2.15 GiB, past the 2^31 boundary.
    constexpr RowId kFarRow = 2200;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const auto payload = random_bytes(kElem, 5);
    ASSERT_TRUE(
        disk.value()->write(kFarRow, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(kElem);
    ASSERT_TRUE(disk.value()->read(kFarRow, ByteSpan(out.data(), out.size())).ok());
    EXPECT_TRUE(std::memcmp(out.data(), payload.data(), out.size()) == 0);

    std::error_code ec;
    const auto size = fs::file_size(fs::path(dir.path()) / "disk_0.dat", ec);
    ASSERT_FALSE(ec);
    EXPECT_GT(size, std::uint64_t{2} * 1024 * 1024 * 1024);
}

// Content written by one device instance is there after reopen; rows()
// is the write high-water mark, and a gap row below it still reads as
// never-written, before and after the reopen.
TEST_P(BackendTest, ReopenKeepsContentAndGapRows) {
    TempDir dir("backend_reopen");
    constexpr std::int64_t kElem = 16;
    const auto payload = random_bytes(kElem, 9);
    std::vector<std::uint8_t> out(kElem);
    {
        auto disk = open_file_device(dir.path(), 1, kElem, GetParam());
        ASSERT_TRUE(disk.ok());
        ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
        ASSERT_TRUE(disk.value()->write(5, ConstByteSpan(payload.data(), payload.size())).ok());
        EXPECT_EQ(disk.value()->rows(), 6);
        EXPECT_FALSE(disk.value()->read(3, ByteSpan(out.data(), out.size())).ok());
    }
    auto disk = open_file_device(dir.path(), 1, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ(disk.value()->rows(), 6);
    for (RowId row : {0, 5}) {
        ASSERT_TRUE(disk.value()->read(row, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payload) << "row " << row;
    }
    EXPECT_FALSE(disk.value()->read(3, ByteSpan(out.data(), out.size())).ok());  // gap row
}

// The failed marker outlives the device instance: a reopened failed disk
// is still failed and reads nothing, and its replacement starts empty.
TEST_P(BackendTest, FailedStateSurvivesReopen) {
    TempDir dir("backend_fail_reopen");
    constexpr std::int64_t kElem = 16;
    const std::vector<std::uint8_t> payload(kElem, 1);
    {
        auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
        ASSERT_TRUE(disk.ok());
        ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
        disk.value()->fail();
    }
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    EXPECT_TRUE(disk.value()->failed());
    std::vector<std::uint8_t> out(kElem);
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());

    disk.value()->replace();
    EXPECT_FALSE(disk.value()->failed());
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());  // empty
    ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
    ASSERT_TRUE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
}

TEST_P(BackendTest, RejectsMissingDirectory) {
    EXPECT_FALSE(open_file_device("/nonexistent/definitely/missing", 0, 16, GetParam()).ok());
}

// One write_batch over a coalescing run [2..5] plus scattered rows 8 and
// 11: a read_batch of the same rows matches per-op reads, a batch over
// the unwritten hole at row 6 fails with no op completed, and the batch
// writes (map bits included) are durable across reopen.
TEST_P(BackendTest, CoalescedBatchMatchesPerOpReadsAndPersists) {
    TempDir dir("backend_batch");
    constexpr std::int64_t kElem = 32;
    const std::vector<RowId> rows = {2, 3, 4, 5, 8, 11};
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * rows.size(), 17);
    auto expected = [&](std::size_t i) {
        return std::vector<std::uint8_t>(payload.begin() + static_cast<std::ptrdiff_t>(i * kElem),
                                         payload.begin() +
                                             static_cast<std::ptrdiff_t>((i + 1) * kElem));
    };
    {
        auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
        ASSERT_TRUE(disk.ok());
        std::vector<ConstByteSpan> spans;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            spans.emplace_back(payload.data() + i * kElem, kElem);
        }
        std::size_t completed = 0;
        ASSERT_TRUE(disk.value()->write_batch(rows, spans, &completed).ok());
        EXPECT_EQ(completed, rows.size());

        std::vector<std::vector<std::uint8_t>> bufs(rows.size(),
                                                    std::vector<std::uint8_t>(kElem));
        std::vector<ByteSpan> outs;
        for (auto& b : bufs) outs.emplace_back(b.data(), b.size());
        ASSERT_TRUE(disk.value()->read_batch(rows, outs, &completed).ok());
        EXPECT_EQ(completed, rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::vector<std::uint8_t> serial(kElem);
            ASSERT_TRUE(disk.value()->read(rows[i], ByteSpan(serial.data(), serial.size())).ok());
            EXPECT_EQ(bufs[i], serial) << "row " << rows[i];
            EXPECT_EQ(bufs[i], expected(i)) << "row " << rows[i];
        }

        const std::vector<RowId> holey = {4, 5, 6};
        const std::vector<ByteSpan> houts(outs.begin(), outs.begin() + 3);
        completed = 99;
        EXPECT_FALSE(disk.value()->read_batch(holey, houts, &completed).ok());
        EXPECT_EQ(completed, 0u);
    }
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    std::vector<std::uint8_t> out(kElem);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(disk.value()->read(rows[i], ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, expected(i)) << "row " << rows[i];
    }
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.value()->read(6, ByteSpan(out.data(), out.size())).ok());
}

// The async batch contract: submission returns before await, buffers are
// filled by await() time, `completed` covers the full batch on success,
// and an abandoned (never-awaited) batch is safely drained by its
// destructor.
TEST_P(BackendTest, AsyncBatchContract) {
    TempDir dir("backend_async");
    constexpr std::int64_t kElem = 256;
    constexpr RowId kRows = 32;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const auto payload = random_bytes(static_cast<std::size_t>(kElem) * kRows, 11);
    for (RowId r = 0; r < kRows; ++r) {
        ASSERT_TRUE(
            disk.value()->write(r, ConstByteSpan(payload.data() + r * kElem, kElem)).ok());
    }

    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem) * kRows);
    std::vector<RowId> rows;
    std::vector<ByteSpan> outs;
    for (RowId r = 0; r < kRows; ++r) {
        // Stride 2 (wrapping) so the uring backend must issue many SQEs.
        const RowId row = (2 * r) % kRows + (2 * r >= kRows ? 1 : 0);
        rows.push_back(row);
        outs.emplace_back(out.data() + r * kElem, kElem);
    }
    auto batch = disk.value()->submit_read_batch(rows, outs);
    ASSERT_NE(batch, nullptr);
    std::size_t completed = 0;
    ASSERT_TRUE(batch->await(&completed).ok());
    EXPECT_EQ(completed, static_cast<std::size_t>(kRows));
    for (RowId r = 0; r < kRows; ++r) {
        EXPECT_TRUE(std::memcmp(out.data() + r * kElem, payload.data() + rows[r] * kElem,
                                static_cast<std::size_t>(kElem)) == 0)
            << "row " << rows[r];
    }

    // Abandoned batch: destructor must drain in-flight kernel writes
    // before `out` dies (ASAN would catch a use-after-free here).
    { auto abandoned = disk.value()->submit_read_batch(rows, outs); }

    // Error batches: unwritten row reports a zero prefix.
    std::vector<RowId> bad_rows{0, kRows + 5};
    std::vector<std::uint8_t> bad_out(static_cast<std::size_t>(kElem) * 2);
    std::vector<ByteSpan> bad_outs{ByteSpan(bad_out.data(), kElem),
                                   ByteSpan(bad_out.data() + kElem, kElem)};
    auto bad = disk.value()->submit_read_batch(bad_rows, bad_outs);
    std::size_t bad_done = 99;
    EXPECT_FALSE(bad->await(&bad_done).ok());
    EXPECT_EQ(bad_done, 0u);
}

// Reads from a failed device fail, and a replaced device starts empty.
TEST_P(BackendTest, FailAndReplaceSemantics) {
    TempDir dir("backend_fail");
    constexpr std::int64_t kElem = 16;
    auto disk = open_file_device(dir.path(), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    std::vector<std::uint8_t> payload(kElem, 0xab);
    ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
    disk.value()->fail();
    EXPECT_TRUE(disk.value()->failed());
    std::vector<std::uint8_t> out(kElem);
    EXPECT_FALSE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.value()
                     ->submit_read_batch(std::vector<RowId>{0},
                                         std::vector<ByteSpan>{ByteSpan(out.data(), kElem)})
                     ->await()
                     .ok());
    disk.value()->replace();
    EXPECT_FALSE(disk.value()->failed());
    EXPECT_EQ(disk.value()->rows(), 0);
    ASSERT_TRUE(disk.value()->write(2, ConstByteSpan(payload.data(), payload.size())).ok());
    ASSERT_TRUE(disk.value()->read(2, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
}

// A replacement whose files cannot be created stays failed, and a store
// refuses to rebuild onto it: with the disk's directory gone, replace()
// must not report the device healthy while every write fails with an
// io_error the executor would retry as transient.
TEST_P(BackendTest, ReplaceWithoutItsDirectoryStaysFailed) {
    TempDir dir("backend_replace_gone");
    constexpr std::int64_t kElem = 64;
    const fs::path root(dir.path());
    // One directory per disk, so a single disk's can vanish.
    auto disk_dir = [&](int index) { return (root / std::to_string(index)).string(); };

    fs::create_directories(disk_dir(9));
    auto disk = open_file_device(disk_dir(9), 0, kElem, GetParam());
    ASSERT_TRUE(disk.ok());
    const std::vector<std::uint8_t> payload(kElem, 0x3c);
    disk.value()->fail();
    fs::remove_all(disk_dir(9));
    disk.value()->replace();
    EXPECT_TRUE(disk.value()->failed());
    const Status write = disk.value()->write(0, ConstByteSpan(payload.data(), payload.size()));
    ASSERT_FALSE(write.ok());
    EXPECT_EQ(write.error().code, Error::Code::disk_failed);

    auto code = codes::make_code("rs:6,3");
    ASSERT_TRUE(code.ok());
    auto opened = StripeStore::open(
        core::Scheme(code.value(), layout::LayoutKind::ecfrm), kElem,
        [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
            fs::create_directories(disk_dir(index));
            return open_file_device(disk_dir(index), index, kElem, GetParam());
        });
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto store = std::move(opened).take();
    const auto data = random_bytes(static_cast<std::size_t>(kElem) * 24, 31);
    ASSERT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store->flush().ok());
    ASSERT_TRUE(store->fail_disk(2).ok());
    fs::remove_all(disk_dir(2));
    const Status began = store->begin_rebuild(2);
    ASSERT_FALSE(began.ok());
    EXPECT_EQ(began.error().code, Error::Code::disk_failed);
    auto out = store->read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), data);  // still served degraded around disk 2
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest, ::testing::ValuesIn(kBackends),
                         [](const auto& info) { return to_string(info.param); });

TEST(IoBackendSelection, ParseAndDefault) {
    EXPECT_EQ(parse_io_backend("uring"), IoBackend::uring);
    EXPECT_EQ(parse_io_backend("pread"), IoBackend::pread);
    EXPECT_EQ(parse_io_backend("stdio"), std::nullopt);
    EXPECT_EQ(parse_io_backend("aio"), std::nullopt);
    // The default must be a real backend, and uring only when available.
    const IoBackend def = default_io_backend();
    if (!UringDisk::uring_available()) {
        EXPECT_NE(def, IoBackend::uring);
    }
}

// An ECFRM_IO_BACKEND value that names no backend (the removed "stdio"
// included) is not ignored silently: one warning names the backend used
// instead. Valid names and an unset variable log nothing.
TEST(IoBackendSelection, UnknownNameWarnsWithTheBackendUsed) {
    Logger& logger = Logger::instance();
    const LogLevel saved = logger.level();
    std::vector<std::pair<LogLevel, std::string>> captured;
    logger.set_sink([&](LogLevel level, const std::string& msg) {
        captured.emplace_back(level, msg);
    });
    logger.set_level(LogLevel::warn);
    const IoBackend detected = UringDisk::uring_available() ? IoBackend::uring : IoBackend::pread;
    const IoBackend unset = select_io_backend(nullptr);
    const IoBackend pread = select_io_backend("pread");
    const IoBackend uring = select_io_backend("uring");
    const std::size_t quiet = captured.size();
    const IoBackend fallback = select_io_backend("stdio");
    // Restore the shared logger before asserting.
    logger.set_sink({});
    logger.set_level(saved);

    EXPECT_EQ(unset, detected);
    EXPECT_EQ(pread, IoBackend::pread);
    EXPECT_EQ(uring, IoBackend::uring);
    EXPECT_EQ(quiet, 0u);
    EXPECT_EQ(fallback, detected);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::warn);
    EXPECT_NE(captured[0].second.find("ECFRM_IO_BACKEND=stdio"), std::string::npos)
        << captured[0].second;
    EXPECT_NE(captured[0].second.find(std::string("using ") + to_string(detected)),
              std::string::npos)
        << captured[0].second;
}

TEST(IoBackendSelection, UringDegradesToPreadWhenUnavailable) {
    // The uring mode on a kernel without io_uring (or an ECFRM_WITH_URING=OFF
    // build) must still produce a working device.
    TempDir dir("backend_degrade");
    auto disk = UringDisk::open(dir.path(), 0, 32, IoBackend::uring);
    ASSERT_TRUE(disk.ok());
    if (!UringDisk::uring_available()) {
        EXPECT_FALSE(disk.value()->uring_active());
    }
    std::vector<std::uint8_t> payload(32, 0x42);
    ASSERT_TRUE(disk.value()->write(0, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(32);
    ASSERT_TRUE(disk.value()->read(0, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
}

// The zero-copy guarantee: on each backend, element-granular reads route
// each requested data element straight into the caller's buffer (fetched
// there by the device, or — degraded — decoded there), so the assemble
// stage copies nothing. The store's staging-copy counter is the witness.
TEST_P(BackendTest, HealthyReadsPerformZeroStagingCopies) {
    const IoBackend backend = GetParam();
    TempDir dir("zerocopy");
    const std::int64_t elem = 512;
    auto code = codes::make_code("rs:6,3");
    ASSERT_TRUE(code.ok());
    auto opened = StripeStore::open(
        core::Scheme(code.value(), layout::LayoutKind::ecfrm), elem,
        [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
            return open_file_device(dir.path(), index, elem, backend);
        });
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto store = std::move(opened).take();

    const auto payload = random_bytes(static_cast<std::size_t>(40 * elem), 77);
    ASSERT_TRUE(store->append(ConstByteSpan(payload.data(), payload.size())).ok());
    ASSERT_TRUE(store->flush().ok());

    // Healthy path: whole range plus a sweep of strided sub-ranges.
    const std::int64_t payload_elems = 40;
    std::vector<std::uint8_t> out(payload.size());
    ASSERT_TRUE(store->read_elements(0, payload_elems, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
    for (std::int64_t start = 0; start + 3 <= payload_elems; start += 7) {
        std::vector<std::uint8_t> part(static_cast<std::size_t>(3 * elem));
        ASSERT_TRUE(store->read_elements(start, 3, ByteSpan(part.data(), part.size())).ok());
        ASSERT_EQ(0, std::memcmp(part.data(), payload.data() + start * elem, part.size()));
    }
    EXPECT_EQ(store->assemble_staging_copies(), 0);

    // Degraded path (serial executor): the lost data elements are decoded
    // directly into the caller buffer, so even this read stays copy-free.
    ASSERT_TRUE(store->fail_disk(1).ok());
    std::fill(out.begin(), out.end(), 0);
    ASSERT_TRUE(store->read_elements(0, payload_elems, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);
    EXPECT_EQ(store->assemble_staging_copies(), 0);
}

// On a serial store each read queue's first chunk (here the whole
// queue) goes in flight at issue, asynchronously on uring, and is
// counted when it is awaited. Every element read is one op of its disk,
// exactly as the in-memory devices' synchronous path counts it, and
// each disk's in-flight gauge settles back to 0.
TEST_P(BackendTest, AsyncFirstChunkIsCountedOncePerElement) {
    const IoBackend backend = GetParam();
    TempDir dir("account");
    const std::int64_t elem = 512;
    const std::int64_t elems = 40;
    auto code = codes::make_code("rs:6,3");
    ASSERT_TRUE(code.ok());
    auto scheme = [&] { return core::Scheme(code.value(), layout::LayoutKind::ecfrm); };
    auto opened = StripeStore::open(scheme(), elem,
                                    [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
                                        return open_file_device(dir.path(), index, elem, backend);
                                    });
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto files = std::move(opened).take();
    StripeStore memory(scheme(), elem);

    const auto payload = random_bytes(static_cast<std::size_t>(elems * elem), 13);
    obs::MetricRegistry file_metrics;
    obs::MetricRegistry memory_metrics;
    const std::pair<StripeStore*, obs::MetricRegistry*> runs[] = {
        {files.get(), &file_metrics}, {&memory, &memory_metrics}};
    for (const auto& [st, reg] : runs) {
        ASSERT_TRUE(st->append(ConstByteSpan(payload.data(), payload.size())).ok());
        ASSERT_TRUE(st->flush().ok());
        st->attach_observability(reg);
        std::vector<std::uint8_t> out(payload.size());
        ASSERT_TRUE(st->read_elements(0, elems, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payload);
        st->attach_observability(nullptr);
    }
    std::int64_t total = 0;
    for (int d = 0; d < memory.scheme().disks(); ++d) {
        const obs::Labels disk{{"disk", std::to_string(d)}};
        const std::int64_t ops = file_metrics.counter("ecfrm_disk_read_ops_total", disk).value();
        EXPECT_EQ(ops, memory_metrics.counter("ecfrm_disk_read_ops_total", disk).value())
            << "disk " << d;
        EXPECT_EQ(file_metrics.histogram("ecfrm_disk_read_seconds", disk).count(), ops);
        EXPECT_EQ(file_metrics.gauge("ecfrm_disk_in_flight_ops", disk).value(), 0.0);
        total += ops;
    }
    EXPECT_EQ(total, elems);
}

TEST(BufferPool, AcquireReleaseAndHeapFallback) {
    BufferPool pool(1024, 4);
    EXPECT_EQ(pool.available(), 4u);
    {
        std::vector<PooledBuffer> held;
        for (int i = 0; i < 4; ++i) {
            auto b = pool.acquire();
            EXPECT_TRUE(b.pooled());
            EXPECT_EQ(b.size(), 1024u);
            EXPECT_TRUE(pool.contains(b.data(), b.size()));
            held.push_back(std::move(b));
        }
        EXPECT_EQ(pool.available(), 0u);
        auto spill = pool.acquire();  // exhausted: heap fallback, still usable
        EXPECT_FALSE(spill.pooled());
        EXPECT_FALSE(pool.contains(spill.data(), spill.size()));
        EXPECT_EQ(spill.size(), 1024u);
        EXPECT_GE(pool.exhausted_acquires(), 1);
    }
    EXPECT_EQ(pool.available(), 4u);  // all slabs returned
    auto reused = pool.acquire();

    // Slabs are 64-byte aligned inside a page-aligned arena (SIMD +
    // registered-buffer requirement).
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pool.arena()) % BufferPool::kArenaAlignment, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused.data()) % 64, 0u);
}

TEST(BufferPool, StagingBufferIsASlabWhenItFitsElseHeap) {
    BufferPool pool(64, 2);
    auto slab = staging_buffer(48, &pool);
    EXPECT_TRUE(slab.pooled());
    EXPECT_GE(slab.size(), 48u);
    EXPECT_TRUE(pool.contains(slab.data(), 48));

    auto heap = staging_buffer(128, &pool);  // larger than a slab: heap
    EXPECT_FALSE(heap.pooled());
    EXPECT_EQ(heap.size(), 128u);
    EXPECT_FALSE(pool.contains(heap.data(), heap.size()));

    auto plain = staging_buffer(16, nullptr);
    EXPECT_FALSE(plain.pooled());
    EXPECT_EQ(plain.size(), 16u);
}

// Staging is handed out uninitialised, and the element arena is shared by
// every archive of one element size. So a slab one archive's read dirtied
// is what the next read stages into — and when that read's device fails
// mid-batch, the slab's stale bytes must never reach the caller: the read
// returns the right bytes (here: replanned around the failed disk) or a
// typed error.
TEST_P(BackendTest, ReusedStagingSlabNeverLeaksStaleBytes) {
    constexpr std::int64_t kElem = 192;  // an arena no other test shares
    auto code = codes::make_code("rs:6,3");
    ASSERT_TRUE(code.ok());
    auto scheme = [&] { return core::Scheme(code.value(), layout::LayoutKind::ecfrm); };
    const auto stripe_bytes = static_cast<std::size_t>(kElem * scheme().layout().data_per_stripe());

    // Archive A: a degraded, unaligned read stages its head, its tail and
    // its repair sources in arena slabs, then releases them dirty.
    TempDir dir_a("stale_a");
    auto opened_a = StripeStore::open(scheme(), kElem, [&](int index) {
        return open_file_device(dir_a.path(), index, kElem, GetParam());
    });
    ASSERT_TRUE(opened_a.ok()) << opened_a.error().message;
    auto a = std::move(opened_a).take();
    const auto data_a = random_bytes(stripe_bytes, 41);
    ASSERT_TRUE(a->append(ConstByteSpan(data_a.data(), data_a.size())).ok());
    ASSERT_TRUE(a->flush().ok());
    ASSERT_TRUE(a->fail_disk(0).ok());
    const auto length = static_cast<std::int64_t>(stripe_bytes) - 2;
    auto read_a = a->read_bytes(1, length);
    ASSERT_TRUE(read_a.ok()) << read_a.error().message;
    ASSERT_EQ(0, std::memcmp(read_a->data(), data_a.data() + 1, static_cast<std::size_t>(length)));
    BufferPool* arena = element_arena(kElem);
    ASSERT_EQ(arena->available(), arena->capacity());  // every dirty slab is back

    // Archive B, other bytes: disk 1 fail-stops on its second read, in
    // the middle of the batch this read sends it, while disk 0 is down.
    FaultPlan plan;
    FaultRule stop;
    stop.kind = FaultKind::fail_stop;
    stop.disk = 1;
    stop.op = FaultOp::read;
    stop.first_op = 1;
    plan.rules = {stop};
    TempDir dir_b("stale_b");
    auto opened_b = StripeStore::open(scheme(), kElem, [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
        auto device = open_file_device(dir_b.path(), index, kElem, GetParam());
        if (!device.ok()) return device.error();
        return std::unique_ptr<BlockDevice>(
            std::make_unique<FaultDevice>(std::move(device).take(), plan, index));
    });
    ASSERT_TRUE(opened_b.ok()) << opened_b.error().message;
    auto b = std::move(opened_b).take();
    const auto data_b = random_bytes(stripe_bytes, 42);
    ASSERT_TRUE(b->append(ConstByteSpan(data_b.data(), data_b.size())).ok());
    ASSERT_TRUE(b->flush().ok());
    obs::MetricRegistry metrics;
    b->attach_observability(&metrics);
    ASSERT_TRUE(b->fail_disk(0).ok());
    const std::int64_t exhausted = arena->exhausted_acquires();

    auto read_b = b->read_bytes(1, length);
    if (read_b.ok()) {
        EXPECT_EQ(0, std::memcmp(read_b->data(), data_b.data() + 1, static_cast<std::size_t>(length)));
    } else {
        EXPECT_NE(read_b.error().code, Error::Code::internal) << read_b.error().message;
    }
    EXPECT_GE(metrics.counter("ecfrm_store_replans_total").value(), 1);  // the fault fired
    EXPECT_EQ(arena->exhausted_acquires(), exhausted);  // staged in the reused slabs
    b->attach_observability(nullptr);
}

}  // namespace
}  // namespace ecfrm::store

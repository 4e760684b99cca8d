// StripeStore: end-to-end byte round-trips through encode, normal reads,
// degraded reads, multi-failure reads, reconstruction and parity audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "core/read_planner.h"
#include "store/disk.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"

namespace ecfrm::store {
namespace {

using layout::LayoutKind;

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

struct StoreParam {
    const char* spec;
    LayoutKind kind;
};

class StoreTest : public ::testing::TestWithParam<StoreParam> {};

TEST_P(StoreTest, ByteRoundTripNoFailure) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 256);
    const auto data = random_bytes(256 * 100 + 37, 1);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);

    // Unaligned inner slice.
    auto slice = store.read_bytes(1000, 777);
    ASSERT_TRUE(slice.ok());
    EXPECT_TRUE(std::memcmp(slice->data(), data.data() + 1000, 777) == 0);
}

TEST_P(StoreTest, ParityVerifiesAfterWrite) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 128);
    const auto data = random_bytes(128 * 64, 2);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST_P(StoreTest, DegradedReadFromEveryFailedDisk) {
    const auto [spec, kind] = GetParam();
    auto scheme = make_scheme(spec, kind);
    const int disks = scheme.disks();
    const auto data = random_bytes(128 * 90, 3);

    for (DiskId failed = 0; failed < disks; ++failed) {
        StripeStore store(make_scheme(spec, kind), 128);
        ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(store.flush().ok());
        ASSERT_TRUE(store.fail_disk(failed).ok());

        auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
        ASSERT_TRUE(out.ok()) << "failed disk " << failed << ": " << out.error().message;
        EXPECT_EQ(out.value(), data) << "failed disk " << failed;
    }
}

TEST_P(StoreTest, ReconstructionRestoresFullRedundancy) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 120, 4);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(2).ok());
    auto stats = store.reconstruct_disk(2);
    ASSERT_TRUE(stats.ok()) << stats.error().message;
    EXPECT_GT(stats->elements_rebuilt, 0);
    EXPECT_GE(stats->elements_read, stats->elements_rebuilt);
    EXPECT_TRUE(store.failed_disks().empty());

    // After rebuild the array is byte-identical and parity-consistent.
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
    EXPECT_TRUE(store.verify_parity().ok());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndLayouts, StoreTest,
    ::testing::Values(StoreParam{"rs:6,3", LayoutKind::standard}, StoreParam{"rs:6,3", LayoutKind::rotated},
                      StoreParam{"rs:6,3", LayoutKind::ecfrm}, StoreParam{"lrc:6,2,2", LayoutKind::standard},
                      StoreParam{"lrc:6,2,2", LayoutKind::rotated}, StoreParam{"lrc:6,2,2", LayoutKind::ecfrm},
                      StoreParam{"rs:8,4", LayoutKind::ecfrm}, StoreParam{"lrc:8,2,3", LayoutKind::ecfrm}));

TEST(Store, MultiFailureReadWithinTolerance) {
    // RS(6,3) tolerates 3 failures; read through 2 and 3 concurrent ones.
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 90, 5);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(0).ok());
    ASSERT_TRUE(store.fail_disk(4).ok());
    auto out2 = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out2.ok());
    EXPECT_EQ(out2.value(), data);

    ASSERT_TRUE(store.fail_disk(7).ok());
    auto out3 = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out3.ok());
    EXPECT_EQ(out3.value(), data);
}

TEST(Store, BeyondToleranceFailsCleanly) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 54, 6);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    for (DiskId d : {0, 1, 2, 3}) ASSERT_TRUE(store.fail_disk(d).ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, Error::Code::beyond_tolerance);
}

TEST(Store, SequentialReconstructionOfTwoFailures) {
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 150, 7);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    ASSERT_TRUE(store.fail_disk(1).ok());
    ASSERT_TRUE(store.fail_disk(8).ok());
    ASSERT_TRUE(store.reconstruct_disk(1).ok());
    ASSERT_TRUE(store.reconstruct_disk(8).ok());
    EXPECT_TRUE(store.verify_parity().ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(Store, ThreadedEncodeMatchesSerial) {
    ThreadPool pool(4);
    const auto data = random_bytes(64 * 200, 8);

    StripeStore serial(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    StripeStore threaded(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64, &pool);
    for (auto* s : {&serial, &threaded}) {
        ASSERT_TRUE(s->append(ConstByteSpan(data.data(), data.size())).ok());
        ASSERT_TRUE(s->flush().ok());
        EXPECT_TRUE(s->verify_parity().ok());
    }
    auto a = serial.read_bytes(0, static_cast<std::int64_t>(data.size()));
    auto b = threaded.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value(), b.value());
}

TEST(Store, ThreadedReconstruction) {
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:8,4", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 240, 9);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.fail_disk(5).ok());
    ASSERT_TRUE(store.reconstruct_disk(5).ok());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(Store, ErrorPaths) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::standard), 64);
    const auto data = random_bytes(64 * 12, 10);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());

    // The 12 appended elements formed 2 full stripes: committed and
    // readable even while a fresh tail is buffered...
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), 10)).ok());
    EXPECT_EQ(store.committed_bytes(), 64 * 12);
    EXPECT_TRUE(store.read_bytes(0, 10).ok());
    // ...but the buffered tail itself is not readable until flush().
    EXPECT_FALSE(store.read_bytes(64 * 12, 10).ok());
    ASSERT_TRUE(store.flush().ok());
    EXPECT_TRUE(store.read_bytes(64 * 12, 10).ok());

    EXPECT_FALSE(store.read_bytes(-1, 5).ok());
    EXPECT_FALSE(store.read_bytes(0, static_cast<std::int64_t>(data.size()) + 100).ok());
    EXPECT_FALSE(store.fail_disk(99).ok());
    EXPECT_FALSE(store.reconstruct_disk(0).ok());  // not failed
    auto empty = store.read_bytes(5, 0);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());
}

TEST(Store, OverwriteUpdatesDataAndParityDeltas) {
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::ecfrm}) {
            StripeStore store(make_scheme(spec, kind), 64);
            auto data = random_bytes(64 * 60 + 17, 31);
            ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
            ASSERT_TRUE(store.flush().ok());

            // Overwrite an unaligned range spanning several elements.
            const std::int64_t offset = 64 * 3 + 11;
            auto patch = random_bytes(64 * 5 + 30, 32);
            ASSERT_TRUE(store.overwrite(offset, ConstByteSpan(patch.data(), patch.size())).ok());
            std::memcpy(data.data() + offset, patch.data(), patch.size());

            auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
            ASSERT_TRUE(out.ok());
            EXPECT_EQ(out.value(), data) << spec;
            // The delta-updated parity must be byte-identical to a full
            // re-encode (verify_parity recomputes from data).
            EXPECT_TRUE(store.verify_parity().ok()) << spec;

            // And the overwritten data must survive a disk failure.
            ASSERT_TRUE(store.fail_disk(0).ok());
            auto degraded = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
            ASSERT_TRUE(degraded.ok());
            EXPECT_EQ(degraded.value(), data) << spec;
        }
    }
}

TEST(Store, OverwriteBoundsChecked) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 18, 33);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    std::vector<std::uint8_t> patch(10, 0xee);
    EXPECT_FALSE(store.overwrite(-1, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_FALSE(store.overwrite(64 * 18 - 5, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_TRUE(store.overwrite(64 * 18 - 10, ConstByteSpan(patch.data(), patch.size())).ok());
    EXPECT_TRUE(store.overwrite(0, ConstByteSpan(patch.data(), 0)).ok());  // empty is a no-op
}

TEST(Store, FlushThenAppendKeepsLogicalStreamContiguous) {
    // Regression: a padded flush mid-stream must not shift later bytes.
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64);
    const auto first = random_bytes(64 * 7 + 13, 21);   // partial stripe
    const auto second = random_bytes(64 * 40 + 5, 22);  // spans stripes
    ASSERT_TRUE(store.append(ConstByteSpan(first.data(), first.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.append(ConstByteSpan(second.data(), second.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    EXPECT_EQ(store.extents().size(), 2u);
    std::vector<std::uint8_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    auto out = store.read_bytes(0, static_cast<std::int64_t>(expect.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), expect);

    // A read spanning the extent boundary exactly.
    auto spanning = store.read_bytes(static_cast<std::int64_t>(first.size()) - 20, 40);
    ASSERT_TRUE(spanning.ok());
    EXPECT_TRUE(std::equal(spanning->begin(), spanning->end(),
                           expect.begin() + static_cast<std::ptrdiff_t>(first.size()) - 20));
}

TEST_P(StoreTest, UnalignedReadsAcrossPaddedExtentBoundaryAreByteExact) {
    // Two extents with a padding gap between them. Whole elements land
    // straight in the result; only a cut head or tail element per extent
    // segment is staged and copied, healthy or decoded around a failure.
    const auto [spec, kind] = GetParam();
    constexpr std::int64_t kElem = 64;
    StripeStore store(make_scheme(spec, kind), kElem);
    const auto first = random_bytes(kElem * 7 + 13, 31);  // partial stripe: flush pads
    const auto second = random_bytes(kElem * 40 + 5, 32);
    ASSERT_TRUE(store.append(ConstByteSpan(first.data(), first.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.append(ConstByteSpan(second.data(), second.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_EQ(store.extents().size(), 2u);
    ASSERT_GT(store.extents()[1].element_start * kElem, store.extents()[1].logical_start);

    std::vector<std::uint8_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    const auto total = static_cast<std::int64_t>(expect.size());
    const auto boundary = static_cast<std::int64_t>(first.size());
    auto check = [&](std::int64_t offset, std::int64_t length) -> std::int64_t {
        const std::int64_t copies0 = store.assemble_staging_copies();
        auto got = store.read_bytes(offset, length);
        EXPECT_TRUE(got.ok()) << got.error().message;
        if (!got.ok()) return 0;
        EXPECT_TRUE(std::equal(got->begin(), got->end(), expect.begin() + offset))
            << "offset " << offset << " length " << length;
        return store.assemble_staging_copies() - copies0;
    };

    for (const bool degraded : {false, true}) {
        SCOPED_TRACE(degraded ? "degraded" : "healthy");
        if (degraded) {
            ASSERT_TRUE(store.fail_disk(1).ok());
        }
        // Element-aligned ranges inside one extent copy nothing.
        EXPECT_EQ(check(kElem, kElem * 5), 0);
        EXPECT_EQ(check(boundary + kElem, kElem * 9), 0);
        Rng rng(degraded ? 41 : 40);
        for (int i = 0; i < 200; ++i) {
            std::int64_t offset;
            std::int64_t length;
            if (i % 2 == 0) {  // straddle the extent boundary
                offset = boundary - 1 - static_cast<std::int64_t>(rng.next_below(kElem * 3));
                length = boundary - offset + 1 + static_cast<std::int64_t>(rng.next_below(kElem * 3));
            } else {
                offset = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(total)));
                length = 1 + static_cast<std::int64_t>(
                                 rng.next_below(static_cast<std::uint64_t>(total - offset)));
            }
            const std::int64_t segments = (offset < boundary ? 1 : 0) + (offset + length > boundary ? 1 : 0);
            EXPECT_LE(check(offset, length), 2 * segments) << "offset " << offset << " length " << length;
        }
    }
}

TEST(Store, DegradedWritesStayRecoverable) {
    // Write while a disk is down: elements homed there are skipped but the
    // group's parity still covers them; reads decode and rebuild restores.
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    ASSERT_TRUE(store.fail_disk(2).ok());
    const auto data = random_bytes(64 * 54, 23);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    auto degraded = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(degraded.ok());
    EXPECT_EQ(degraded.value(), data);

    ASSERT_TRUE(store.reconstruct_disk(2).ok());
    EXPECT_TRUE(store.verify_parity().ok());
    auto healthy = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(healthy.ok());
    EXPECT_EQ(healthy.value(), data);
}

TEST(Store, ConcurrentDegradedReadsAreByteExact) {
    // Read-only concurrency: many threads reading (and decoding around a
    // failed disk) simultaneously must all see exact bytes. Devices
    // serialise internally; planners and decode are pure.
    ThreadPool pool(4);
    StripeStore store(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 300, 61);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.fail_disk(4).ok());

    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < 40; ++i) {
                const std::int64_t offset = rng.next_range(0, static_cast<std::int64_t>(data.size()) - 2);
                const std::int64_t length =
                    rng.next_range(1, static_cast<std::int64_t>(data.size()) - offset);
                auto out = store.read_bytes(offset, length);
                if (!out.ok() ||
                    std::memcmp(out->data(), data.data() + offset, static_cast<std::size_t>(length)) != 0) {
                    failures.fetch_add(1);
                }
            }
        });
    }
    for (auto& r : readers) r.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Store, EightReadersRaceOnlineWriterByteExact) {
    // The writer-lock contract under fire: a writer appending stripe
    // after stripe holds writer_mu_ across encode and device I/O but
    // excludes readers only for each manifest window, so eight readers
    // hammering the committed prefix must never block behind an encode
    // or observe a torn prefix. Every read is validated against the
    // expected byte stream at its offset; committed_bytes() is the
    // linearisation point (it can only grow).
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    const auto data = random_bytes(64 * 1200, 77);
    const std::size_t stripe = static_cast<std::size_t>(store.stripe_data_bytes());

    // Seed a few stripes so readers have something from the start.
    const std::size_t seeded = stripe * 3;
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), seeded)).ok());

    std::atomic<int> failures{0};
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
        std::size_t off = seeded;
        Rng rng(78);
        while (off < data.size()) {
            const std::size_t n =
                std::min(data.size() - off,
                         static_cast<std::size_t>(rng.next_range(1, static_cast<std::int64_t>(stripe) + 37)));
            if (!store.append(ConstByteSpan(data.data() + off, n)).ok()) {
                failures.fetch_add(1);
                break;
            }
            off += n;
        }
        if (!store.flush().ok()) failures.fetch_add(1);
        writer_done.store(true);
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(200 + static_cast<std::uint64_t>(t));
            while (!writer_done.load()) {
                const std::int64_t committed = store.committed_bytes();
                if (committed < 2) continue;
                const std::int64_t offset = rng.next_range(0, committed - 2);
                const std::int64_t length = rng.next_range(1, committed - offset);
                auto out = store.read_bytes(offset, length);
                if (!out.ok() ||
                    std::memcmp(out->data(), data.data() + offset,
                                static_cast<std::size_t>(length)) != 0) {
                    failures.fetch_add(1);
                    break;
                }
            }
        });
    }
    writer.join();
    for (auto& r : readers) r.join();
    EXPECT_EQ(failures.load(), 0);

    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST(Disk, FailureDropsContentAndReplaceComesBackEmpty) {
    Disk disk(16);
    std::vector<std::uint8_t> payload(16, 0xaa);
    ASSERT_TRUE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(16);
    ASSERT_TRUE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, payload);

    disk.fail();
    EXPECT_TRUE(disk.failed());
    EXPECT_FALSE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
    EXPECT_FALSE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());

    disk.replace();
    EXPECT_FALSE(disk.failed());
    EXPECT_FALSE(disk.read(3, ByteSpan(out.data(), out.size())).ok());  // empty after replace
    ASSERT_TRUE(disk.write(3, ConstByteSpan(payload.data(), payload.size())).ok());
    EXPECT_TRUE(disk.read(3, ByteSpan(out.data(), out.size())).ok());
}

TEST(Disk, SizeMismatchRejected) {
    Disk disk(16);
    std::vector<std::uint8_t> small(8, 1);
    EXPECT_FALSE(disk.write(0, ConstByteSpan(small.data(), small.size())).ok());
    std::vector<std::uint8_t> ok(16, 1);
    ASSERT_TRUE(disk.write(0, ConstByteSpan(ok.data(), ok.size())).ok());
    EXPECT_FALSE(disk.read(0, ByteSpan(small.data(), small.size())).ok());
}

// A Disk keeps its rows in slabs of whole 2 MiB mappings.
constexpr std::int64_t kSlabBytes = std::int64_t{2} << 20;

/// The payload row `row` of a Disk test holds: a pattern that differs
/// between neighbouring rows and between byte offsets.
std::vector<std::uint8_t> row_payload(RowId row, std::int64_t elem) {
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(elem));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(row) * 131 + i * 7 + 1);
    }
    return payload;
}

/// Write `rows` one by one, then read them back one by one and as one
/// batch.
void expect_rows_round_trip(Disk& disk, const std::vector<RowId>& rows) {
    const std::int64_t elem = disk.element_bytes();
    for (RowId row : rows) {
        const auto payload = row_payload(row, elem);
        ASSERT_TRUE(disk.write(row, ConstByteSpan(payload.data(), payload.size())).ok()) << row;
    }
    std::vector<std::vector<std::uint8_t>> outs(rows.size(),
                                                std::vector<std::uint8_t>(static_cast<std::size_t>(elem)));
    std::vector<ByteSpan> spans;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(disk.read(rows[i], ByteSpan(outs[i].data(), outs[i].size())).ok()) << rows[i];
        EXPECT_EQ(outs[i], row_payload(rows[i], elem)) << "row " << rows[i];
        std::fill(outs[i].begin(), outs[i].end(), std::uint8_t{0});
        spans.emplace_back(outs[i].data(), outs[i].size());
    }
    std::size_t completed = 0;
    ASSERT_TRUE(disk.read_batch(rows, spans, &completed).ok());
    EXPECT_EQ(completed, rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(outs[i], row_payload(rows[i], elem)) << "batched row " << rows[i];
    }
}

TEST(Disk, RowsOnBothSidesOfASlabBoundary) {
    constexpr std::int64_t kElem = 4096;
    constexpr RowId kRowsPerSlab = kSlabBytes / kElem;
    Disk disk(kElem);
    expect_rows_round_trip(disk, {kRowsPerSlab - 2, kRowsPerSlab - 1, kRowsPerSlab, kRowsPerSlab + 1,
                                  2 * kRowsPerSlab - 1, 2 * kRowsPerSlab, 0});
    // Corruption lands in the addressed row only, on either side.
    ASSERT_TRUE(disk.corrupt_byte(kRowsPerSlab, 5).ok());
    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem));
    ASSERT_TRUE(disk.read(kRowsPerSlab, ByteSpan(out.data(), out.size())).ok());
    auto expected = row_payload(kRowsPerSlab, kElem);
    expected[5] ^= 0xff;
    EXPECT_EQ(out, expected);
    ASSERT_TRUE(disk.read(kRowsPerSlab - 1, ByteSpan(out.data(), out.size())).ok());
    EXPECT_EQ(out, row_payload(kRowsPerSlab - 1, kElem));
}

TEST(Disk, ElementThatDoesNotDivideTheSlab) {
    constexpr std::int64_t kElem = 3000;  // 699 rows per slab, 152 bytes spare
    constexpr RowId kRowsPerSlab = kSlabBytes / kElem;
    Disk disk(kElem);
    expect_rows_round_trip(disk, {0, kRowsPerSlab - 1, kRowsPerSlab, 2 * kRowsPerSlab - 1,
                                  2 * kRowsPerSlab, 2 * kRowsPerSlab + 1});
    EXPECT_EQ(disk.rows(), 2 * kRowsPerSlab + 2);
}

TEST(Disk, ElementLargerThanASlabTakesOneSlabPerRow) {
    constexpr std::int64_t kElem = kSlabBytes + 4096;
    Disk disk(kElem);
    expect_rows_round_trip(disk, {2, 0, 1});
    EXPECT_EQ(disk.rows(), 3);
    ASSERT_TRUE(disk.corrupt_byte(1, static_cast<std::size_t>(kElem - 1)).ok());
    EXPECT_FALSE(disk.corrupt_byte(1, static_cast<std::size_t>(kElem)).ok());
}

TEST(Disk, RowsIsTheWriteHighWaterMark) {
    constexpr std::int64_t kElem = 4096;
    Disk disk(kElem);
    EXPECT_EQ(disk.rows(), 0);
    const auto payload = row_payload(0, kElem);
    const ConstByteSpan data(payload.data(), payload.size());
    ASSERT_TRUE(disk.write(10, data).ok());
    EXPECT_EQ(disk.rows(), 11);
    ASSERT_TRUE(disk.write(3, data).ok());
    EXPECT_EQ(disk.rows(), 11);
    ASSERT_TRUE(disk.write(kSlabBytes / kElem + 7, data).ok());
    EXPECT_EQ(disk.rows(), kSlabBytes / kElem + 8);
    // Rows below the mark that were never written still fail.
    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem));
    const Status gap = disk.read(5, ByteSpan(out.data(), out.size()));
    ASSERT_FALSE(gap.ok());
    EXPECT_EQ(gap.error().message, "row never written");
    EXPECT_FALSE(disk.read(kSlabBytes / kElem + 8, ByteSpan(out.data(), out.size())).ok());
}

TEST(Disk, FailAndReplaceDropEverySlab) {
    constexpr std::int64_t kElem = 4096;
    constexpr RowId kRows = 3 * (kSlabBytes / kElem);
    Disk disk(kElem);
    std::vector<RowId> rows;
    for (RowId row = 0; row < kRows; row += 97) rows.push_back(row);
    rows.push_back(kRows - 1);
    expect_rows_round_trip(disk, rows);

    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem));
    for (const bool fail_first : {true, false}) {
        if (fail_first) {
            disk.fail();
            EXPECT_FALSE(disk.read(0, ByteSpan(out.data(), out.size())).ok());
            EXPECT_EQ(disk.rows(), 0);
        }
        disk.replace();
        EXPECT_EQ(disk.rows(), 0);
        for (RowId row : rows) {
            EXPECT_FALSE(disk.read(row, ByteSpan(out.data(), out.size())).ok()) << row;
            EXPECT_FALSE(disk.corrupt_byte(row, 0).ok()) << row;
        }
        expect_rows_round_trip(disk, rows);
    }
}

TEST(Disk, RecycledSlabNeverServesAnotherDisksBytes) {
    constexpr std::int64_t kElem = 4096;
    constexpr RowId kRows = 2 * (kSlabBytes / kElem);
    std::vector<RowId> all(static_cast<std::size_t>(kRows));
    for (RowId row = 0; row < kRows; ++row) all[static_cast<std::size_t>(row)] = row;
    {
        Disk a(kElem);
        expect_rows_round_trip(a, all);
    }
    // b grows over the slabs a just retired, but serves only rows it wrote.
    Disk b(kElem);
    const auto payload = row_payload(kRows - 1, kElem);
    ASSERT_TRUE(b.write(kRows - 1, ConstByteSpan(payload.data(), payload.size())).ok());
    std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem));
    for (RowId row = 0; row < kRows - 1; ++row) {
        const Status status = b.read(row, ByteSpan(out.data(), out.size()));
        ASSERT_FALSE(status.ok()) << row;
        EXPECT_EQ(status.error().message, "row never written") << row;
        ASSERT_FALSE(b.corrupt_byte(row, 0).ok()) << row;
    }
    const std::vector<RowId> batch = {kRows - 1, 0};
    std::vector<std::uint8_t> first(static_cast<std::size_t>(kElem));
    const std::vector<ByteSpan> outs = {ByteSpan(first.data(), first.size()),
                                        ByteSpan(out.data(), out.size())};
    std::size_t completed = 0;
    const Status status = b.read_batch(batch, outs, &completed);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().message, "row never written");
    EXPECT_EQ(completed, 1u);
    EXPECT_EQ(first, payload);
}

TEST(Disk, ConcurrentWritersGrowAcrossSlabsWhileReadersReadCommittedRows) {
    constexpr std::int64_t kElem = 64 * 1024;  // 32 rows per slab
    constexpr int kWriters = 2;
    constexpr RowId kRowsPerWriter = 96;       // 192 rows: 6 slabs
    Disk disk(kElem);
    // committed[w]: rows w, w + kWriters, ... below this count are written.
    std::array<std::atomic<RowId>, kWriters> committed{};
    std::atomic<bool> done{false};
    std::atomic<int> bad{0};
    std::atomic<std::int64_t> reads{0};

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&, w] {
            for (RowId i = 0; i < kRowsPerWriter; ++i) {
                const RowId row = i * kWriters + w;
                const auto payload = row_payload(row, kElem);
                if (!disk.write(row, ConstByteSpan(payload.data(), payload.size())).ok()) ++bad;
                committed[static_cast<std::size_t>(w)].store(i + 1, std::memory_order_release);
            }
        });
    }
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            Rng rng(static_cast<std::uint64_t>(r) + 11);
            std::vector<std::uint8_t> out(static_cast<std::size_t>(kElem));
            // At least 64 reads each, and on until both writers are done.
            for (int n = 0; n < 64 || !done.load(std::memory_order_acquire);) {
                const int w = static_cast<int>(rng.next_below(kWriters));
                const RowId written = committed[static_cast<std::size_t>(w)].load(std::memory_order_acquire);
                if (written == 0) continue;
                const RowId row =
                    static_cast<RowId>(rng.next_below(static_cast<std::uint64_t>(written))) * kWriters + w;
                if (!disk.read(row, ByteSpan(out.data(), out.size())).ok() ||
                    out != row_payload(row, kElem) || disk.rows() <= row) {
                    ++bad;
                }
                ++reads;
                ++n;
            }
        });
    }
    for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
    done.store(true, std::memory_order_release);
    for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
    EXPECT_EQ(bad.load(), 0);
    EXPECT_GE(reads.load(), 2 * 64);
    EXPECT_EQ(disk.rows(), kWriters * kRowsPerWriter);
}

// ---- Self-healing read path -----------------------------------------------

/// Store over FaultDevice-wrapped disks, metrics attached, fully written.
struct FaultyFixture {
    std::unique_ptr<StripeStore> store;
    obs::MetricRegistry metrics;
    std::vector<std::uint8_t> data;

    FaultyFixture(const std::string& spec, const FaultPlan& plan,
                  const RecoveryOptions& recovery, ThreadPool* pool = nullptr,
                  std::int64_t elem = 64) {
        auto opened = StripeStore::open(make_scheme(spec, LayoutKind::ecfrm), elem,
                                        faulty_memory_factory(elem, plan), pool);
        EXPECT_TRUE(opened.ok());
        store = std::move(opened).take();
        store->set_recovery(recovery);
        data = random_bytes(static_cast<std::size_t>(elem) * 90, 77);
        EXPECT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
        EXPECT_TRUE(store->flush().ok());
        store->attach_observability(&metrics);  // after writes: count only reads
    }

    ~FaultyFixture() {
        // Detach before `metrics` dies: the swap drains any orphaned hedge
        // queue still feeding the registry's per-disk IoStats.
        if (store != nullptr) store->attach_observability(nullptr);
    }

    std::int64_t counter(const char* name) { return metrics.counter(name).value(); }
};

TEST(StoreRecovery, TransientReadErrorIsRetriedAndCounted) {
    FaultPlan plan;
    FaultRule eio;  // disk 2's first two read ops fail once each
    eio.kind = FaultKind::transient;
    eio.disk = 2;
    eio.op = FaultOp::read;
    eio.first_op = 0;
    eio.count = 2;
    plan.rules = {eio};
    RecoveryOptions recovery;
    recovery.max_retries = 2;
    FaultyFixture f("rs:6,3", plan, recovery);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_retries_total"), 1);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 0);
}

TEST(StoreRecovery, DetectedCorruptionTriggersMidFlightReplan) {
    FaultPlan plan;
    FaultRule flip;  // disk 1's first read hits EDC-detected corruption
    flip.kind = FaultKind::bit_flip;
    flip.disk = 1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);  // decoded around the damaged disk
    EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_degraded_reads_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_decodes_total"), 1);
}

TEST(StoreRecovery, SlowDiskTimesOutAndReadRoutesAround) {
    FaultPlan plan;
    FaultRule slow;  // disk 0 stalls every read far past the deadline
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1'000'000;
    slow.latency_ms = 60.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 5.0;  // 12x margin against sanitizer slowdown
    FaultyFixture f("rs:6,3", plan, recovery);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_timeouts_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1);
}

TEST(StoreRecovery, SlowDiskTimesOutAfterOneStalledOp) {
    // Without a pool no one can give up on a read call in flight, so a
    // timed queue's first call carries one op: every read of disk 0
    // stalls 60 ms, and the read pays one stall, not one per element of
    // disk 0's queue (10 here, 600 ms in one vectored call).
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1'000'000;
    slow.latency_ms = 60.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 5.0;
    FaultyFixture f("rs:6,3", plan, recovery);

    const auto t0 = std::chrono::steady_clock::now();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_EQ(f.counter("ecfrm_store_timeouts_total"), 1);
    EXPECT_LT(elapsed_ms, 120.0);
}

TEST(StoreRecovery, HealthyLongQueueNeverTimesOut) {
    // Every read op on every disk after its first takes 5 ms, a quarter
    // of the 20 ms per-op deadline, so no disk is slow, though each
    // 10-element queue takes twice the deadline. The deadline is per op:
    // no read times out, pooled or not. (Each disk's first op, a timed
    // queue's one-op first call, is not slowed, so a scheduling hiccup
    // must last the whole deadline to fail it.)
    FaultPlan plan;
    FaultRule steady;
    steady.kind = FaultKind::latency;
    steady.op = FaultOp::read;
    steady.first_op = 1;
    steady.count = 1'000'000;
    steady.latency_ms = 5.0;
    plan.rules = {steady};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 20.0;
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p == nullptr ? "no pool" : "pool of 4");
        FaultyFixture f("rs:6,3", plan, recovery, p);
        auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_EQ(out.value(), f.data);
        EXPECT_EQ(f.counter("ecfrm_store_timeouts_total"), 0);
        EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 0);
    }
}

TEST(StoreRecovery, PooledSlowDiskTimesOutAtTheDeadline) {
    // On a pool the reaper gives up on disk 0's stalled read call at the
    // call's deadline, without waiting out the stall.
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1;
    slow.latency_ms = 60.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 5.0;
    ThreadPool pool(4);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);

    const auto t0 = std::chrono::steady_clock::now();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_timeouts_total"), 1);
    EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1);
    EXPECT_LT(elapsed_ms, 60.0);
}

TEST(StoreRecovery, HedgedReadDecodesAroundStraggler) {
    FaultPlan plan;
    FaultRule slow;  // disk 0's first read ops straggle way past the hedge
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 4;
    slow.latency_ms = 120.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 10.0;
    ThreadPool pool(4);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);

    const auto t0 = std::chrono::steady_clock::now();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
    // The read returned at the hedge, not behind the straggler: waiting
    // out even one stalled op would take the full 120 ms.
    EXPECT_LT(elapsed_ms, 60.0);
}

TEST(StoreRecovery, HedgedReadIgnoresQueuesThatHaveNotStarted) {
    // Two blockers hold both pool threads for the read's first 30 ms, so
    // no queue starts before then. A queue that has not started is not
    // late: the hedge fires 5 ms after disk 0's stalled queue starts,
    // not 5 ms after the round does (when every queue is still out and
    // no plan around them all exists).
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1;
    slow.latency_ms = 120.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 5.0;
    ThreadPool pool(2);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);
    for (int t = 0; t < 2; ++t) {
        pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); });
    }

    const auto t0 = std::chrono::steady_clock::now();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
    EXPECT_LT(elapsed_ms, 100.0);
}

TEST(StoreRecovery, HedgedReadStartsNoAbandonedQueue) {
    // A pool of one: disk 0's stalled queue holds the only thread when
    // the hedge fires, so every other first-round queue is unclaimed.
    // The hedge abandons them: once the orphaned queue drains, disks 1..8
    // have served exactly the reads of a read planned around disk 0 (a
    // degraded read with disk 0 failed), none of them twice.
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1;
    slow.latency_ms = 40.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 5.0;
    ThreadPool pool(1);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
    // Re-attaching the same registry runs drain_orphans() while the disks
    // still count into it, so the orphaned queue's reads are all counted.
    f.store->attach_observability(&f.metrics);

    FaultyFixture degraded("rs:6,3", FaultPlan{}, RecoveryOptions{});
    ASSERT_TRUE(degraded.store->fail_disk(0).ok());
    ASSERT_TRUE(degraded.store->read_bytes(0, static_cast<std::int64_t>(f.data.size())).ok());
    for (int d = 1; d < 9; ++d) {
        const obs::Labels disk{{"disk", std::to_string(d)}};
        EXPECT_EQ(f.metrics.counter("ecfrm_disk_read_ops_total", disk).value(),
                  degraded.metrics.counter("ecfrm_disk_read_ops_total", disk).value())
            << "disk " << d;
    }
}

TEST(StoreRecovery, HedgedReadReapsTheQueuesStillInTime) {
    // A pool of two. One thread holds disk 0's queue (400 ms stall); the
    // other reads disk 1 (48 ms stall), then starts disk 2 (56 ms stall)
    // at ~48 ms. The hedge fires at ~80 ms, while disk 2's queue is out
    // but not late (it would be at ~128 ms): the read waits for it rather
    // than read its elements again in the hedge's round, so every disk
    // but 0 serves exactly the reads of a degraded read around disk 0.
    FaultPlan plan;
    const std::pair<DiskId, double> stalls[] = {{0, 400.0}, {1, 48.0}, {2, 56.0}};
    for (const auto& [disk, ms] : stalls) {
        FaultRule slow;
        slow.kind = FaultKind::latency;
        slow.disk = disk;
        slow.op = FaultOp::read;
        slow.first_op = 0;
        slow.count = 1;
        slow.latency_ms = ms;
        plan.rules.push_back(slow);
    }
    RecoveryOptions recovery;
    recovery.hedge_ms = 80.0;
    ThreadPool pool(2);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
    f.store->attach_observability(&f.metrics);  // drains the orphaned queue

    FaultyFixture degraded("rs:6,3", FaultPlan{}, RecoveryOptions{});
    ASSERT_TRUE(degraded.store->fail_disk(0).ok());
    ASSERT_TRUE(degraded.store->read_bytes(0, static_cast<std::int64_t>(f.data.size())).ok());
    for (int d = 1; d < 9; ++d) {
        const obs::Labels disk{{"disk", std::to_string(d)}};
        EXPECT_EQ(f.metrics.counter("ecfrm_disk_read_ops_total", disk).value(),
                  degraded.metrics.counter("ecfrm_disk_read_ops_total", disk).value())
            << "disk " << d;
    }
}

TEST(StoreRecovery, HedgedReadLeavesErrorCountersAlone) {
    // A straggler is slow, not failed: the read hedged around it is not a
    // degraded read, its hedge round is not a replan, and the straggler's
    // elements decoded around it count as hedged reads, not decodes.
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 4;
    slow.latency_ms = 120.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 10.0;
    ThreadPool pool(4);
    FaultyFixture f("rs:6,3", plan, recovery, &pool);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 0);
    EXPECT_EQ(f.counter("ecfrm_store_degraded_reads_total"), 0);
    EXPECT_EQ(f.counter("ecfrm_store_decodes_total"), 0);
}

TEST(StoreRecovery, HedgedReadWaitsWhenTheCodeCannotPlanAroundTheStraggler) {
    // XOR tolerates one lost disk and one is already failed, so a hedge
    // around the straggling disk cannot be planned: the read waits for
    // the straggler instead and still returns the right bytes.
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 2;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 2;
    slow.latency_ms = 40.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 5.0;
    ThreadPool pool(4);
    FaultyFixture f("xor:5", plan, recovery, &pool);
    ASSERT_TRUE(f.store->fail_disk(0).ok());

    const auto t0 = std::chrono::steady_clock::now();
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_GE(elapsed_ms, 40.0);  // behind the straggler's first stalled op
    EXPECT_EQ(f.counter("ecfrm_store_hedged_reads_total"), 0);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 0);
    EXPECT_EQ(f.counter("ecfrm_store_degraded_reads_total"), 1);
}

TEST(StoreRecovery, DiskFailingAfterAHedgeReadsTheStragglerAfterAll) {
    // XOR tolerates one lost disk. The read hedges around straggling disk
    // 0, then disk 2 fails on its first read of the hedge round: the code
    // cannot plan around both, so the replan reads the straggler after
    // all instead of failing the read.
    const std::int64_t elem = 64;
    const core::Scheme scheme = make_scheme("xor:5", LayoutKind::ecfrm);
    std::int64_t disk2_reads = 0;  // the unhedged first round's reads of disk 2
    for (ElementId id = 0; id < 90; ++id) {
        if (scheme.layout().locate(scheme.layout().coord_of_data(id)).disk == 2) ++disk2_reads;
    }
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.count = 1'000'000;
    slow.latency_ms = 15.0;
    FaultRule stop;
    stop.kind = FaultKind::fail_stop;
    stop.disk = 2;
    stop.op = FaultOp::read;
    stop.first_op = disk2_reads;
    plan.rules = {slow, stop};
    RecoveryOptions recovery;
    recovery.hedge_ms = 10.0;
    ThreadPool pool(4);
    FaultyFixture f("xor:5", plan, recovery, &pool, elem);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 1);
    EXPECT_EQ(f.counter("ecfrm_store_degraded_reads_total"), 1);
}

TEST(StoreRecovery, DegradedReadCountsOnceAcrossReplans) {
    // A read that starts around a failed disk and replans once more around
    // detected corruption on another is still one degraded read.
    FaultPlan plan;
    FaultRule flip;
    flip.kind = FaultKind::bit_flip;
    flip.disk = 1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});
    ASSERT_TRUE(f.store->fail_disk(3).ok());

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_EQ(f.counter("ecfrm_store_replans_total"), 1);
    EXPECT_EQ(f.counter("ecfrm_store_degraded_reads_total"), 1);
}

TEST(StoreRecovery, ForensicsCaptureReplannedReadWithTiledPhases) {
    // A detected-corruption read must leave a captured span tree behind:
    // recovery-active, reclassified degraded, and with per-phase
    // durations that tile the end-to-end latency.
    FaultPlan plan;
    FaultRule flip;
    flip.kind = FaultKind::bit_flip;
    flip.disk = 1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    obs::ForensicsOptions fopts;
    fopts.slow_threshold_us = -1.0;  // recovery is the only capture trigger
    obs::RequestForensics forensics(fopts);
    f.store->attach_observability(&f.metrics, &forensics);

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);

    ASSERT_EQ(forensics.captured(), 1u);
    const auto exemplars = forensics.exemplars();
    ASSERT_EQ(exemplars.size(), 1u);
    const auto& rt = *exemplars[0];
    EXPECT_TRUE(rt.finished());
    EXPECT_TRUE(rt.ok());
    EXPECT_TRUE(rt.recovery_active());
    EXPECT_GE(rt.replans(), 1);
    EXPECT_GT(rt.decodes(), 0);
    EXPECT_EQ(rt.cls(), obs::RequestClass::degraded);  // reclassified mid-flight
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::degraded), 1);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::normal), 0);

    // Phase attribution accounts for the whole request (same tolerance
    // the faultcamp audit enforces across all its cells).
    double phase_sum = 0.0;
    for (const auto& [name, us] : rt.phase_totals()) phase_sum += us;
    EXPECT_GT(rt.dur_us(), 0.0);
    EXPECT_LE(std::fabs(rt.dur_us() - phase_sum), std::max(0.05 * rt.dur_us(), 10.0))
        << "phases sum to " << phase_sum << " us of " << rt.dur_us() << " us";

    // The flip is persistent (the device EDC keeps reporting the row
    // corrupt), so a second read heals through the same ladder and is
    // captured as another degraded exemplar.
    auto again = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), f.data);
    EXPECT_EQ(forensics.captured(), 2u);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::degraded), 2);
    EXPECT_EQ(forensics.finished_total(obs::RequestClass::normal), 0);
    f.store->attach_observability(nullptr);
}

/// A FaultDevice-backed RS(6,3) store of 90 elements, and the fault
/// devices behind it, for the one-account tests.
struct AccountFixture {
    std::vector<FaultDevice*> devices;
    std::unique_ptr<StripeStore> store;
    std::vector<std::uint8_t> data;

    AccountFixture(const FaultPlan& plan, ThreadPool* pool) {
        auto opened = StripeStore::open(
            make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
            [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
                auto device = std::make_unique<FaultDevice>(std::make_unique<Disk>(64), plan,
                                                            static_cast<DiskId>(index));
                devices.push_back(device.get());
                return std::unique_ptr<BlockDevice>(std::move(device));
            },
            pool);
        EXPECT_TRUE(opened.ok());
        store = std::move(opened).take();
        data = random_bytes(64 * 90, 5);
        EXPECT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
        EXPECT_TRUE(store->flush().ok());
    }

    /// Read [offset, offset + length) and check its bytes.
    void read(std::int64_t offset, std::int64_t length) {
        auto out = store->read_bytes(offset, length);
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_TRUE(std::equal(out.value().begin(), out.value().end(), data.begin() + offset));
    }
};

double in_flight(obs::MetricRegistry& metrics, int disk) {
    return metrics.gauge("ecfrm_disk_in_flight_ops", {{"disk", std::to_string(disk)}}).value();
}

// The executor's queues are the one per-disk I/O account. Over a fixed
// read mix — healthy reads, one transient read error that is retried,
// reads with a failed disk — each disk's read-op counter equals the heat
// model's ops and the `done` of its disk.batch spans, its read errors
// equal the transient faults its device fired, and after every read
// nothing is in flight.
TEST(StoreAccount, ReadMixCountsEachDeviceOpOnce) {
    FaultPlan plan;
    FaultRule eio;
    eio.kind = FaultKind::transient;
    eio.disk = 3;
    eio.op = FaultOp::read;
    eio.first_op = 2;
    eio.count = 1;
    plan.rules = {eio};
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p == nullptr ? "serial" : "pool of 4");
        AccountFixture f(plan, p);
        obs::MetricRegistry metrics;
        obs::ForensicsOptions fopts;
        fopts.slow_threshold_us = 0.0;  // capture every request
        fopts.max_exemplars = 1024;
        obs::RequestForensics forensics(fopts);
        obs::DiskHeatModel heat(9);
        f.store->attach_observability(&metrics, &forensics, &heat);  // after writes: reads only

        const auto size = static_cast<std::int64_t>(f.data.size());
        const std::pair<std::int64_t, std::int64_t> ranges[] = {
            {0, size}, {64 * 7, 64 * 20}, {64 * 33 + 5, 64 * 40}};
        for (const bool degraded : {false, true}) {
            if (degraded) {
                ASSERT_TRUE(f.store->fail_disk(5).ok());
            }
            for (const auto& [offset, length] : ranges) {
                f.read(offset, length);
                for (int d = 0; d < 9; ++d) EXPECT_EQ(in_flight(metrics, d), 0.0) << "disk " << d;
            }
        }
        f.store->attach_observability(nullptr);

        std::vector<std::int64_t> done(9, 0);
        for (const auto& rt : forensics.exemplars()) {
            for (const obs::SpanNode& node : rt->nodes()) {
                if (node.name != "disk.batch") continue;
                int disk = -1;
                std::int64_t landed = 0;
                for (const auto& [key, value] : node.attrs) {
                    if (key == "disk") disk = std::stoi(value);
                    if (key == "done") landed = std::stoll(value);
                }
                ASSERT_GE(disk, 0);
                done[static_cast<std::size_t>(disk)] += landed;
            }
        }
        std::int64_t fired_total = 0;
        for (int d = 0; d < 9; ++d) {
            SCOPED_TRACE("disk " + std::to_string(d));
            const std::int64_t ops =
                metrics.counter("ecfrm_disk_read_ops_total", {{"disk", std::to_string(d)}}).value();
            EXPECT_EQ(ops, heat.disk_snapshot(d, obs::DiskHeatModel::now_seconds()).total_ops);
            EXPECT_EQ(ops, done[static_cast<std::size_t>(d)]);
            std::int64_t fired = 0;
            for (const FaultDevice::Event& e : f.devices[static_cast<std::size_t>(d)]->events()) {
                fired += e.is_read && e.kind == FaultKind::transient ? 1 : 0;
            }
            EXPECT_EQ(metrics
                          .counter("ecfrm_store_io_errors_total",
                                   {{"disk", std::to_string(d)}, {"op", "read"}})
                          .value(),
                      fired);
            fired_total += fired;
        }
        EXPECT_EQ(fired_total, 1);
        EXPECT_EQ(metrics.counter("ecfrm_store_retries_total").value(), 1);
    }
}

// A read call that returns past its op_timeout_ms deadline is a timeout
// to the read path, which routes around the disk, but to the disk's
// account it is what the device returned: one served read, no error.
// On a pool the reaper gives up on the call at its deadline, and the
// orphaned queue counts the read when the call returns.
TEST(StoreAccount, LateCallCountsAsServedReadsAndATimeout) {
    FaultPlan plan;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.first_op = 0;
    slow.count = 1;
    slow.latency_ms = 40.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 5.0;
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p == nullptr ? "serial" : "pool of 4");
        AccountFixture f(plan, p);
        f.store->set_recovery(recovery);
        obs::MetricRegistry metrics;
        f.store->attach_observability(&metrics);
        f.read(0, static_cast<std::int64_t>(f.data.size()));
        f.store->attach_observability(&metrics);  // drains an orphaned queue

        const obs::Labels disk0{{"disk", "0"}};
        EXPECT_EQ(metrics.counter("ecfrm_store_timeouts_total").value(), 1);
        EXPECT_EQ(metrics.counter("ecfrm_disk_read_ops_total", disk0).value(), 1);
        EXPECT_EQ(metrics.counter("ecfrm_store_io_errors_total", {{"disk", "0"}, {"op", "read"}})
                      .value(),
                  0);
        for (int d = 0; d < 9; ++d) EXPECT_EQ(in_flight(metrics, d), 0.0) << "disk " << d;
        f.store->attach_observability(nullptr);
    }
}

/// Counts every element read per (disk, row) on its way to `inner`.
class CountingDevice final : public BlockDevice {
  public:
    using Reads = std::map<std::pair<DiskId, RowId>, int>;
    CountingDevice(std::unique_ptr<BlockDevice> inner, DiskId disk, Reads* reads)
        : inner_(std::move(inner)), disk_(disk), reads_(reads) {}

    std::int64_t element_bytes() const override { return inner_->element_bytes(); }
    Status write(RowId row, ConstByteSpan data) override { return inner_->write(row, data); }
    Status read(RowId row, ByteSpan out) const override {
        ++(*reads_)[{disk_, row}];
        return inner_->read(row, out);
    }
    void fail() override { inner_->fail(); }
    void replace() override { inner_->replace(); }
    bool failed() const override { return inner_->failed(); }
    RowId rows() const override { return inner_->rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_->corrupt_byte(row, offset);
    }

  private:
    std::unique_ptr<BlockDevice> inner_;
    DiskId disk_;
    Reads* reads_;
};

TEST(StoreRecovery, FailStopMidFetchNeverRereadsFetchedElements) {
    // Disk 2 fail-stops on its second read, mid-way through round 0 of a
    // zero-copy read. The replan decodes its remaining elements from what
    // round 0 already landed in the caller's buffer plus new parity reads:
    // no element is read twice, and nothing is staged.
    constexpr std::int64_t kElem = 64;
    FaultPlan plan;
    FaultRule stop;
    stop.kind = FaultKind::fail_stop;
    stop.disk = 2;
    stop.op = FaultOp::read;
    stop.first_op = 1;
    plan.rules = {stop};
    CountingDevice::Reads reads;
    auto faulty = faulty_memory_factory(kElem, plan);
    auto factory = [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
        auto device = faulty(index);
        if (!device.ok()) return device.error();
        return std::unique_ptr<BlockDevice>(
            std::make_unique<CountingDevice>(std::move(device).take(), index, &reads));
    };
    auto opened = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), kElem, factory);
    ASSERT_TRUE(opened.ok());
    StripeStore& store = *opened.value();
    obs::MetricRegistry metrics;
    const auto data = random_bytes(kElem * 90, 78);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    store.attach_observability(&metrics);
    ASSERT_TRUE(reads.empty());

    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), data);
    EXPECT_GE(metrics.counter("ecfrm_store_replans_total").value(), 1);
    EXPECT_GE(metrics.counter("ecfrm_store_decodes_total").value(), 1);
    EXPECT_EQ(store.assemble_staging_copies(), 0);
    EXPECT_EQ(reads.count({2, 0}), 1u);  // round 0 did reach the failing disk
    for (const auto& [slot, n] : reads) {
        EXPECT_EQ(n, 1) << "disk " << slot.first << " row " << slot.second << " read " << n << " times";
    }
    store.attach_observability(nullptr);
}

TEST(StoreRecovery, CorruptionEverywhereSurfacesBeyondTolerance) {
    FaultPlan plan;
    FaultRule flip;  // every disk's first read is detected-corrupt
    flip.kind = FaultKind::bit_flip;
    flip.disk = -1;
    flip.first_op = 0;
    flip.count = 1;
    flip.detected = true;
    plan.rules = {flip};
    FaultyFixture f("rs:6,3", plan, RecoveryOptions{});

    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, Error::Code::beyond_tolerance);
}

TEST(StoreRecovery, TornWritesAreHealedByWriteRetries) {
    FaultPlan plan;
    plan.seed = 9;
    plan.max_burst = 2;
    FaultRule torn;
    torn.kind = FaultKind::torn_write;
    torn.count = 1'000'000;
    torn.probability = 0.3;
    plan.rules = {torn};
    RecoveryOptions recovery;
    recovery.max_retries = 3;
    FaultyFixture f("lrc:6,2,2", plan, recovery);

    // The fixture's writes already ran over torn-write injection; if any
    // tear had escaped the retry layer, parity or payload would be wrong.
    auto out = f.store->read_bytes(0, static_cast<std::int64_t>(f.data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), f.data);
    EXPECT_TRUE(f.store->verify_parity().ok());
}

TEST(StoreRecovery, FailedFlushLeavesNoPaddingInTheTail) {
    // A flush pads the tail to a whole stripe. When its commit fails, the
    // padding must not stay behind: the next append would land after it
    // and a later read would return zeros for the appended bytes.
    FaultPlan plan;
    FaultRule torn;
    torn.kind = FaultKind::torn_write;
    torn.disk = 0;
    torn.op = FaultOp::write;
    torn.first_op = 0;
    torn.count = 1;
    plan.rules = {torn};
    auto opened = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
                                    faulty_memory_factory(64, plan));
    ASSERT_TRUE(opened.ok());
    auto store = std::move(opened).take();
    RecoveryOptions recovery;
    recovery.max_retries = 0;
    store->set_recovery(recovery);

    const std::vector<std::uint8_t> aa(100, 0xAA);
    const std::vector<std::uint8_t> bb(50, 0xBB);
    ASSERT_TRUE(store->append(ConstByteSpan(aa.data(), aa.size())).ok());
    EXPECT_FALSE(store->flush().ok());
    ASSERT_TRUE(store->append(ConstByteSpan(bb.data(), bb.size())).ok());
    ASSERT_TRUE(store->flush().ok());

    EXPECT_EQ(store->logical_bytes(), 150);
    EXPECT_EQ(store->committed_bytes(), 150);
    std::vector<std::uint8_t> want(150, 0xBB);
    std::fill_n(want.begin(), 100, std::uint8_t{0xAA});
    auto out = store->read_bytes(0, 150);
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), want);
}

// ---- Request scratch reuse ---------------------------------------------------

/// Read [offset, offset + length) through read_bytes and compare it with
/// the reference copy.
void expect_bytes(StripeStore& store, const std::vector<std::uint8_t>& ref, std::int64_t offset,
                  std::int64_t length, const char* what) {
    auto got = store.read_bytes(offset, length);
    ASSERT_TRUE(got.ok()) << what << ": " << got.error().message;
    ASSERT_EQ(got->size(), static_cast<std::size_t>(length)) << what;
    EXPECT_EQ(std::memcmp(got->data(), ref.data() + offset, got->size()), 0)
        << what << " at offset " << offset << " length " << length;
}

TEST(StoreScratch, OneThreadAlternatesReadShapesThroughOneScratch) {
    // Every read on this thread runs in the same leased scratch, across
    // stores of different element sizes: each shape must leave nothing
    // behind that the next one trips over.
    constexpr std::int64_t kElem = 256;
    const auto data = random_bytes(kElem * 18 * 6 + 100, 91);
    StripeStore healthy(make_scheme("rs:6,3", LayoutKind::ecfrm), kElem);
    ASSERT_TRUE(healthy.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(healthy.flush().ok());
    StripeStore degraded(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), kElem);
    ASSERT_TRUE(degraded.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(degraded.flush().ok());
    ASSERT_TRUE(degraded.fail_disk(3).ok());

    const auto total = static_cast<std::int64_t>(data.size());
    const std::int64_t elements = total / kElem;
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
        switch (i % 5) {
            case 0: {  // one whole element
                const auto e = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(elements)));
                expect_bytes(healthy, data, e * kElem, kElem, "1-element");
                break;
            }
            case 1: {  // twenty whole elements, into a caller buffer
                const auto e =
                    static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(elements - 20)));
                std::vector<std::uint8_t> out(static_cast<std::size_t>(20 * kElem));
                ASSERT_TRUE(healthy.read_elements(e, 20, ByteSpan(out.data(), out.size())).ok());
                EXPECT_EQ(std::memcmp(out.data(), data.data() + e * kElem, out.size()), 0)
                    << "20-element read at element " << e;
                break;
            }
            case 2: {  // unaligned: partial head and tail elements
                const auto off = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(total - 1)));
                const auto len = 1 + static_cast<std::int64_t>(rng.next_below(
                                         static_cast<std::uint64_t>(std::min<std::int64_t>(total - off, 9 * kElem))));
                expect_bytes(healthy, data, off, len, "unaligned");
                break;
            }
            case 3: {  // degraded, unaligned: decodes into the caller's buffer
                const auto off = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(total - 1)));
                const auto len = 1 + static_cast<std::int64_t>(rng.next_below(
                                         static_cast<std::uint64_t>(std::min<std::int64_t>(total - off, 20 * kElem))));
                expect_bytes(degraded, data, off, len, "degraded");
                break;
            }
            case 4: {  // a disk fail-stops on its second read: replan mid-fetch
                FaultPlan plan;
                FaultRule stop;
                stop.kind = FaultKind::fail_stop;
                stop.disk = static_cast<DiskId>(i % 9);
                stop.op = FaultOp::read;
                stop.first_op = 1;
                plan.rules = {stop};
                FaultyFixture f("rs:6,3", plan, RecoveryOptions{});
                expect_bytes(*f.store, f.data, 0, static_cast<std::int64_t>(f.data.size()),
                             "fail-stop replan");
                EXPECT_GE(f.counter("ecfrm_store_replans_total"), 1) << "disk " << stop.disk;
                break;
            }
        }
    }
}

TEST(StoreScratch, ConcurrentHedgedReadersKeepTheirOwnScratch) {
    // Four readers on a pooled store whose disk 0 sometimes stalls past
    // the hedge deadline: hedged rounds orphan straggling queues on the
    // pool while each reader's scratch moves on to its next request.
    FaultPlan plan;
    plan.seed = 17;
    FaultRule slow;
    slow.kind = FaultKind::latency;
    slow.disk = 0;
    slow.op = FaultOp::read;
    slow.count = 1'000'000;
    slow.probability = 0.25;
    slow.latency_ms = 15.0;
    plan.rules = {slow};
    RecoveryOptions recovery;
    recovery.hedge_ms = 3.0;
    ThreadPool pool(4);
    FaultyFixture f("rs:6,3", plan, recovery, &pool, 256);

    const auto total = static_cast<std::int64_t>(f.data.size());
    std::atomic<int> wrong{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(100 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < 24; ++i) {
                const std::int64_t len =
                    i % 3 == 0 ? 256 : i % 3 == 1 ? 20 * 256
                                                  : 1 + static_cast<std::int64_t>(rng.next_below(3000));
                const auto off = static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(total - len + 1)));
                auto got = f.store->read_bytes(off, len);
                if (!got.ok() || got->size() != static_cast<std::size_t>(len) ||
                    std::memcmp(got->data(), f.data.data() + off, got->size()) != 0) {
                    wrong.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& r : readers) r.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_GE(f.counter("ecfrm_store_hedged_reads_total"), 1);
}

// ---- Rebuild through the read engine ----------------------------------

/// Store over in-memory Disks behind FaultDevices driven by `plan` (empty:
/// no faults), optionally pooled, with the Disks kept reachable so a test
/// can read a disk's raw rows.
struct RebuildFixture {
    static constexpr std::int64_t kElem = 64;

    std::unique_ptr<ThreadPool> pool;  // outlives the store
    std::unique_ptr<StripeStore> store;
    obs::MetricRegistry metrics;
    std::vector<Disk*> disks;
    std::vector<std::uint8_t> data;

    RebuildFixture(const std::string& spec, LayoutKind kind, int pool_threads,
                   const FaultPlan& plan = {}, const RecoveryOptions& recovery = {}) {
        if (pool_threads > 0) pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(pool_threads));
        auto opened = StripeStore::open(
            make_scheme(spec, kind), kElem,
            [&](int index) -> Result<std::unique_ptr<BlockDevice>> {
                auto disk = std::make_unique<Disk>(kElem);
                disks.push_back(disk.get());
                return std::unique_ptr<BlockDevice>(
                    std::make_unique<FaultDevice>(std::move(disk), plan, index));
            },
            pool.get());
        EXPECT_TRUE(opened.ok());
        store = std::move(opened).take();
        store->set_recovery(recovery);
        // Five full stripes and a padded sixth.
        data = random_bytes(static_cast<std::size_t>(kElem * store->scheme().layout().data_per_stripe() * 5 + 100),
                            91);
        EXPECT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
        EXPECT_TRUE(store->flush().ok());
        store->attach_observability(&metrics);
    }

    ~RebuildFixture() {
        if (store != nullptr) store->attach_observability(nullptr);
    }

    /// Every row of `disk` as stored; an empty row was never written.
    std::vector<std::vector<std::uint8_t>> raw_rows(DiskId disk, RowId rows) const {
        std::vector<std::vector<std::uint8_t>> out(static_cast<std::size_t>(rows));
        for (RowId r = 0; r < rows; ++r) {
            std::vector<std::uint8_t> row(static_cast<std::size_t>(kElem));
            if (disks[static_cast<std::size_t>(disk)]->read(r, ByteSpan(row.data(), row.size())).ok()) {
                out[static_cast<std::size_t>(r)] = std::move(row);
            }
        }
        return out;
    }

    RowId rows() const { return store->scheme().rows_for(static_cast<StripeId>(6)); }

    void expect_intact() {
        EXPECT_TRUE(store->failed_disks().empty());
        EXPECT_TRUE(store->verify_parity().ok());
        auto out = store->read_bytes(0, static_cast<std::int64_t>(data.size()));
        ASSERT_TRUE(out.ok()) << out.error().message;
        EXPECT_EQ(out.value(), data);
    }
};

struct RebuildParam {
    const char* spec;
    LayoutKind kind;
    int pool_threads;
};

class StoreRebuild : public ::testing::TestWithParam<RebuildParam> {};

TEST_P(StoreRebuild, UnevenChunksRestoreTheDiskByteForByte) {
    const auto [spec, kind, pool_threads] = GetParam();
    RebuildFixture f(spec, kind, pool_threads);
    const core::Scheme& scheme = f.store->scheme();
    const DiskId disk = 1;
    const RowId rows = f.rows();
    const auto before = f.raw_rows(disk, rows);
    for (const auto& row : before) ASSERT_FALSE(row.empty());

    // The fetch count of the row-range plans of [first, first + n), one
    // per rebuild round: the round rebuild_rows documents.
    core::PlanScratch scratch;
    core::AccessPlan plan;
    const RowId rows_per_stripe = scheme.layout().rows_per_stripe();
    auto planned_reads = [&](RowId first, RowId n) {
        std::int64_t fetches = 0;
        for (RowId row = first; row < first + n;) {
            const RowId end = std::min(
                first + n, (row / rows_per_stripe + f.store->rebuild_round_stripes()) * rows_per_stripe);
            EXPECT_TRUE(core::plan_reconstruction(scheme, disk, row, end - row, {}, scratch, plan).ok());
            fetches += plan.total_fetched();
            row = end;
        }
        return fetches;
    };
    for (const RowId chunk : {RowId{1}, RowId{7}, rows}) {
        ASSERT_TRUE(f.store->fail_disk(disk).ok());
        ASSERT_TRUE(f.store->begin_rebuild(disk).ok());
        auto target = f.store->rebuild_target_rows(disk);
        ASSERT_TRUE(target.ok());
        ASSERT_EQ(target.value(), rows);
        std::int64_t read = 0;
        for (RowId first = 0; first < rows; first += chunk) {
            const RowId n = std::min(chunk, rows - first);
            auto stats = f.store->rebuild_rows(disk, first, n);
            ASSERT_TRUE(stats.ok()) << stats.error().message;
            EXPECT_EQ(stats->elements_rebuilt, n);
            // The rebuild reads exactly what the row-range plans fetch.
            EXPECT_EQ(stats->elements_read, planned_reads(first, n)) << "chunk " << chunk << " row " << first;
            read += stats->elements_read;
        }
        ASSERT_TRUE(f.store->finish_rebuild(disk).ok());
        EXPECT_EQ(f.raw_rows(disk, rows), before) << "chunk " << chunk;
        if (std::string(spec) == "rs:6,3") {
            EXPECT_EQ(read, 6 * rows);  // k sources per element
        }
        f.expect_intact();
    }
}

TEST_P(StoreRebuild, EachRoundIsOneTracedRebuildRequest) {
    const auto [spec, kind, pool_threads] = GetParam();
    RebuildFixture f(spec, kind, pool_threads);
    const core::Scheme& scheme = f.store->scheme();
    obs::ForensicsOptions opts;
    opts.slow_threshold_us = 0.0;  // capture every round
    opts.max_exemplars = 1024;
    obs::RequestForensics forensics(opts);
    f.store->attach_observability(&f.metrics, &forensics);

    const DiskId disk = 1;
    const RowId rows = f.rows();
    const RowId rows_per_stripe = scheme.layout().rows_per_stripe();
    ASSERT_TRUE(f.store->fail_disk(disk).ok());
    ASSERT_TRUE(f.store->begin_rebuild(disk).ok());
    // Each round's source queues: one per disk its row-range plan reads.
    std::vector<int> queues;
    core::PlanScratch scratch;
    core::AccessPlan plan;
    for (RowId first = 0; first < rows; first += 7) {
        const RowId n = std::min<RowId>(7, rows - first);
        for (RowId row = first; row < first + n;) {
            const RowId end = std::min(
                first + n, (row / rows_per_stripe + f.store->rebuild_round_stripes()) * rows_per_stripe);
            ASSERT_TRUE(core::plan_reconstruction(scheme, disk, row, end - row, {}, scratch, plan).ok());
            queues.push_back(plan.fanout());
            row = end;
        }
        ASSERT_TRUE(f.store->rebuild_rows(disk, first, n).ok());
    }
    ASSERT_TRUE(f.store->finish_rebuild(disk).ok());
    f.store->attach_observability(&f.metrics);

    EXPECT_EQ(forensics.finished_total(obs::RequestClass::rebuild),
              static_cast<std::int64_t>(queues.size()));
    const auto traces = forensics.exemplars();
    ASSERT_EQ(traces.size(), queues.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const obs::RequestTrace& rt = *traces[i];
        EXPECT_EQ(rt.cls(), obs::RequestClass::rebuild);
        EXPECT_TRUE(rt.ok());
        double phases = 0.0;
        std::vector<std::string> names;
        for (const auto& [name, us] : rt.phase_totals()) {
            phases += us;
            names.push_back(name);
        }
        EXPECT_EQ(names, (std::vector<std::string>{"plan", "fetch", "decode", "write"}));
        EXPECT_NEAR(phases, rt.dur_us(), 1e-3) << "round " << i;
        int batches = 0;
        for (const obs::SpanNode& node : rt.nodes()) batches += node.name == "disk.batch" ? 1 : 0;
        EXPECT_EQ(batches, queues[i]) << "round " << i;
    }
    f.expect_intact();
}

INSTANTIATE_TEST_SUITE_P(
    Codes, StoreRebuild,
    ::testing::Values(RebuildParam{"rs:6,3", LayoutKind::ecfrm, 0},
                      RebuildParam{"rs:6,3", LayoutKind::standard, 0},
                      RebuildParam{"lrc:6,2,2", LayoutKind::ecfrm, 0},
                      RebuildParam{"lrc:6,2,2", LayoutKind::standard, 0},
                      RebuildParam{"hhxor:6,4", LayoutKind::ecfrm, 0},
                      RebuildParam{"hhxor:6,4", LayoutKind::standard, 0},
                      RebuildParam{"rs:6,3", LayoutKind::ecfrm, 2},
                      RebuildParam{"lrc:6,2,2", LayoutKind::standard, 2},
                      RebuildParam{"hhxor:6,4", LayoutKind::ecfrm, 2}));

class StoreRebuildFaults : public ::testing::TestWithParam<int> {};

TEST_P(StoreRebuildFaults, SourceDiskFailingMidChunkIsPlannedAround) {
    // Disk 5 fail-stops on its fourth read, inside the first chunk's
    // batch to it: RS(6,3) tolerates losing it beside the target, so the
    // round replans around it and the rebuild completes.
    FaultPlan plan;
    FaultRule stop;
    stop.kind = FaultKind::fail_stop;
    stop.disk = 5;
    stop.op = FaultOp::read;
    stop.first_op = 3;
    plan.rules = {stop};
    RebuildFixture f("rs:6,3", LayoutKind::ecfrm, GetParam(), plan);
    const DiskId disk = 2;
    const RowId rows = f.rows();
    const auto before = f.raw_rows(disk, rows);

    ASSERT_TRUE(f.store->fail_disk(disk).ok());
    ASSERT_TRUE(f.store->begin_rebuild(disk).ok());
    for (RowId first = 0; first < rows; first += 7) {
        auto stats = f.store->rebuild_rows(disk, first, 7);
        ASSERT_TRUE(stats.ok()) << stats.error().message;
    }
    ASSERT_TRUE(f.store->finish_rebuild(disk).ok());
    EXPECT_GE(f.metrics.counter("ecfrm_store_replans_total").value(), 1);
    EXPECT_EQ(f.raw_rows(disk, rows), before);

    EXPECT_EQ(f.store->failed_disks(), std::vector<DiskId>{5});
    ASSERT_TRUE(f.store->reconstruct_disk(5).ok());
    f.expect_intact();
}

TEST_P(StoreRebuildFaults, LossBeyondToleranceMidChunkFailsTyped) {
    // Disks 3 and 4 are down beside the target, so each row needs all six
    // survivors. Disk 5's fourth read fails (no retries): the round cannot
    // be replanned around four lost disks and fails typed, having written
    // only rows it rebuilt correctly.
    FaultPlan plan;
    FaultRule eio;
    eio.kind = FaultKind::transient;
    eio.disk = 5;
    eio.op = FaultOp::read;
    eio.first_op = 3;
    plan.rules = {eio};
    RecoveryOptions recovery;
    recovery.max_retries = 0;
    RebuildFixture f("rs:6,3", LayoutKind::ecfrm, GetParam(), plan, recovery);
    const DiskId disk = 2;
    const RowId rows = f.rows();
    const auto before = f.raw_rows(disk, rows);

    for (DiskId d : {3, 4, 2}) ASSERT_TRUE(f.store->fail_disk(d).ok());
    ASSERT_TRUE(f.store->begin_rebuild(disk).ok());
    std::optional<Error> failure;
    for (RowId first = 0; first < rows && !failure.has_value(); first += 2) {
        auto stats = f.store->rebuild_rows(disk, first, 2);
        if (!stats.ok()) failure = stats.error();
    }
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->code, Error::Code::beyond_tolerance) << failure->message;
    const auto after = f.raw_rows(disk, rows);
    int written = 0;
    for (RowId r = 0; r < rows; ++r) {
        const auto& row = after[static_cast<std::size_t>(r)];
        if (row.empty()) continue;
        ++written;
        EXPECT_EQ(row, before[static_cast<std::size_t>(r)]) << "row " << r;
    }
    EXPECT_GT(written, 0);      // the chunks before the fault landed
    EXPECT_LT(written, rows);   // the failing one did not
    ASSERT_TRUE(f.store->abort_rebuild(disk).ok());

    // The fault was transient: every disk's data survives, so the array heals.
    for (DiskId d : {2, 3, 4}) ASSERT_TRUE(f.store->reconstruct_disk(d).ok());
    f.expect_intact();
}

INSTANTIATE_TEST_SUITE_P(PoolThreads, StoreRebuildFaults, ::testing::Values(0, 2));

}  // namespace
}  // namespace ecfrm::store

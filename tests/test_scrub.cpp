// Scrubbing: silent-corruption detection, identification and repair via
// parity hypothesis testing.
#include <gtest/gtest.h>

#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"

namespace ecfrm::store {
namespace {

using layout::LayoutKind;

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> data(size);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    return data;
}

struct ScrubParam {
    const char* spec;
    LayoutKind kind;
};

class ScrubTest : public ::testing::TestWithParam<ScrubParam> {};

TEST_P(ScrubTest, CleanStoreScrubsClean) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 60, 1);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    auto report = store.scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean());
    EXPECT_GT(report->groups_scanned, 0);
    EXPECT_EQ(report->elements_repaired, 0);
}

TEST_P(ScrubTest, RepairsSingleCorruptDataElement) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 60, 2);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    // Corrupt the home slot of logical element 7.
    const Location loc = store.scheme().layout().locate_data(7);
    ASSERT_TRUE(store.corrupt_element(loc.disk, loc.row, 13).ok());

    // The corruption is silent: a plain read returns wrong bytes.
    auto bad = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(bad.ok());
    EXPECT_NE(bad.value(), data);

    auto report = store.scrub();
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report->groups_inconsistent, 1);
    EXPECT_EQ(report->elements_repaired, 1);
    EXPECT_EQ(report->unrecoverable_groups, 0);

    auto good = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), data);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST_P(ScrubTest, RepairsCorruptParityElement) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 60, 3);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    // Corrupt a parity slot (position k of group 0, stripe 0).
    const int k = store.scheme().code().k();
    const Location loc = store.scheme().layout().locate({0, 0, k});
    ASSERT_TRUE(store.corrupt_element(loc.disk, loc.row, 0).ok());
    EXPECT_FALSE(store.verify_parity().ok());

    auto report = store.scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->elements_repaired, 1);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST_P(ScrubTest, CorruptionsInDistinctGroupsAllRepaired) {
    const auto [spec, kind] = GetParam();
    StripeStore store(make_scheme(spec, kind), 64);
    const auto data = random_bytes(64 * 120, 4);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    // One corruption in each of three different groups (elements far
    // apart are guaranteed distinct groups).
    const auto& lay = store.scheme().layout();
    const std::int64_t per_group = store.scheme().code().k();
    for (ElementId e : {ElementId{0}, per_group, 2 * per_group}) {
        const Location loc = lay.locate_data(e);
        ASSERT_TRUE(store.corrupt_element(loc.disk, loc.row, 5).ok());
    }

    auto report = store.scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->groups_inconsistent, 3);
    EXPECT_EQ(report->elements_repaired, 3);

    auto good = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), data);
}

INSTANTIATE_TEST_SUITE_P(SchemesAndLayouts, ScrubTest,
                         ::testing::Values(ScrubParam{"rs:6,3", LayoutKind::standard},
                                           ScrubParam{"rs:6,3", LayoutKind::ecfrm},
                                           ScrubParam{"lrc:6,2,2", LayoutKind::standard},
                                           ScrubParam{"lrc:6,2,2", LayoutKind::ecfrm},
                                           ScrubParam{"rs:8,4", LayoutKind::rotated}));

TEST(Scrub, RequiresAllDisksOnline) {
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
    const auto data = random_bytes(64 * 36, 5);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());
    ASSERT_TRUE(store.fail_disk(1).ok());
    EXPECT_FALSE(store.scrub().ok());
}

TEST(Scrub, MassiveDamageIsReportedUnrecoverable) {
    // Corrupt many elements of ONE group: no single-element hypothesis can
    // restore consistency; the scrubber must say so rather than "fix" it.
    StripeStore store(make_scheme("rs:6,3", LayoutKind::standard), 64);
    const auto data = random_bytes(64 * 36, 6);
    ASSERT_TRUE(store.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(store.flush().ok());

    for (int p = 0; p < 4; ++p) {
        const Location loc = store.scheme().layout().locate({0, 0, p});
        // Distinct byte offsets so the damage cannot cancel symmetrically.
        ASSERT_TRUE(store.corrupt_element(loc.disk, loc.row, static_cast<std::size_t>(p)).ok());
    }
    auto report = store.scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->unrecoverable_groups, 1);
    EXPECT_EQ(report->elements_repaired, 0);
}

// ------------------------------------------------ scans under read faults --

constexpr std::int64_t kFaultElem = 64;
constexpr DiskId kFaultyDisk = 2;

/// An RS(6,3) EC-FRM store of four stripes on FaultDevices that inject
/// `kind` into reads [first_read, first_read + reads) of kFaultyDisk.
/// Writes are never faulted, so the faults land in the scan's reads.
std::unique_ptr<StripeStore> store_with_read_faults(FaultKind kind, std::int64_t first_read,
                                                    std::int64_t reads) {
    FaultRule rule;
    rule.kind = kind;
    rule.disk = kFaultyDisk;
    rule.op = FaultOp::read;
    rule.first_op = first_read;
    rule.count = reads;
    FaultPlan plan;
    plan.seed = 11;
    plan.rules = {rule};
    auto opened = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), kFaultElem,
                                    faulty_memory_factory(kFaultElem, plan));
    EXPECT_TRUE(opened.ok());
    if (!opened.ok()) return nullptr;
    auto store = std::move(opened).take();
    const auto data = random_bytes(static_cast<std::size_t>(4 * store->stripe_data_bytes()), 7);
    EXPECT_TRUE(store->append(ConstByteSpan(data.data(), data.size())).ok());
    EXPECT_TRUE(store->flush().ok());
    return store;
}

TEST(ScrubFaults, TransientReadBurstIsRetriedNotFatal) {
    // A burst of two failing reads on one disk, within the default two
    // retries: the scan retries them like any read and audits clean.
    for (const bool scrub : {false, true}) {
        SCOPED_TRACE(scrub ? "scrub" : "verify_parity");
        auto store = store_with_read_faults(FaultKind::transient, 1, 2);
        ASSERT_NE(store, nullptr);
        obs::MetricRegistry metrics;
        store->attach_observability(&metrics);
        if (scrub) {
            auto report = store->scrub();
            ASSERT_TRUE(report.ok()) << report.error().message;
            EXPECT_TRUE(report->clean());
            EXPECT_EQ(report->groups_scanned, 4 * store->scheme().layout().groups_per_stripe());
        } else {
            const Status parity = store->verify_parity();
            EXPECT_TRUE(parity.ok()) << parity.error().message;
        }
        EXPECT_EQ(metrics.counter("ecfrm_store_retries_total").value(), 2);
        store->attach_observability(nullptr);
    }
}

TEST(ScrubFaults, PersistentReadErrorMidScanIsATypedError) {
    // The faulty disk answers its first three reads, then never again:
    // the scan has audited some groups when its retries run out, and
    // must fail with the device's kind of error instead of reporting
    // clean.
    struct Case {
        FaultKind kind;
        Error::Code code;
    };
    for (const Case c : {Case{FaultKind::transient, Error::Code::io_error},
                         Case{FaultKind::fail_stop, Error::Code::disk_failed}}) {
        SCOPED_TRACE(to_string(c.kind));
        for (const bool scrub : {false, true}) {
            SCOPED_TRACE(scrub ? "scrub" : "verify_parity");
            auto store = store_with_read_faults(c.kind, 3, 1'000'000'000);
            ASSERT_NE(store, nullptr);
            Status scanned = Status::success();
            if (scrub) {
                auto report = store->scrub();
                if (!report.ok()) scanned = report.error();
            } else {
                scanned = store->verify_parity();
            }
            ASSERT_FALSE(scanned.ok());
            EXPECT_EQ(scanned.error().code, c.code) << scanned.error().message;
            EXPECT_NE(scanned.error().message.find("disk " + std::to_string(kFaultyDisk)),
                      std::string::npos)
                << scanned.error().message;
        }
    }
}

}  // namespace
}  // namespace ecfrm::store

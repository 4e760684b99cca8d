// EcPipeline: online-encode append path (deferred commits through the
// store's tail, background parity, watermark backpressure, retried
// encodes) and the policy-driven repair scheduler, all byte-verified
// against the underlying StripeStore.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "store/disk.h"
#include "store/ec_pipeline.h"
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

void expect_store_matches(StripeStore& store, const std::vector<std::uint8_t>& data) {
    auto out = store.read_bytes(0, static_cast<std::int64_t>(data.size()));
    ASSERT_TRUE(out.ok()) << out.error().message;
    EXPECT_EQ(out.value(), data);
}

TEST(WritePipeline, ParseRepairPolicyRoundTrip) {
    for (RepairPolicy p :
         {RepairPolicy::immediate, RepairPolicy::delayed, RepairPolicy::threshold}) {
        auto parsed = parse_repair_policy(repair_policy_name(p));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), p);
    }
    auto bad = parse_repair_policy("asap");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Error::Code::invalid_argument);
}

TEST(WritePipeline, AppendFlushByteRoundTrip) {
    // Irregular append sizes straddling stripe boundaries; after flush the
    // store is byte-identical, fully encoded and parity-consistent.
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    EcPipeline pipeline(store, &pool);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 9 + 113, 7);
    Rng rng(11);
    std::size_t off = 0;
    while (off < data.size()) {
        const std::size_t n =
            std::min(data.size() - off, static_cast<std::size_t>(rng.next_range(1, 700)));
        ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data() + off, n)).ok());
        off += n;
    }
    ASSERT_TRUE(pipeline.flush().ok());

    EXPECT_EQ(store.unencoded_stripes(), 0);
    EXPECT_TRUE(store.verify_parity().ok());
    expect_store_matches(store, data);

    const auto s = pipeline.snapshot();
    EXPECT_EQ(s.pending_stripes, 0u);
    EXPECT_EQ(s.encoded_stripes + s.sync_encodes, 10);  // 9 full + padded tail
}

TEST(WritePipeline, CommittedPrefixReadableBeforeQuiesce) {
    // The online-encode contract: full stripes are readable the moment
    // their data-only commit lands, parity or not.
    ThreadPool pool(2);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    EcPipeline pipeline(store, &pool);

    const std::size_t stripe = static_cast<std::size_t>(store.stripe_data_bytes());
    const auto data = random_bytes(stripe * 4, 8);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());

    ASSERT_EQ(store.committed_bytes(), static_cast<std::int64_t>(data.size()));
    expect_store_matches(store, data);
    ASSERT_TRUE(pipeline.quiesce().ok());
    EXPECT_EQ(store.unencoded_stripes(), 0);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST(WritePipeline, NullPoolEncodesSynchronously) {
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64);
    EcPipeline pipeline(store, nullptr);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 5, 9);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());

    const auto s = pipeline.snapshot();
    EXPECT_EQ(s.sync_encodes, 5);
    EXPECT_EQ(s.encoded_stripes, 0);
    EXPECT_EQ(s.pending_stripes, 0u);
    EXPECT_EQ(store.unencoded_stripes(), 0);
    expect_store_matches(store, data);
}

TEST(WritePipeline, WatermarkZeroForcesEverySyncEncode) {
    // max_pending_stripes = 0: the backlog is never allowed to grow, so
    // every commit pays its encode inline even with a pool attached.
    ThreadPool pool(2);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    PipelineOptions opts;
    opts.max_pending_stripes = 0;
    EcPipeline pipeline(store, &pool, opts);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 6, 10);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());

    const auto s = pipeline.snapshot();
    EXPECT_EQ(s.sync_encodes, 6);
    EXPECT_EQ(s.encoded_stripes, 0);
    EXPECT_EQ(store.unencoded_stripes(), 0);
    EXPECT_TRUE(store.verify_parity().ok());
}

/// A store whose disk 0 tears its first write, with retries off, so the
/// first stripe commit fails and every later one lands.
std::unique_ptr<StripeStore> store_tearing_first_write() {
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
    EXPECT_TRUE(opened.ok());
    auto store = std::move(opened).take();
    RecoveryOptions recovery;
    recovery.max_retries = 0;
    store->set_recovery(recovery);
    return store;
}

TEST(WritePipeline, FailedFlushKeepsTheTailForARetry) {
    auto store = store_tearing_first_write();
    EcPipeline pipeline(*store, nullptr);

    const auto data = random_bytes(100, 13);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    EXPECT_FALSE(pipeline.flush().ok());
    ASSERT_TRUE(pipeline.flush().ok());

    EXPECT_EQ(store->logical_bytes(), 100);
    EXPECT_EQ(store->committed_bytes(), 100);
    expect_store_matches(*store, data);
}

TEST(WritePipeline, FailedAppendCommitKeepsItsBytes) {
    auto store = store_tearing_first_write();
    EcPipeline pipeline(*store, nullptr);

    const auto data = random_bytes(static_cast<std::size_t>(store->stripe_data_bytes()) + 10, 14);
    EXPECT_FALSE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(pipeline.flush().ok());

    EXPECT_EQ(store->logical_bytes(), static_cast<std::int64_t>(data.size()));
    EXPECT_EQ(store->committed_bytes(), static_cast<std::int64_t>(data.size()));
    expect_store_matches(*store, data);
}

TEST(WritePipeline, FailedParityEncodeIsRetried) {
    // One transient fault, retries off, on the first parity write of the
    // disk holding stripe 0's first parity. Pool-less, the stripe commits
    // inline and the fault fails the whole commit: nothing is committed
    // and the bytes stay in the tail. Pooled, the stripe commits deferred
    // and the pool's encode fails: the stripe stays pending. Either way
    // the next flush lands it, and a repair then runs.
    for (const int threads : {0, 2}) {
        SCOPED_TRACE(threads == 0 ? "no pool" : "pool of 2");
        // A clean twin commits stripe 0 deferred (data only): the victim's
        // write ops so far are the index of its first parity write.
        DiskId victim = -1;
        std::vector<std::uint8_t> data;
        std::int64_t data_ops = 0;
        {
            obs::MetricRegistry probe("test");
            StripeStore twin(make_scheme("rs:6,3", LayoutKind::ecfrm), 64);
            victim = twin.scheme().layout().locate({0, 0, twin.scheme().code().k()}).disk;
            data = random_bytes(static_cast<std::size_t>(twin.stripe_data_bytes()), 21);
            twin.attach_observability(&probe);
            const StripeStore::CommitHook deferred{1, {}};
            ASSERT_TRUE(twin.append(ConstByteSpan(data.data(), data.size()), &deferred).ok());
            ASSERT_EQ(twin.unencoded_stripes(), 1);
            data_ops = probe.counter("ecfrm_disk_write_ops_total",
                                     {{"disk", std::to_string(victim)}})
                           .value();
            twin.attach_observability(nullptr);
        }

        FaultPlan plan;
        FaultRule transient;
        transient.kind = FaultKind::transient;
        transient.op = FaultOp::write;
        transient.disk = victim;
        transient.first_op = data_ops;
        transient.count = 1;
        plan.rules = {transient};
        auto opened = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
                                        faulty_memory_factory(64, plan));
        ASSERT_TRUE(opened.ok());
        auto store = std::move(opened).take();
        RecoveryOptions recovery;
        recovery.max_retries = 0;
        store->set_recovery(recovery);
        std::unique_ptr<ThreadPool> pool =
            threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr;
        EcPipeline pipeline(*store, pool.get());

        const Status appended = pipeline.append(ConstByteSpan(data.data(), data.size()));
        if (pool == nullptr) {
            EXPECT_FALSE(appended.ok());
            EXPECT_EQ(store->committed_bytes(), 0);
        } else {
            EXPECT_TRUE(appended.ok());
        }
        ASSERT_TRUE(pipeline.flush().ok());
        EXPECT_EQ(store->unencoded_stripes(), 0);
        EXPECT_EQ(pipeline.snapshot().encoded_stripes, 0);  // the pool's encode failed
        expect_store_matches(*store, data);
        EXPECT_TRUE(store->verify_parity().ok());

        ASSERT_TRUE(store->fail_disk(victim).ok());
        ASSERT_TRUE(pipeline.request_repair(victim).ok());
        ASSERT_TRUE(pipeline.wait_repairs().ok());
        EXPECT_TRUE(store->failed_disks().empty());
        expect_store_matches(*store, data);
        EXPECT_TRUE(store->verify_parity().ok());
    }
}

TEST(WritePipeline, DeferredAndInlineCommitsLeaveIdenticalDevices) {
    // The same irregular append sequence through StripeStore::append/flush
    // (every stripe inline) and through a pooled EcPipeline (deferred
    // stripes, parity from the store's kept bytes) must leave every
    // device row identical. The pipeline's store starts with a partial
    // StripeStore::append: the pipeline appends into the same tail.
    std::vector<Disk*> inline_disks;
    std::vector<Disk*> deferred_disks;
    auto factory_into = [](std::vector<Disk*>& disks) {
        return [&disks](int) -> Result<std::unique_ptr<BlockDevice>> {
            auto disk = std::make_unique<Disk>(64);
            disks.push_back(disk.get());
            return std::unique_ptr<BlockDevice>(std::move(disk));
        };
    };
    auto inline_store = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
                                          factory_into(inline_disks));
    auto deferred_store = StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), 64,
                                            factory_into(deferred_disks));
    ASSERT_TRUE(inline_store.ok());
    ASSERT_TRUE(deferred_store.ok());
    StripeStore& a = *inline_store.value();
    StripeStore& b = *deferred_store.value();
    ThreadPool pool(2);
    EcPipeline pipeline(b, &pool);

    const std::size_t stripe = static_cast<std::size_t>(a.stripe_data_bytes());
    const auto data = random_bytes(stripe * 11 + 77, 22);
    const std::size_t head = stripe / 3;
    ASSERT_TRUE(a.append(ConstByteSpan(data.data(), head)).ok());
    ASSERT_TRUE(b.append(ConstByteSpan(data.data(), head)).ok());
    Rng rng(23);
    for (std::size_t off = head; off < data.size();) {
        const std::size_t n =
            std::min(data.size() - off, static_cast<std::size_t>(rng.next_range(1, 2000)));
        ASSERT_TRUE(a.append(ConstByteSpan(data.data() + off, n)).ok());
        ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data() + off, n)).ok());
        off += n;
    }
    ASSERT_TRUE(a.flush().ok());
    ASSERT_TRUE(pipeline.flush().ok());
    EXPECT_GT(pipeline.snapshot().encoded_stripes, 0);
    EXPECT_EQ(b.unencoded_stripes(), 0);

    ASSERT_EQ(inline_disks.size(), deferred_disks.size());
    for (std::size_t d = 0; d < inline_disks.size(); ++d) {
        const RowId rows = inline_disks[d]->rows();
        ASSERT_EQ(deferred_disks[d]->rows(), rows) << "disk " << d;
        std::vector<std::uint8_t> want(64);
        std::vector<std::uint8_t> got(64);
        for (RowId r = 0; r < rows; ++r) {
            ASSERT_TRUE(inline_disks[d]->read(r, ByteSpan(want.data(), want.size())).ok());
            ASSERT_TRUE(deferred_disks[d]->read(r, ByteSpan(got.data(), got.size())).ok());
            EXPECT_EQ(got, want) << "disk " << d << " row " << r;
        }
    }
    EXPECT_TRUE(a.verify_parity().ok());
    EXPECT_TRUE(b.verify_parity().ok());
    expect_store_matches(a, data);
    expect_store_matches(b, data);
}

TEST(WritePipeline, ToJsonCarriesSchemaAndPolicy) {
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64);
    PipelineOptions opts;
    opts.repair_policy = RepairPolicy::delayed;
    EcPipeline pipeline(store, nullptr, opts);

    const std::string json = pipeline.to_json();
    EXPECT_NE(json.find("\"schema\":\"ecfrm.pipeline.v1\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"policy\":\"delayed\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"repair\":{"), std::string::npos) << json;
}

TEST(WritePipeline, ObservabilityCountersRegister) {
    ThreadPool pool(2);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    PipelineOptions opts;
    opts.max_pending_stripes = 0;  // deterministic: every encode is sync
    EcPipeline pipeline(store, &pool, opts);
    obs::MetricRegistry registry("test");
    pipeline.attach_observability(&registry);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 3, 12);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(pipeline.flush().ok());

    const std::string json = registry.to_json();
    EXPECT_NE(json.find("ecfrm_pipeline_depth"), std::string::npos);
    EXPECT_NE(json.find("ecfrm_pipeline_sync_encodes_total"), std::string::npos);
    EXPECT_NE(json.find("ecfrm_pipeline_repair_tokens"), std::string::npos);
    pipeline.attach_observability(nullptr);
}

class RepairPolicyTest : public ::testing::TestWithParam<RepairPolicy> {};

TEST_P(RepairPolicyTest, RepairRestoresBytesAndRedundancy) {
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    PipelineOptions opts;
    opts.repair_policy = GetParam();
    opts.repair_delay_seconds = 0.02;       // delayed: short but real gate
    opts.repair_rows_per_second = 50000.0;  // throttled policies still finish fast
    opts.repair_burst_rows = 16.0;
    opts.repair_chunk_rows = 4;
    EcPipeline pipeline(store, &pool, opts);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 12, 13);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(pipeline.flush().ok());

    ASSERT_TRUE(store.fail_disk(2).ok());
    ASSERT_TRUE(pipeline.request_repair(2).ok());
    ASSERT_TRUE(pipeline.wait_repairs().ok());

    EXPECT_TRUE(store.failed_disks().empty());
    EXPECT_TRUE(store.rebuilding_disks().empty());
    expect_store_matches(store, data);
    EXPECT_TRUE(store.verify_parity().ok());

    const auto s = pipeline.snapshot();
    EXPECT_EQ(s.repairs_done, 1);
    EXPECT_EQ(s.repairs_failed, 0);
    EXPECT_GT(s.repair_rows_total, 0);
    EXPECT_EQ(s.repair_rows_done, s.repair_rows_total);
}

INSTANTIATE_TEST_SUITE_P(Policies, RepairPolicyTest,
                         ::testing::Values(RepairPolicy::immediate, RepairPolicy::delayed,
                                           RepairPolicy::threshold),
                         [](const auto& info) {
                             return std::string(repair_policy_name(info.param));
                         });

TEST(WritePipeline, ThresholdRoundRepairsAllQueuedFailures) {
    // min_failed = 2: neither rebuild starts until both disks are down,
    // and the latched round repairs BOTH — the second queued disk must
    // not wait forever for a failure count its own round already spent.
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:6,3", LayoutKind::ecfrm), 64, &pool);
    PipelineOptions opts;
    opts.repair_policy = RepairPolicy::threshold;
    opts.repair_min_failed = 2;
    opts.poll_interval_ms = 0.2;
    EcPipeline pipeline(store, &pool, opts);

    const auto data = random_bytes(static_cast<std::size_t>(store.stripe_data_bytes()) * 8, 14);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(pipeline.flush().ok());

    ASSERT_TRUE(store.fail_disk(1).ok());
    ASSERT_TRUE(pipeline.request_repair(1).ok());
    // One failure: the gate must hold the rebuild back.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pipeline.snapshot().repairs_done, 0);
    EXPECT_EQ(store.failed_disks().size(), 1u);

    ASSERT_TRUE(store.fail_disk(3).ok());
    ASSERT_TRUE(pipeline.request_repair(3).ok());
    ASSERT_TRUE(pipeline.wait_repairs().ok());

    EXPECT_EQ(pipeline.snapshot().repairs_done, 2);
    EXPECT_TRUE(store.failed_disks().empty());
    expect_store_matches(store, data);
    EXPECT_TRUE(store.verify_parity().ok());
}

TEST(WritePipeline, RepairRacesOnlineAppendsAndStaysByteExact) {
    // Appends keep landing while a throttled rebuild runs: new stripes
    // write to the replacement directly and the final state is exact.
    ThreadPool pool(4);
    StripeStore store(make_scheme("rs:4,2", LayoutKind::ecfrm), 64, &pool);
    PipelineOptions opts;
    opts.repair_policy = RepairPolicy::delayed;
    opts.repair_rows_per_second = 4000.0;
    opts.repair_burst_rows = 8.0;
    opts.repair_chunk_rows = 2;
    opts.poll_interval_ms = 0.2;
    EcPipeline pipeline(store, &pool, opts);

    const std::size_t stripe = static_cast<std::size_t>(store.stripe_data_bytes());
    auto data = random_bytes(stripe * 16, 15);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(pipeline.flush().ok());

    ASSERT_TRUE(store.fail_disk(0).ok());
    ASSERT_TRUE(pipeline.request_repair(0).ok());
    // Wait for begin_rebuild so concurrent commits target the replacement.
    while (store.rebuilding_disks().empty() && !store.failed_disks().empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto more = random_bytes(stripe * 6, 16);
    ASSERT_TRUE(pipeline.append(ConstByteSpan(more.data(), more.size())).ok());
    ASSERT_TRUE(pipeline.wait_repairs().ok());
    ASSERT_TRUE(pipeline.flush().ok());

    data.insert(data.end(), more.begin(), more.end());
    EXPECT_TRUE(store.failed_disks().empty());
    EXPECT_TRUE(store.rebuilding_disks().empty());
    expect_store_matches(store, data);
    EXPECT_TRUE(store.verify_parity().ok());
}

}  // namespace
}  // namespace ecfrm::store

// The request-execution engine and the batched device layer underneath it:
//   - vectored read_batch/write_batch on Disk (one lock per batch) and
//     FaultDevice (per-element op accounting preserved so fault schedules
//     replay identically); the file devices' batches live in test_file_io;
//   - AccessPlan::batches(), the schedule model shared by the executor,
//     the simulator and `ecfrm_cli explain`;
//   - exec::PlanExecutor retry/timeout policy;
//   - StripeStore as a concurrent multi-reader: many threads mixing
//     normal and degraded reads, under fault injection, byte-exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "codes/factory.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/read_planner.h"
#include "exec/plan_executor.h"
#include "obs/heat.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "store/disk.h"
#include "store/fault_device.h"
#include "store/stripe_store.h"

namespace ecfrm::exec {
namespace {

using layout::LayoutKind;

core::Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return core::Scheme(code.value(), kind);
}

std::vector<std::uint8_t> element_pattern(std::int64_t elem, RowId row) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(elem));
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(row * 37 + static_cast<std::int64_t>(i));
    }
    return data;
}

// ---------------------------------------------------------------- Disk --

TEST(DiskBatch, MatchesSerialReads) {
    const std::int64_t elem = 32;
    store::Disk disk(elem);
    for (RowId row = 0; row < 10; ++row) {
        const auto data = element_pattern(elem, row);
        ASSERT_TRUE(disk.write(row, ConstByteSpan(data.data(), data.size())).ok());
    }

    // Arbitrary (unsorted, repeated) rows are fine: a batch is just the
    // serial op sequence issued under one lock.
    const std::vector<RowId> rows = {7, 0, 3, 3, 9, 1};
    std::vector<std::vector<std::uint8_t>> bufs(rows.size(),
                                                std::vector<std::uint8_t>(elem));
    std::vector<ByteSpan> outs;
    for (auto& b : bufs) outs.emplace_back(b.data(), b.size());
    std::size_t completed = 0;
    ASSERT_TRUE(disk.read_batch(rows, outs, &completed).ok());
    EXPECT_EQ(completed, rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::uint8_t> serial(static_cast<std::size_t>(elem));
        ASSERT_TRUE(disk.read(rows[i], ByteSpan(serial.data(), serial.size())).ok());
        EXPECT_EQ(bufs[i], serial) << "batch element " << i;
    }
}

TEST(DiskBatch, PartialFailureReportsCompletedPrefix) {
    const std::int64_t elem = 16;
    store::Disk disk(elem);
    for (RowId row = 0; row < 4; ++row) {
        const auto data = element_pattern(elem, row);
        ASSERT_TRUE(disk.write(row, ConstByteSpan(data.data(), data.size())).ok());
    }

    const std::vector<RowId> rows = {0, 1, 42, 2};  // row 42 never written
    std::vector<std::vector<std::uint8_t>> bufs(rows.size(),
                                                std::vector<std::uint8_t>(elem));
    std::vector<ByteSpan> outs;
    for (auto& b : bufs) outs.emplace_back(b.data(), b.size());
    std::size_t completed = 99;
    EXPECT_FALSE(disk.read_batch(rows, outs, &completed).ok());
    EXPECT_EQ(completed, 2u);  // rows 0 and 1 landed before the failure
    EXPECT_EQ(bufs[0], element_pattern(elem, 0));
    EXPECT_EQ(bufs[1], element_pattern(elem, 1));
    // The completed pointer is optional.
    EXPECT_FALSE(disk.read_batch(rows, outs).ok());

    // Size mismatches are rejected up front, before any element moves.
    const std::vector<RowId> one = {0};
    EXPECT_FALSE(disk.read_batch(one, outs, &completed).ok());
    EXPECT_EQ(completed, 0u);
}

TEST(DiskBatch, WriteBatchRoundTrip) {
    const std::int64_t elem = 24;
    store::Disk disk(elem);
    const std::vector<RowId> rows = {5, 1, 2};
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<ConstByteSpan> spans;
    for (RowId row : rows) payloads.push_back(element_pattern(elem, row));
    for (auto& p : payloads) spans.emplace_back(p.data(), p.size());
    std::size_t completed = 0;
    ASSERT_TRUE(disk.write_batch(rows, spans, &completed).ok());
    EXPECT_EQ(completed, rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
        ASSERT_TRUE(disk.read(rows[i], ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(out, payloads[i]);
    }

    disk.fail();
    completed = 99;
    EXPECT_FALSE(disk.write_batch(rows, spans, &completed).ok());
    EXPECT_EQ(completed, 0u);
}

// --------------------------------------------------------- FaultDevice --

/// Issue the rows one by one, recording per-op success/failure.
std::vector<bool> serial_read_outcomes(const store::BlockDevice& device,
                                       const std::vector<RowId>& rows, std::int64_t elem,
                                       std::vector<std::vector<std::uint8_t>>* bytes) {
    std::vector<bool> ok;
    for (RowId row : rows) {
        std::vector<std::uint8_t> buf(static_cast<std::size_t>(elem));
        ok.push_back(device.read(row, ByteSpan(buf.data(), buf.size())).ok());
        bytes->push_back(std::move(buf));
    }
    return ok;
}

/// Issue the rows through read_batch, resuming one element past each
/// failure, so the logical op sequence is identical to the serial loop.
std::vector<bool> batched_read_outcomes(const store::BlockDevice& device,
                                        const std::vector<RowId>& rows, std::int64_t elem,
                                        std::vector<std::vector<std::uint8_t>>* bytes) {
    std::vector<bool> ok(rows.size(), false);
    std::vector<std::vector<std::uint8_t>> bufs(rows.size(),
                                                std::vector<std::uint8_t>(elem));
    std::vector<ByteSpan> outs;
    for (auto& b : bufs) outs.emplace_back(b.data(), b.size());
    std::size_t offset = 0;
    while (offset < rows.size()) {
        std::size_t completed = 0;
        const auto status = device.read_batch(
            std::span<const RowId>(rows).subspan(offset),
            std::span<const ByteSpan>(outs).subspan(offset), &completed);
        for (std::size_t i = 0; i < completed; ++i) ok[offset + i] = true;
        offset += completed;
        if (status.ok()) break;
        ++offset;  // the failed element consumed one op; move past it
    }
    for (auto& b : bufs) bytes->push_back(std::move(b));
    return ok;
}

TEST(FaultDeviceBatch, BatchedOpsReplayTheSerialFaultSchedule) {
    const std::int64_t elem = 32;
    store::FaultPlan plan;
    plan.seed = 77;
    plan.max_burst = 2;
    store::FaultRule eio;
    eio.kind = store::FaultKind::transient;
    eio.op = store::FaultOp::read;
    eio.count = 1'000'000;
    eio.probability = 0.35;
    plan.rules = {eio};

    // Twin devices: same plan, same disk id, same content — so their Rng
    // streams and op counters are identical by construction.
    auto make_device = [&] {
        auto device = std::make_unique<store::FaultDevice>(
            std::make_unique<store::Disk>(elem), plan, /*disk=*/3);
        for (RowId row = 0; row < 16; ++row) {
            const auto data = element_pattern(elem, row);
            EXPECT_TRUE(device->write(row, ConstByteSpan(data.data(), data.size())).ok());
        }
        return device;
    };
    auto serial_device = make_device();
    auto batch_device = make_device();

    std::vector<RowId> rows;
    for (int i = 0; i < 48; ++i) rows.push_back(static_cast<RowId>(i % 16));

    std::vector<std::vector<std::uint8_t>> serial_bytes, batch_bytes;
    const auto serial_ok = serial_read_outcomes(*serial_device, rows, elem, &serial_bytes);
    const auto batch_ok = batched_read_outcomes(*batch_device, rows, elem, &batch_bytes);

    EXPECT_EQ(serial_ok, batch_ok);
    EXPECT_EQ(serial_device->read_ops(), batch_device->read_ops());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (serial_ok[i]) {
            EXPECT_EQ(serial_bytes[i], batch_bytes[i]) << "op " << i;
        }
    }
    // The injected-fault logs agree op for op.
    const auto serial_events = serial_device->events();
    const auto batch_events = batch_device->events();
    ASSERT_EQ(serial_events.size(), batch_events.size());
    ASSERT_GT(serial_events.size(), 0u);  // p=0.35 over 48 ops: effectively certain
    for (std::size_t i = 0; i < serial_events.size(); ++i) {
        EXPECT_EQ(serial_events[i].op, batch_events[i].op);
        EXPECT_EQ(serial_events[i].row, batch_events[i].row);
    }
}

// --------------------------------------------------- AccessPlan batches --

TEST(AccessPlanBatches, PartitionFetchesPerDiskRowSorted) {
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (LayoutKind kind :
             {LayoutKind::standard, LayoutKind::rotated, LayoutKind::ecfrm}) {
            for (bool degraded : {false, true}) {
                SCOPED_TRACE(std::string(spec) + "/" + layout::to_string(kind) +
                             (degraded ? "/degraded" : "/normal"));
                const core::Scheme scheme = make_scheme(spec, kind);
                core::AccessPlan plan(scheme.disks());
                if (degraded) {
                    auto planned = core::plan_degraded_read(scheme, 3, 17, {1},
                                                            core::DegradedPolicy::balance);
                    ASSERT_TRUE(planned.ok());
                    plan = std::move(planned).take();
                } else {
                    plan = core::plan_normal_read(scheme, 3, 17);
                }

                const auto batches = plan.batches();
                // One batch per loaded disk, ascending, sizes matching the
                // per-disk load accounting.
                int loaded = 0;
                for (int load : plan.per_disk_loads()) loaded += load > 0 ? 1 : 0;
                EXPECT_EQ(static_cast<int>(batches.size()), loaded);

                std::set<std::size_t> seen;
                int prev_disk = -1;
                for (const auto& batch : batches) {
                    EXPECT_GT(batch.disk, prev_disk);  // strictly ascending
                    prev_disk = batch.disk;
                    ASSERT_FALSE(batch.fetch_indices.empty());
                    ASSERT_EQ(batch.rows.size(), batch.fetch_indices.size());
                    EXPECT_EQ(static_cast<int>(batch.fetch_indices.size()),
                              plan.per_disk_loads()[static_cast<std::size_t>(batch.disk)]);
                    RowId prev_row = -1;
                    for (std::size_t i = 0; i < batch.fetch_indices.size(); ++i) {
                        const std::size_t fi = batch.fetch_indices[i];
                        ASSERT_LT(fi, plan.fetches().size());
                        const core::Access& a = plan.fetches()[fi];
                        EXPECT_EQ(a.loc.disk, batch.disk);
                        EXPECT_EQ(a.loc.row, batch.rows[i]);
                        EXPECT_GT(a.loc.row, prev_row);  // distinct, row-sorted
                        prev_row = a.loc.row;
                        EXPECT_TRUE(seen.insert(fi).second) << "fetch listed twice";
                    }
                }
                EXPECT_EQ(seen.size(), plan.fetches().size());  // exact cover
            }
        }
    }
}

// ------------------------------------------------------- executor policy --

TEST(PlanExecutorPolicy, RetriesClearTransientErrors) {
    const std::int64_t elem = 32;
    const core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::standard);

    // Deterministic burst: the first two reads EIO, the third succeeds.
    store::FaultPlan plan;
    plan.seed = 5;
    store::FaultRule eio;
    eio.kind = store::FaultKind::transient;
    eio.op = store::FaultOp::read;
    eio.first_op = 0;
    eio.count = 2;
    plan.rules = {eio};

    auto run = [&](int max_retries) {
        store::FaultDevice device(std::make_unique<store::Disk>(elem), plan, 0);
        const auto data = element_pattern(elem, 0);
        EXPECT_TRUE(device.write(0, ConstByteSpan(data.data(), data.size())).ok());
        PlanExecutor executor(&scheme, elem, nullptr);
        executor.bind({&device});
        RecoveryOptions recovery;
        recovery.max_retries = max_retries;
        executor.set_recovery(recovery);
        std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
        return executor.device_read(0, 0, ByteSpan(out.data(), out.size()));
    };

    EXPECT_FALSE(run(/*max_retries=*/1).ok());  // attempts 0,1 both EIO
    EXPECT_TRUE(run(/*max_retries=*/2).ok());   // third attempt lands
}

TEST(PlanExecutorPolicy, SlowOpsSurfaceAsTimeout) {
    const std::int64_t elem = 32;
    const core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::standard);

    store::FaultPlan plan;
    plan.seed = 6;
    store::FaultRule slow;
    slow.kind = store::FaultKind::latency;
    slow.op = store::FaultOp::read;
    slow.count = 1'000'000;
    slow.latency_ms = 50.0;
    plan.rules = {slow};

    store::FaultDevice device(std::make_unique<store::Disk>(elem), plan, 0);
    const auto data = element_pattern(elem, 0);
    ASSERT_TRUE(device.write(0, ConstByteSpan(data.data(), data.size())).ok());
    PlanExecutor executor(&scheme, elem, nullptr);
    executor.bind({&device});
    RecoveryOptions recovery;
    recovery.op_timeout_ms = 1.0;
    executor.set_recovery(recovery);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
    const auto status = executor.device_read(0, 0, ByteSpan(out.data(), out.size()));
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, Error::Code::timeout);
}

// ------------------------------------------------- async submission path --

/// In-memory disk that reports async_reads() and runs a submitted batch's
/// reads in await(), with one injectable mid-batch fault: once armed,
/// read ops [fail_op, fail_op + fail_count) — counted across every read
/// path — fail with `fail_with`. A fail-stop fault (fail_count < 0) keeps
/// failing every read from fail_op on.
class AsyncFaultyDisk final : public store::BlockDevice {
  public:
    explicit AsyncFaultyDisk(std::int64_t elem) : inner_(elem) {}

    void arm(std::int64_t fail_op, std::int64_t fail_count, Error fail_with) {
        fail_op_ = fail_op;
        fail_count_ = fail_count;
        fail_with_ = std::move(fail_with);
        ops_ = 0;
        armed_ = true;
    }
    std::int64_t submits() const { return submits_.load(); }

    std::int64_t element_bytes() const override { return inner_.element_bytes(); }
    Status write(RowId row, ConstByteSpan data) override { return inner_.write(row, data); }
    Status read(RowId row, ByteSpan out) const override {
        const std::int64_t op = ops_.fetch_add(1);
        if (armed_ && op >= fail_op_ && (fail_count_ < 0 || op < fail_op_ + fail_count_)) {
            return fail_with_;
        }
        return inner_.read(row, out);
    }
    std::unique_ptr<AsyncBatch> submit_read_batch(std::span<const RowId> rows,
                                                  std::span<const ByteSpan> outs) const override {
        submits_.fetch_add(1);
        return std::make_unique<Deferred>(*this, rows, outs);
    }
    bool async_reads() const override { return true; }
    void fail() override { inner_.fail(); }
    void replace() override { inner_.replace(); }
    bool failed() const override { return inner_.failed(); }
    RowId rows() const override { return inner_.rows(); }
    Status corrupt_byte(RowId row, std::size_t offset) override {
        return inner_.corrupt_byte(row, offset);
    }

  private:
    class Deferred final : public AsyncBatch {
      public:
        Deferred(const AsyncFaultyDisk& disk, std::span<const RowId> rows,
                 std::span<const ByteSpan> outs)
            : disk_(disk), rows_(rows), outs_(outs) {}
        Status await(std::size_t* completed) override {
            if (completed != nullptr) *completed = 0;
            for (std::size_t i = 0; i < rows_.size(); ++i) {
                auto status = disk_.read(rows_[i], outs_[i]);
                if (!status.ok()) return status;
                if (completed != nullptr) *completed = i + 1;
            }
            return Status::success();
        }

      private:
        const AsyncFaultyDisk& disk_;
        std::span<const RowId> rows_;
        std::span<const ByteSpan> outs_;
    };

    store::Disk inner_;
    bool armed_ = false;
    std::int64_t fail_op_ = 0;
    std::int64_t fail_count_ = 0;
    Error fail_with_ = Error::io("injected");
    mutable std::atomic<std::int64_t> ops_{0};
    mutable std::atomic<std::int64_t> submits_{0};
};

/// What one faulted read over AsyncFaultyDisks left behind.
struct AsyncFaultRun {
    obs::MetricRegistry metrics;
    std::int64_t faulty_submits = 0;
    bool bytes_ok = false;

    std::int64_t counter(const char* name) { return metrics.counter(name).value(); }
};

/// A pool-free store over async devices reads 90 elements, ten per disk,
/// while disk 2 fails its third read op and `fail_count - 1` after it.
void run_async_fault(std::int64_t fail_count, const Error& fail_with, AsyncFaultRun& run) {
    const std::int64_t elem = 64;
    core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    std::vector<AsyncFaultyDisk*> disks(static_cast<std::size_t>(scheme.disks()));
    auto opened = store::StripeStore::open(
        std::move(scheme), elem, [&](int index) -> Result<std::unique_ptr<store::BlockDevice>> {
            auto disk = std::make_unique<AsyncFaultyDisk>(elem);
            disks[static_cast<std::size_t>(index)] = disk.get();
            return std::unique_ptr<store::BlockDevice>(std::move(disk));
        });
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto& st = *opened.value();
    Rng rng(17);
    std::vector<std::uint8_t> data(static_cast<std::size_t>(elem) * 90);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    ASSERT_TRUE(st.append(ConstByteSpan(data.data(), data.size())).ok());
    ASSERT_TRUE(st.flush().ok());
    st.attach_observability(&run.metrics);

    disks[2]->arm(/*fail_op=*/2, fail_count, fail_with);
    auto out = st.read_bytes(0, static_cast<std::int64_t>(data.size()));
    st.attach_observability(nullptr);
    ASSERT_TRUE(out.ok()) << out.error().message;
    run.bytes_ok = out.value() == data;
    run.faulty_submits = disks[2]->submits();
}

TEST(PlanExecutorAsync, MidBatchTransientErrorRetriesSuffixWithoutReplan) {
    // The op fails twice: once inside the async batch, once more on the
    // first re-read, so the suffix recovery must go through the retry
    // policy rather than a plain re-issue.
    AsyncFaultRun run;
    run_async_fault(/*fail_count=*/2, Error::io("injected transient EIO"), run);
    EXPECT_TRUE(run.bytes_ok);
    EXPECT_GE(run.faulty_submits, 1);  // the async submission path ran
    EXPECT_GE(run.counter("ecfrm_store_retries_total"), 1);
    EXPECT_EQ(run.counter("ecfrm_store_replans_total"), 0);
}

TEST(PlanExecutorAsync, MidBatchFailStopReplansAroundTheDisk) {
    AsyncFaultRun run;
    run_async_fault(/*fail_count=*/-1, Error::disk_failed("injected fail-stop"), run);
    EXPECT_TRUE(run.bytes_ok);
    EXPECT_GE(run.faulty_submits, 1);
    EXPECT_GE(run.counter("ecfrm_store_replans_total"), 1);
    EXPECT_GE(run.counter("ecfrm_store_decodes_total"), 1);
}

// ------------------------------------------------- executor write contract --

TEST(PlanExecutorWrite, BatchedWritePlanLandsEveryPayloadByteExact) {
    // One WritePlan fanned across several disks, one payload backing two
    // placements (replication): every placement must land byte-exact and
    // the report must count each element once.
    const std::int64_t elem = 32;
    const core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::standard);
    std::vector<std::unique_ptr<store::Disk>> devices;
    std::vector<store::BlockDevice*> raw;
    for (int d = 0; d < scheme.disks(); ++d) {
        devices.push_back(std::make_unique<store::Disk>(elem));
        raw.push_back(devices.back().get());
    }
    PlanExecutor executor(&scheme, elem, nullptr);
    executor.bind(raw);

    std::vector<std::vector<std::uint8_t>> bufs;
    for (int p = 0; p < 4; ++p) bufs.push_back(element_pattern(elem, p + 1));
    std::vector<ConstByteSpan> payloads;
    for (const auto& b : bufs) payloads.emplace_back(b.data(), b.size());

    core::WritePlan plan(scheme.disks());
    // Payload 0 is replicated onto two disks; the rest place once each,
    // two of them on the same disk so batches() emits a multi-row batch.
    const std::vector<std::pair<Location, std::size_t>> placements = {
        {{0, 0}, 0}, {{3, 5}, 0}, {{1, 2}, 1}, {{1, 7}, 2}, {{4, 1}, 3}};
    for (const auto& [loc, payload] : placements) {
        plan.add_write(core::WriteAccess{loc, {}, payload, false});
    }

    auto report = executor.write(plan, payloads);
    ASSERT_TRUE(report.ok()) << report.error().message;
    EXPECT_EQ(report->elements_written, static_cast<std::int64_t>(placements.size()));
    EXPECT_EQ(report->elements_skipped, 0);

    std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
    for (const auto& [loc, payload] : placements) {
        ASSERT_TRUE(executor.device_read(loc.disk, loc.row, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(std::memcmp(out.data(), bufs[payload].data(), out.size()), 0)
            << "disk " << loc.disk << " row " << loc.row;
    }
}

TEST(PlanExecutorWrite, RetriesRewriteFullPayloadOnTransientErrors) {
    const std::int64_t elem = 32;
    const core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::standard);

    store::FaultPlan fault;
    fault.seed = 7;
    store::FaultRule eio;
    eio.kind = store::FaultKind::transient;
    eio.op = store::FaultOp::write;
    eio.first_op = 0;
    eio.count = 2;
    fault.rules = {eio};

    const auto data = element_pattern(elem, 9);
    const std::vector<ConstByteSpan> payloads{ConstByteSpan(data.data(), data.size())};
    auto run = [&](int max_retries) {
        store::FaultDevice device(std::make_unique<store::Disk>(elem), fault, 0);
        PlanExecutor executor(&scheme, elem, nullptr);
        executor.bind({&device});
        RecoveryOptions recovery;
        recovery.max_retries = max_retries;
        executor.set_recovery(recovery);
        core::WritePlan plan(scheme.disks());
        plan.add_write(core::WriteAccess{{0, 4}, {}, 0, false});
        auto report = executor.write(plan, payloads, {}, /*allow_degraded=*/false);
        if (!report.ok()) return false;
        std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
        EXPECT_TRUE(executor.device_read(0, 4, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(std::memcmp(out.data(), data.data(), out.size()), 0);
        return true;
    };

    EXPECT_FALSE(run(/*max_retries=*/1));  // attempts 0,1 both EIO
    EXPECT_TRUE(run(/*max_retries=*/2));   // third rewrite lands whole
}

TEST(PlanExecutorWrite, DegradedWriteSkipsFailedDeviceAndCountsIt) {
    const std::int64_t elem = 32;
    const core::Scheme scheme = make_scheme("rs:6,3", LayoutKind::standard);
    std::vector<std::unique_ptr<store::Disk>> devices;
    std::vector<store::BlockDevice*> raw;
    for (int d = 0; d < scheme.disks(); ++d) {
        devices.push_back(std::make_unique<store::Disk>(elem));
        raw.push_back(devices.back().get());
    }
    devices[2]->fail();
    PlanExecutor executor(&scheme, elem, nullptr);
    executor.bind(raw);

    const auto data = element_pattern(elem, 3);
    const std::vector<ConstByteSpan> payloads{ConstByteSpan(data.data(), data.size())};
    auto make_plan = [&] {
        core::WritePlan plan(scheme.disks());
        plan.add_write(core::WriteAccess{{1, 0}, {}, 0, false});
        plan.add_write(core::WriteAccess{{2, 0}, {}, 0, false});
        plan.add_write(core::WriteAccess{{3, 0}, {}, 0, false});
        return plan;
    };

    auto degraded = executor.write(make_plan(), payloads);
    ASSERT_TRUE(degraded.ok()) << degraded.error().message;
    EXPECT_EQ(degraded->elements_written, 2);
    EXPECT_EQ(degraded->elements_skipped, 1);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(elem));
    for (DiskId d : {1, 3}) {
        ASSERT_TRUE(executor.device_read(d, 0, ByteSpan(out.data(), out.size())).ok());
        EXPECT_EQ(std::memcmp(out.data(), data.data(), out.size()), 0);
    }

    auto strict = executor.write(make_plan(), payloads, {}, /*allow_degraded=*/false);
    EXPECT_FALSE(strict.ok());
}

// ------------------------------------------------- concurrent multi-reader --

/// The headline concurrency test (run under TSAN in CI): 8 reader threads
/// over a multi-extent store while a chaos thread cycles a disk through
/// fail/reconstruct, so the same instant serves normal reads, degraded
/// reads and reconstruction — under probabilistic transient faults.
TEST(StoreConcurrent, MixedNormalAndDegradedReadersUnderFaults) {
    const std::int64_t elem = 64;
    store::FaultPlan plan;
    plan.seed = 404;
    plan.max_burst = 2;
    store::FaultRule eio;
    eio.kind = store::FaultKind::transient;
    eio.op = store::FaultOp::any;
    eio.count = 1'000'000'000;
    eio.probability = 0.02;
    plan.rules = {eio};

    ThreadPool pool(4);
    auto opened = store::StripeStore::open(make_scheme("rs:6,3", LayoutKind::ecfrm), elem,
                                           store::faulty_memory_factory(elem, plan), &pool);
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    auto& st = *opened.value();
    store::RecoveryOptions recovery;
    recovery.max_retries = 3;
    recovery.batch_elements = 2;  // several vectored calls per queue
    st.set_recovery(recovery);

    // Multi-extent fill: three append+flush runs so reads cross extent
    // boundaries as well as stripe boundaries.
    std::vector<std::uint8_t> reference;
    Rng fill_rng(11);
    for (int run = 0; run < 3; ++run) {
        const std::size_t size = 2000 + run * 700;
        std::vector<std::uint8_t> chunk(size);
        for (auto& b : chunk) b = static_cast<std::uint8_t>(fill_rng.next_below(256));
        ASSERT_TRUE(st.append(ConstByteSpan(chunk.data(), chunk.size())).ok());
        ASSERT_TRUE(st.flush().ok());
        reference.insert(reference.end(), chunk.begin(), chunk.end());
    }
    const auto committed = static_cast<std::int64_t>(reference.size());
    ASSERT_EQ(st.committed_bytes(), committed);

    // Baseline degradation: disk 1 is down for the whole run, so even the
    // "quiet" phases are degraded reads.
    ASSERT_TRUE(st.fail_disk(1).ok());

    const int kThreads = 8;
    const int kReadsPerThread = 40;
    std::atomic<int> mismatches{0};
    std::atomic<int> read_errors{0};
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(1000 + static_cast<std::uint64_t>(t));
            for (int r = 0; r < kReadsPerThread; ++r) {
                const std::int64_t offset = static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(committed)));
                const std::int64_t length = 1 + static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(committed - offset)));
                auto out = st.read_bytes(offset, length);
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
    // Chaos: cycle disk 4 through fail -> reconstruct while readers run
    // (rs:6,3 tolerates 3 concurrent failures; at most 2 are ever down).
    std::thread chaos([&] {
        for (int cycle = 0; cycle < 4; ++cycle) {
            ASSERT_TRUE(st.fail_disk(4).ok());
            auto stats = st.reconstruct_disk(4);
            ASSERT_TRUE(stats.ok()) << stats.error().message;
        }
    });
    for (auto& t : readers) t.join();
    chaos.join();

    EXPECT_EQ(read_errors.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);

    // Final audit, single-threaded.
    auto out = st.read_bytes(0, committed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), reference);
}

TEST(StoreConcurrent, AttachObservabilityWhileReadsInFlight) {
    const std::int64_t elem = 32;
    // Sinks outlive the store: retired bundles hold pointers into them
    // until the store is destroyed.
    obs::MetricRegistry metrics("test");
    obs::RequestForensics forensics;
    store::StripeStore st(make_scheme("lrc:6,2,2", LayoutKind::ecfrm), elem);
    obs::DiskHeatModel heat(st.scheme().disks());

    std::vector<std::uint8_t> reference(4096);
    Rng fill_rng(21);
    for (auto& b : reference) b = static_cast<std::uint8_t>(fill_rng.next_below(256));
    ASSERT_TRUE(st.append(ConstByteSpan(reference.data(), reference.size())).ok());
    ASSERT_TRUE(st.flush().ok());
    const auto committed = static_cast<std::int64_t>(reference.size());

    std::atomic<bool> stop{false};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
        readers.emplace_back([&, t] {
            Rng rng(3000 + static_cast<std::uint64_t>(t));
            while (!stop.load(std::memory_order_relaxed)) {
                const std::int64_t offset = static_cast<std::int64_t>(
                    rng.next_below(static_cast<std::uint64_t>(committed)));
                const std::int64_t length = 1 + static_cast<std::int64_t>(rng.next_below(
                    static_cast<std::uint64_t>(committed - offset)));
                auto out = st.read_bytes(offset, length);
                if (!out.ok() || std::memcmp(out->data(), reference.data() + offset,
                                             static_cast<std::size_t>(length)) != 0) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    // Swap the whole observability bundle in and out under live traffic.
    for (int i = 0; i < 50; ++i) {
        st.attach_observability(&metrics, &forensics, &heat);
        st.attach_observability(nullptr, nullptr, nullptr);
    }
    st.attach_observability(&metrics, &forensics, &heat);
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_EQ(mismatches.load(), 0);

    // The final attached bundle observes subsequent reads.
    auto out = st.read_bytes(0, committed);
    ASSERT_TRUE(out.ok());
    EXPECT_GT(metrics.counter("ecfrm_store_reads_total").value(), 0);
    EXPECT_GT(forensics.finished_total(obs::RequestClass::normal), 0);
}

}  // namespace
}  // namespace ecfrm::exec

// BlockDevice: the device abstraction under StripeStore. One device holds
// fixed-size element slots addressed by row. Implementations: the
// in-memory Disk (tests, benches, simulations); the persistent UringDisk
// that store::open_file_device builds (io_uring, falling back to
// positional pread; the one device whose batch reads are truly
// asynchronous); and the FaultDevice decorator, which injects scheduled
// faults into either.
//
// Devices only move bytes: they count nothing. Every device call in src/
// is made by a PlanExecutor submission queue, and that queue is the one
// per-disk I/O account (ops, bytes, latency, errors, in-flight depth).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/result.h"
#include "common/types.h"

namespace ecfrm::store {

class BlockDevice {
  public:
    virtual ~BlockDevice() = default;

    virtual std::int64_t element_bytes() const = 0;

    /// Overwrite the slot at `row` (grows the device as needed).
    virtual Status write(RowId row, ConstByteSpan data) = 0;

    /// Copy the slot at `row` into `out`.
    virtual Status read(RowId row, ByteSpan out) const = 0;

    /// Vectored batch read: copy the slot at rows[i] into outs[i], in
    /// order, stopping at the first failure. `*completed` (optional)
    /// reports how many leading ops succeeded — on error, ops past that
    /// prefix were not attempted. The base implementation is a
    /// per-element fallback; Disk overrides it to take its lock once per
    /// batch and UringDisk to coalesce adjacent rows into single file
    /// transfers. FaultDevice keeps the per-element path so fault schedules
    /// stay keyed to op sequence numbers.
    virtual Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                              std::size_t* completed = nullptr) const {
        if (completed != nullptr) *completed = 0;
        if (rows.size() != outs.size()) return Error::invalid("batch rows/buffers size mismatch");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto status = read(rows[i], outs[i]);
            if (!status.ok()) return status;
            if (completed != nullptr) *completed = i + 1;
        }
        return Status::success();
    }

    /// One in-flight asynchronous batch read. Obtained from
    /// submit_read_batch(); await() blocks until every op has settled and
    /// returns the batch's status. Call await() exactly once — the
    /// destructor of an un-awaited batch blocks until the I/O is safe to
    /// abandon (buffers may be written up to that point). `*completed`
    /// follows the read_batch prefix contract, with one async relaxation:
    /// on error, ops past the prefix MAY have been attempted (the kernel
    /// ran them concurrently); their buffer contents are unspecified.
    class AsyncBatch {
      public:
        virtual ~AsyncBatch() = default;
        virtual Status await(std::size_t* completed = nullptr) = 0;
    };

    /// Submit a batch read without waiting for it. The default adapter
    /// simply runs the synchronous read_batch() at submit time and hands
    /// back its result, so every existing device (Disk, FaultDevice,
    /// decorators) gets the async interface for free with unchanged
    /// semantics; truly asynchronous backends (UringDisk) override it to
    /// put the whole batch in flight and complete it in await(). `rows`
    /// and `outs` must stay valid until await() returns.
    virtual std::unique_ptr<AsyncBatch> submit_read_batch(
        std::span<const RowId> rows, std::span<const ByteSpan> outs) const {
        class SyncBatch final : public AsyncBatch {
          public:
            SyncBatch(Status status, std::size_t done) : status_(std::move(status)), done_(done) {}
            Status await(std::size_t* completed) override {
                if (completed != nullptr) *completed = done_;
                return status_;
            }

          private:
            Status status_;
            std::size_t done_;
        };
        std::size_t done = 0;
        Status status = read_batch(rows, outs, &done);
        return std::make_unique<SyncBatch>(std::move(status), done);
    }

    /// True when submit_read_batch genuinely overlaps I/O (submission
    /// returns before completion). The executor uses this to decide
    /// whether submitting every disk's batch up front buys overlap.
    virtual bool async_reads() const { return false; }

    /// Vectored batch write: write payloads[i] to rows[i], in order,
    /// stopping at the first failure. Same `*completed` contract as
    /// read_batch.
    virtual Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                               std::size_t* completed = nullptr) {
        if (completed != nullptr) *completed = 0;
        if (rows.size() != payloads.size()) return Error::invalid("batch rows/payloads size mismatch");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto status = write(rows[i], payloads[i]);
            if (!status.ok()) return status;
            if (completed != nullptr) *completed = i + 1;
        }
        return Status::success();
    }

    /// Mark the device failed; its content is dropped.
    virtual void fail() = 0;

    /// Bring an empty replacement online. A device that cannot (its
    /// backing files cannot be created, say) stays failed().
    virtual void replace() = 0;

    virtual bool failed() const = 0;

    /// Rows allocated so far (write high-water mark).
    virtual RowId rows() const = 0;

    /// Silent-corruption injection hook (flips one stored byte).
    virtual Status corrupt_byte(RowId row, std::size_t offset) = 0;
};

}  // namespace ecfrm::store

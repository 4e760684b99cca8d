// BlockDevice: the device abstraction under StripeStore. One device holds
// fixed-size element slots addressed by row. Implementations: the
// in-memory Disk (tests, benches, simulations); the persistent file
// backends chosen by store::open_file_device — FileDisk (stdio streams)
// and UringDisk (io_uring, falling back to positional pread; the one
// device whose batch reads are truly asynchronous); and the FaultDevice
// decorator, which injects scheduled faults into any of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace ecfrm::store {

class BlockDevice {
  public:
    virtual ~BlockDevice() = default;

    /// Attach (or clear, with a default-constructed bundle) per-device
    /// I/O accounting. Safe against in-flight ops: the bundle is
    /// published through an atomic pointer, so attaching mid-traffic is
    /// race-free — ops already running keep the bundle they loaded
    /// (every attached bundle stays alive until the device is
    /// destroyed). Implementations count one op per successful
    /// read/write, its payload bytes, and — only when the latency
    /// histograms are attached — wall-clock service time.
    void attach_io_stats(const obs::IoStats& io) {
        auto bundle = std::make_unique<const obs::IoStats>(io);
        const obs::IoStats* fresh = bundle.get();
        {
            std::lock_guard<std::mutex> lock(io_mu_);
            io_bundles_.push_back(std::move(bundle));
        }
        io_.store(fresh, std::memory_order_release);
    }

    /// The current accounting bundle (never null). The acquire load pairs
    /// with attach_io_stats' release store and is free on x86.
    const obs::IoStats& io_stats() const { return *io_.load(std::memory_order_acquire); }

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
    /// batch and FileDisk to coalesce adjacent rows into sequential file
    /// I/O. FaultDevice keeps the per-element path so fault schedules
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

    /// Bring an empty replacement online.
    virtual void replace() = 0;

    virtual bool failed() const = 0;

    /// Rows allocated so far (write high-water mark).
    virtual RowId rows() const = 0;

    /// Silent-corruption injection hook (flips one stored byte).
    virtual Status corrupt_byte(RowId row, std::size_t offset) = 0;

  protected:
    /// Scoped I/O accounting for one device op: counts bytes/ops on
    /// success and, when the histogram is attached, the op's wall-clock
    /// seconds; failed ops land in the error counters instead. Cost when
    /// nothing is attached: a few null checks.
    class IoTimer {
      public:
        IoTimer(const obs::IoStats& io, bool is_read, std::int64_t bytes)
            : io_(io), is_read_(is_read), bytes_(bytes),
              timed_(is_read ? io.reads_timed() : io.writes_timed()) {
            io.on_issue(1);
            if (timed_) start_ = std::chrono::steady_clock::now();
        }

        void done(const Status& status) {
            io_.on_settled(1);
            if (!status.ok()) {
                if (is_read_) {
                    io_.on_read_error(bytes_);
                } else {
                    io_.on_write_error(bytes_);
                }
                return;
            }
            const double seconds =
                timed_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count()
                       : 0.0;
            if (is_read_) {
                io_.on_read(bytes_, seconds);
            } else {
                io_.on_write(bytes_, seconds);
            }
        }

      private:
        const obs::IoStats& io_;
        bool is_read_;
        std::int64_t bytes_;
        bool timed_;
        std::chrono::steady_clock::time_point start_{};
    };

    /// Batch-granular accounting: one timed window over the whole batch,
    /// attributed evenly across its ops so per-op histograms stay
    /// meaningful when implementations hold one lock per batch.
    class BatchIoTimer {
      public:
        BatchIoTimer(const obs::IoStats& io, bool is_read, std::int64_t bytes_per_op,
                     std::size_t ops)
            : io_(io), is_read_(is_read), bytes_per_op_(bytes_per_op), ops_(ops),
              timed_(is_read ? io.reads_timed() : io.writes_timed()) {
            io.on_issue(static_cast<std::int64_t>(ops));
            if (timed_) start_ = std::chrono::steady_clock::now();
        }

        /// `ok_ops` ops succeeded; `failed` marks one trailing failed op.
        void done(std::size_t ok_ops, bool failed) {
            io_.on_settled(static_cast<std::int64_t>(ops_));
            const double seconds =
                timed_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count()
                       : 0.0;
            const double share = ok_ops > 0 ? seconds / static_cast<double>(ok_ops) : 0.0;
            for (std::size_t i = 0; i < ok_ops; ++i) {
                if (is_read_) {
                    io_.on_read(bytes_per_op_, share);
                } else {
                    io_.on_write(bytes_per_op_, share);
                }
            }
            if (failed) {
                if (is_read_) {
                    io_.on_read_error(bytes_per_op_);
                } else {
                    io_.on_write_error(bytes_per_op_);
                }
            }
        }

      private:
        const obs::IoStats& io_;
        bool is_read_;
        std::int64_t bytes_per_op_;
        std::size_t ops_;
        bool timed_;
        std::chrono::steady_clock::time_point start_{};
    };

  private:
    static const obs::IoStats* empty_io() {
        static const obs::IoStats none;
        return &none;
    }

    std::atomic<const obs::IoStats*> io_{empty_io()};
    mutable std::mutex io_mu_;  // guards io_bundles_
    std::vector<std::unique_ptr<const obs::IoStats>> io_bundles_;
};

}  // namespace ecfrm::store

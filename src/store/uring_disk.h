// UringDisk: the file BlockDevice. Disk i lives in three files under one
// directory, the same in both modes:
//   disk_<i>.dat    — element payloads at offset row * element_bytes
//   disk_<i>.map    — one byte per row: 1 when the row has been written
//   disk_<i>.failed — marker recording the failed state across runs
// In either mode, batches reach the kernel like this:
//
//   - positional I/O (pread/pwrite/preadv) — no shared stream position,
//     so concurrent readers on one disk do NOT serialize (reads hold only
//     a shared lock);
//   - adjacent rows coalesce into one transfer, and adjacent rows whose
//     destination buffers are also contiguous in memory collapse into a
//     single large read (the zero-copy fast path: an EC-FRM per-disk
//     sequential batch lands in the caller's buffer with one op);
//   - in `uring` mode, a batch's contiguous runs map 1:1 onto io_uring
//     SQEs submitted together, with the data file registered as a fixed
//     file and — when a BufferPool arena is attached — destinations
//     inside the arena issued as registered-buffer fixed reads. The ring
//     layer is a minimal raw syscall shim (no liburing dependency); when
//     the kernel lacks io_uring the device transparently degrades to the
//     pread path.
//
// Each device serves its submitted batches on an I/O thread of its own,
// so batches submitted to different disks overlap. A buffered read that
// hits the page cache is a copy the kernel makes inside the syscall that
// issues it — io_uring_enter included — on the calling thread, so
// without a thread per disk one reader pays the sum of its disks' copies,
// not the busiest disk's. submit_read_batch() checks its arguments, plans
// the batch's runs and iovecs on the caller's thread (so serving it
// allocates nothing) and queues it on the disk's FIFO; await() serves it
// on the waiting thread instead when the I/O thread has not started it
// yet. The thread starts at the first submit_read_batch() and is joined
// by the destructor. read_batch() serves the same transfer inline.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "store/block_device.h"
#include "store/io_backend.h"

namespace ecfrm::store {

namespace uring_detail {
class Ring;      // one io_uring instance (uring_disk.cpp)
class RingPool;  // per-device pool of io_uring instances (uring_disk.cpp)
}

class UringDisk final : public BlockDevice {
  public:
    /// Open (or create) the device files for disk `index` under `dir`, in
    /// `mode`: pread issues positional syscalls only, uring batched
    /// io_uring submission with the pread path as its fallback.
    /// `arena` (optional, must outlive the device) is registered with the
    /// rings so destinations inside it use fixed reads.
    static Result<std::unique_ptr<UringDisk>> open(const std::string& dir, int index,
                                                   std::int64_t element_bytes, IoBackend mode,
                                                   BufferPool* arena = nullptr);

    ~UringDisk() override;

    std::int64_t element_bytes() const override { return element_bytes_; }
    Status write(RowId row, ConstByteSpan data) override;
    Status read(RowId row, ByteSpan out) const override;
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override;
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override;
    std::unique_ptr<AsyncBatch> submit_read_batch(std::span<const RowId> rows,
                                                  std::span<const ByteSpan> outs) const override;
    bool async_reads() const override;
    void fail() override;
    void replace() override;
    bool failed() const override;
    RowId rows() const override;
    Status corrupt_byte(RowId row, std::size_t offset) override;

    /// True when this device actually drives an io_uring (mode uring AND
    /// the kernel provides it AND ring setup succeeded).
    bool uring_active() const;

    const std::string& data_path() const { return data_path_; }

    /// Whether this build/kernel can set up an io_uring at all (cached
    /// runtime probe; false in ECFRM_WITH_URING=OFF builds).
    static bool uring_available();

  private:
    UringDisk(std::string data_path, std::string map_path, std::string failed_path,
              std::int64_t element_bytes, IoBackend mode, BufferPool* arena);

    Status open_files();
    void close_files();
    Status load_map();
    Status ensure_map(RowId row);  // pad map bytes up to `row` (excl.), exclusive lock held
    Status flush_files();          // fsync both files under ECFRM_FSYNC=1, else nothing

    /// One coalesced transfer: `count` elements of adjacent rows from file
    /// offset `offset` into the batch's iovecs [iov_first, iov_first +
    /// iov_count) — one iovec when the destinations form one memory run.
    struct Run {
        std::size_t count = 0;
        std::int64_t offset = 0;
        std::size_t iov_first = 0;
        std::size_t iov_count = 0;
        bool ok = false;  // settled successfully (ring completions arrive out of order)
    };

    /// A batch's transfers, built on the submitting thread so that serving
    /// the batch allocates nothing.
    struct ReadPlan {
        std::vector<Run> runs;
        std::vector<::iovec> iov;
    };

    Status check_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs) const;
    void plan_reads(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                    ReadPlan& plan) const;

    /// Serve a planned batch: take the shared lock, check failed_ and
    /// written_ under it, then read through a leased ring or run by run
    /// with preadv. `done` is the completed prefix (read_batch contract).
    Status transfer(std::span<const RowId> rows, ReadPlan& plan, std::size_t& done) const;

    /// Blocking positional read of one run (pread for one iovec, else a
    /// preadv loop; both handle partial transfers). Shared lock held by
    /// the caller.
    Status read_run(const Run& run, std::span<::iovec> iov) const;

    /// The ring half of transfer(): contiguous runs as one SQE each,
    /// scattered runs through read_run. Shared lock held by the caller.
    Status ring_read(uring_detail::Ring& ring, ReadPlan& plan) const;

    class ReadJob;  // AsyncBatch implementation (uring_disk.cpp)

    /// The device's I/O thread: serves queued jobs in FIFO order.
    void serve_jobs() const;

    /// The I/O thread and its FIFO of queued jobs (linked through
    /// ReadJob::next_). `mu` guards the FIFO, every job's claim and
    /// `stop`, and is never held together with the device lock mu_, which
    /// a job takes only while it is served: no thread holds the locks of
    /// two devices at once.
    struct IoThread {
        std::mutex mu;
        std::condition_variable work;  // a job was queued, or stop was set
        std::condition_variable done;  // a job the thread claimed is served
        ReadJob* head = nullptr;
        ReadJob* tail = nullptr;
        bool stop = false;
        std::thread thread;
    };

    std::string data_path_;
    std::string map_path_;
    std::string failed_path_;
    std::int64_t element_bytes_;
    IoBackend mode_;
    BufferPool* arena_;

    /// Guards written_/failed_ and fd lifecycle: reads and jobs being
    /// served hold it shared (positional I/O needs no serialization),
    /// writes and fail()/replace() hold it exclusive. A submitted batch
    /// holds nothing until it is served.
    mutable std::shared_mutex mu_;
    int data_fd_ = -1;
    int map_fd_ = -1;
    std::vector<bool> written_;
    /// Written under mu_; failed() reads it without the lock.
    std::atomic<bool> failed_{false};

    std::unique_ptr<uring_detail::RingPool> rings_;

    mutable IoThread io_;
};

}  // namespace ecfrm::store

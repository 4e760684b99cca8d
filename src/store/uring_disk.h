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
//   - in `uring` mode, a batch's coalesced runs map 1:1 onto io_uring
//     SQEs submitted together (true per-disk in-kernel queue depth), with
//     the data file registered as a fixed file and — when a BufferPool
//     arena is attached — destinations inside the arena issued as
//     registered-buffer fixed reads. The ring layer is a minimal raw
//     syscall shim (no liburing dependency); when the kernel lacks
//     io_uring the device transparently degrades to the pread path.
//
// submit_read_batch() genuinely overlaps: it puts the whole batch in
// flight and completes it in await(), which is how PlanExecutor overlaps
// submission across disks.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "store/block_device.h"
#include "store/io_backend.h"

namespace ecfrm::store {

namespace uring_detail {
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

    /// One coalesced transfer: `count` elements starting at batch index
    /// `first`, file offset `offset`. `contiguous` when the destination
    /// buffers also form one memory run (single-iovec fast path).
    struct Run {
        std::size_t first = 0;
        std::size_t count = 0;
        std::int64_t offset = 0;
        bool contiguous = false;
    };
    static std::vector<Run> coalesce(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                                     std::int64_t element_bytes);

    /// Blocking positional read of one run (preadv loop handling partial
    /// transfers). Shared lock held by the caller.
    Status read_run(const Run& run, std::span<const ByteSpan> outs) const;

    class UringBatch;  // AsyncBatch implementation (uring_disk.cpp)

    std::string data_path_;
    std::string map_path_;
    std::string failed_path_;
    std::int64_t element_bytes_;
    IoBackend mode_;
    BufferPool* arena_;

    /// Guards written_/failed_ and fd lifecycle: reads + in-flight async
    /// batches hold it shared (positional I/O needs no serialization),
    /// writes and fail()/replace() hold it exclusive.
    mutable std::shared_mutex mu_;
    int data_fd_ = -1;
    int map_fd_ = -1;
    std::vector<bool> written_;
    /// Written under mu_; failed() reads it without the lock.
    std::atomic<bool> failed_{false};

    std::unique_ptr<uring_detail::RingPool> rings_;
};

}  // namespace ecfrm::store

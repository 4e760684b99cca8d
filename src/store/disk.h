// One simulated in-memory storage device: a growable array of fixed-size
// element slots plus a failure flag. Slots live in slabs: anonymous
// mappings of whole 2 MiB units, advised for transparent huge pages, that
// hold rows_per_slab consecutive rows each. A disk that is destroyed,
// failed or replaced retires its slabs to one process-wide free list, and
// a growing disk takes from that list before it maps new memory, so a
// fresh store reuses pages that are already faulted in. Thread-safe;
// reads copy out under the lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "store/block_device.h"

namespace ecfrm::store {

class Disk final : public BlockDevice {
  public:
    explicit Disk(std::int64_t element_bytes);

    std::int64_t element_bytes() const override { return element_bytes_; }

    /// Overwrite the slot at `row` (grows the disk as needed).
    Status write(RowId row, ConstByteSpan data) override;

    /// Copy the slot at `row` into `out`. Fails when the disk is failed,
    /// the row was never written, or `out` has the wrong size.
    Status read(RowId row, ByteSpan out) const override;

    /// Vectored batch ops: one lock acquisition for the whole batch
    /// instead of one per element.
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override;
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override;

    /// Mark the device failed: reads fail and all content is dropped
    /// (a failed-and-replaced drive comes back empty).
    void fail() override;

    /// Bring a replacement device online (empty).
    void replace() override;

    /// Failure-injection hook: flip one stored byte in place (silent
    /// corruption — the disk still serves the row without error). Fails if
    /// the row was never written or the disk is failed.
    Status corrupt_byte(RowId row, std::size_t offset) override;

    bool failed() const override;

    /// Rows currently allocated (monotone high-water mark of writes).
    RowId rows() const override;

  private:
    /// Returns a slab of `bytes` to the process-wide free list.
    struct SlabRetire {
        std::size_t bytes;
        void operator()(std::uint8_t* base) const noexcept;
    };
    using Slab = std::unique_ptr<std::uint8_t[], SlabRetire>;

    /// Make rows [0, rows) addressable. Caller holds mu_.
    Status grow(std::size_t rows);
    /// Row `row`'s bytes; the row must be below written_.size().
    std::uint8_t* slot(std::size_t row) const;

    mutable std::mutex mu_;
    std::int64_t element_bytes_;
    std::size_t rows_per_slab_;
    std::size_t slab_bytes_;
    std::vector<Slab> slabs_;
    /// A slot's bytes are served only once written: slabs are recycled,
    /// so an unwritten slot may hold another disk's stale bytes.
    std::vector<bool> written_;
    /// Written under mu_; failed() reads it without the lock.
    std::atomic<bool> failed_{false};
};

}  // namespace ecfrm::store

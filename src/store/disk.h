// One simulated in-memory storage device: a growable array of fixed-size
// element slots plus a failure flag. Thread-safe; reads copy out under the
// lock so callers never hold references into resizable storage.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/result.h"
#include "common/types.h"
#include "store/block_device.h"

namespace ecfrm::store {

class Disk final : public BlockDevice {
  public:
    explicit Disk(std::int64_t element_bytes) : element_bytes_(element_bytes) {}

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
    mutable std::mutex mu_;
    std::int64_t element_bytes_;
    std::vector<AlignedBuffer> slots_;
    std::vector<bool> written_;
    /// Written under mu_; failed() reads it without the lock.
    std::atomic<bool> failed_{false};
};

}  // namespace ecfrm::store

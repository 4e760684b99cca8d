// FileDisk: a persistent BlockDevice backed by two files in a directory:
//   disk_<i>.dat — element payloads at offset row * element_bytes
//   disk_<i>.map — one byte per row: 1 when the row has been written
// A "disk_<i>.failed" marker file records the failed state across runs.
//
// This backs the ecfrm_cli tool so an archive survives process restarts,
// and demonstrates that StripeStore is genuinely device-agnostic.
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "store/block_device.h"

namespace ecfrm::store {

class FileDisk final : public BlockDevice {
  public:
    /// Open (or create) the device files for disk `index` under `dir`.
    /// `dir` must already exist.
    static Result<std::unique_ptr<FileDisk>> open(const std::string& dir, int index,
                                                  std::int64_t element_bytes);

    ~FileDisk() override;

    std::int64_t element_bytes() const override { return element_bytes_; }
    Status write(RowId row, ConstByteSpan data) override;
    Status read(RowId row, ByteSpan out) const override;

    /// Vectored batch ops: one lock acquisition per batch, adjacent rows
    /// coalesced into single sequential file transfers (one seek per run),
    /// one flush per write batch.
    Status read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                      std::size_t* completed = nullptr) const override;
    Status write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                       std::size_t* completed = nullptr) override;
    void fail() override;
    void replace() override;
    bool failed() const override;
    RowId rows() const override;
    Status corrupt_byte(RowId row, std::size_t offset) override;

    const std::string& data_path() const { return data_path_; }

  private:
    FileDisk(std::string data_path, std::string map_path, std::string failed_path,
             std::int64_t element_bytes);

    Status open_files();
    void close_files();
    /// Reload the written-row map from disk (after open/replace).
    Status load_map();
    Status persist_map_bit(RowId row, bool value);
    /// One durability point per write (batch): fflush both files, fsync
    /// under ECFRM_FSYNC=1, counted in IoStats::flushes.
    Status flush_files();

    mutable std::mutex mu_;
    std::string data_path_;
    std::string map_path_;
    std::string failed_path_;
    std::int64_t element_bytes_;
    std::FILE* data_ = nullptr;
    std::FILE* map_ = nullptr;
    std::vector<bool> written_;
    /// Written under mu_; failed() reads it without the lock.
    std::atomic<bool> failed_{false};
};

}  // namespace ecfrm::store

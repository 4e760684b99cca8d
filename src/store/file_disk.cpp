#include "store/file_disk.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace ecfrm::store {

namespace fs = std::filesystem;

namespace {

/// 64-bit file offset of `row` — off_t arithmetic throughout, so >2 GiB
/// device files work even where `long` is 32-bit.
off_t element_offset(RowId row, std::int64_t element_bytes) {
    return static_cast<off_t>(row) * static_cast<off_t>(element_bytes);
}

/// ECFRM_FSYNC=1 upgrades the per-batch fflush to a real fsync (opt-in
/// durability knob; read once per process).
bool fsync_enabled() {
    static const bool enabled = []() {
        const char* v = std::getenv("ECFRM_FSYNC");
        return v != nullptr && v[0] != '\0' && v[0] != '0';
    }();
    return enabled;
}

}  // namespace

FileDisk::FileDisk(std::string data_path, std::string map_path, std::string failed_path,
                   std::int64_t element_bytes)
    : data_path_(std::move(data_path)),
      map_path_(std::move(map_path)),
      failed_path_(std::move(failed_path)),
      element_bytes_(element_bytes) {}

Result<std::unique_ptr<FileDisk>> FileDisk::open(const std::string& dir, int index,
                                                 std::int64_t element_bytes) {
    if (element_bytes <= 0) return Error::invalid("element_bytes must be positive");
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) return Error::io("not a directory: " + dir);

    const std::string stem = dir + "/disk_" + std::to_string(index);
    auto disk = std::unique_ptr<FileDisk>(
        new FileDisk(stem + ".dat", stem + ".map", stem + ".failed", element_bytes));
    disk->failed_ = fs::exists(disk->failed_path_, ec);
    if (!disk->failed_) {
        auto status = disk->open_files();
        if (!status.ok()) return status.error();
        status = disk->load_map();
        if (!status.ok()) return status.error();
    }
    return disk;
}

FileDisk::~FileDisk() { close_files(); }

Status FileDisk::open_files() {
    // "a" then reopen "r+b" so the files exist without truncating them.
    for (const auto& path : {data_path_, map_path_}) {
        std::FILE* touch = std::fopen(path.c_str(), "ab");
        if (touch == nullptr) return Error::io("cannot create " + path);
        std::fclose(touch);
    }
    data_ = std::fopen(data_path_.c_str(), "r+b");
    map_ = std::fopen(map_path_.c_str(), "r+b");
    if (data_ == nullptr || map_ == nullptr) {
        close_files();
        return Error::io("cannot open device files under " + data_path_);
    }
    return Status::success();
}

void FileDisk::close_files() {
    if (data_ != nullptr) {
        std::fclose(data_);
        data_ = nullptr;
    }
    if (map_ != nullptr) {
        std::fclose(map_);
        map_ = nullptr;
    }
}

Status FileDisk::load_map() {
    written_.clear();
    if (std::fseek(map_, 0, SEEK_END) != 0) return Error::io("seek failed on map file");
    const long size = std::ftell(map_);
    if (size < 0) return Error::io("tell failed on map file");
    written_.resize(static_cast<std::size_t>(size), false);
    std::rewind(map_);
    std::vector<char> raw(static_cast<std::size_t>(size));
    if (size > 0 && std::fread(raw.data(), 1, raw.size(), map_) != raw.size()) {
        return Error::io("short read on map file");
    }
    for (std::size_t i = 0; i < raw.size(); ++i) written_[i] = raw[i] != 0;
    return Status::success();
}

Status FileDisk::persist_map_bit(RowId row, bool value) {
    // No flush here: callers batch one flush_files() per write (batch).
    if (fseeko(map_, static_cast<off_t>(row), SEEK_SET) != 0) return Error::io("seek failed on map file");
    const char byte = value ? 1 : 0;
    if (std::fwrite(&byte, 1, 1, map_) != 1) return Error::io("write failed on map file");
    return Status::success();
}

Status FileDisk::flush_files() {
    // One durability point per write (batch): stdio buffers of both files
    // are flushed together, upgraded to fsync under ECFRM_FSYNC=1. Counted
    // so tests can pin "one flush per batch, not per element".
    if (std::fflush(data_) != 0 || std::fflush(map_) != 0) {
        return Error::io("flush failed on device files");
    }
    io_stats().on_flush(2);
    if (fsync_enabled()) {
        if (::fsync(fileno(data_)) != 0 || ::fsync(fileno(map_)) != 0) {
            return Error::io("fsync failed on device files");
        }
        io_stats().on_flush(2);
    }
    return Status::success();
}

Status FileDisk::write(RowId row, ConstByteSpan data) {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(data.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on write");
    }
    IoTimer timer(io_stats(), /*is_read=*/false, static_cast<std::int64_t>(data.size()));
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("write to failed disk");
        if (fseeko(data_, element_offset(row, element_bytes_), SEEK_SET) != 0) {
            return Error::io("seek failed on data file");
        }
        if (std::fwrite(data.data(), 1, data.size(), data_) != data.size()) {
            return Error::io("write failed on data file");
        }
        // The map file may need zero padding for skipped rows.
        if (static_cast<std::size_t>(row) >= written_.size()) {
            const RowId old = static_cast<RowId>(written_.size());
            written_.resize(static_cast<std::size_t>(row) + 1, false);
            for (RowId r = old; r < row; ++r) {
                auto status = persist_map_bit(r, false);
                if (!status.ok()) return status;
            }
        }
        written_[static_cast<std::size_t>(row)] = true;
        auto status = persist_map_bit(row, true);
        if (!status.ok()) return status;
        return flush_files();
    }();
    timer.done(status);
    return status;
}

Status FileDisk::read(RowId row, ByteSpan out) const {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(out.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on read");
    }
    IoTimer timer(io_stats(), /*is_read=*/true, static_cast<std::int64_t>(out.size()));
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("read from failed disk");
        if (static_cast<std::size_t>(row) >= written_.size() || !written_[static_cast<std::size_t>(row)]) {
            return Error::range("row never written");
        }
        if (fseeko(data_, element_offset(row, element_bytes_), SEEK_SET) != 0) {
            return Error::io("seek failed on data file");
        }
        if (std::fread(out.data(), 1, out.size(), data_) != out.size()) {
            return Error::io("short read on data file");
        }
        return Status::success();
    }();
    timer.done(status);
    return status;
}

Status FileDisk::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                            std::size_t* completed) const {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != outs.size()) return Error::invalid("batch rows/buffers size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(outs[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on read");
        }
    }
    BatchIoTimer timer(io_stats(), /*is_read=*/true, element_bytes_, rows.size());
    std::size_t done = 0;
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("read from failed disk");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto row = static_cast<std::size_t>(rows[i]);
            if (row >= written_.size() || !written_[row]) return Error::range("row never written");
        }
        std::int64_t runs = 0;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            // Seek only at the start of each run of consecutive rows; the
            // stream position is already correct inside a run.
            if (i == 0 || rows[i] != rows[i - 1] + 1) {
                ++runs;
                if (fseeko(data_, element_offset(rows[i], element_bytes_), SEEK_SET) != 0) {
                    return Error::io("seek failed on data file");
                }
            }
            if (std::fread(outs[i].data(), 1, outs[i].size(), data_) != outs[i].size()) {
                return Error::io("short read on data file");
            }
            done = i + 1;
        }
        // Serial backend: the "queue depth" is the coalesced run count —
        // each run is still one blocking transfer at a time.
        io_stats().on_batch_depth(runs);
        return Status::success();
    }();
    timer.done(done, !status.ok());
    if (completed != nullptr) *completed = done;
    return status;
}

Status FileDisk::write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                             std::size_t* completed) {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != payloads.size()) return Error::invalid("batch rows/payloads size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(payloads[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on write");
        }
    }
    BatchIoTimer timer(io_stats(), /*is_read=*/false, element_bytes_, rows.size());
    std::size_t done = 0;
    auto status = [&]() -> Status {
        std::lock_guard lk(mu_);
        if (failed_) return Error::disk_failed("write to failed disk");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i == 0 || rows[i] != rows[i - 1] + 1) {
                if (fseeko(data_, element_offset(rows[i], element_bytes_), SEEK_SET) != 0) {
                    return Error::io("seek failed on data file");
                }
            }
            if (std::fwrite(payloads[i].data(), 1, payloads[i].size(), data_) != payloads[i].size()) {
                return Error::io("write failed on data file");
            }
            const auto row = static_cast<std::size_t>(rows[i]);
            if (row >= written_.size()) {
                const RowId old = static_cast<RowId>(written_.size());
                written_.resize(row + 1, false);
                for (RowId r = old; r < rows[i]; ++r) {
                    auto pad = persist_map_bit(r, false);
                    if (!pad.ok()) return pad;
                }
            }
            written_[row] = true;
            auto bit = persist_map_bit(rows[i], true);
            if (!bit.ok()) return bit;
            done = i + 1;
        }
        return flush_files();
    }();
    timer.done(done, !status.ok());
    if (completed != nullptr) *completed = done;
    return status;
}

void FileDisk::fail() {
    std::lock_guard lk(mu_);
    failed_ = true;
    close_files();
    std::error_code ec;
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    std::FILE* marker = std::fopen(failed_path_.c_str(), "wb");
    if (marker != nullptr) std::fclose(marker);
    written_.clear();
}

void FileDisk::replace() {
    std::lock_guard lk(mu_);
    failed_ = false;
    std::error_code ec;
    fs::remove(failed_path_, ec);
    fs::remove(data_path_, ec);
    fs::remove(map_path_, ec);
    written_.clear();
    (void)open_files();
}

bool FileDisk::failed() const { return failed_.load(std::memory_order_acquire); }

RowId FileDisk::rows() const {
    std::lock_guard lk(mu_);
    return static_cast<RowId>(written_.size());
}

Status FileDisk::corrupt_byte(RowId row, std::size_t offset) {
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("corrupting a failed disk");
    if (row < 0 || static_cast<std::size_t>(row) >= written_.size() ||
        !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    if (offset >= static_cast<std::size_t>(element_bytes_)) return Error::range("offset beyond element");
    const off_t pos = element_offset(row, element_bytes_) + static_cast<off_t>(offset);
    unsigned char byte = 0;
    if (fseeko(data_, pos, SEEK_SET) != 0 || std::fread(&byte, 1, 1, data_) != 1) {
        return Error::io("read failed during corruption");
    }
    byte ^= 0xff;
    if (fseeko(data_, pos, SEEK_SET) != 0 || std::fwrite(&byte, 1, 1, data_) != 1) {
        return Error::io("write failed during corruption");
    }
    std::fflush(data_);
    return Status::success();
}

}  // namespace ecfrm::store

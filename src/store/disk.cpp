#include "store/disk.h"

#include <cstring>

namespace ecfrm::store {

Status Disk::write(RowId row, ConstByteSpan data) {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(data.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on write");
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("write to failed disk");
    if (static_cast<std::size_t>(row) >= slots_.size()) {
        slots_.resize(static_cast<std::size_t>(row) + 1);
        written_.resize(static_cast<std::size_t>(row) + 1, false);
    }
    auto& slot = slots_[static_cast<std::size_t>(row)];
    if (slot.size() == 0) slot = AlignedBuffer::uninitialized(static_cast<std::size_t>(element_bytes_));
    std::memcpy(slot.data(), data.data(), data.size());
    written_[static_cast<std::size_t>(row)] = true;
    return Status::success();
}

Status Disk::read(RowId row, ByteSpan out) const {
    if (row < 0) return Error::range("negative row");
    if (static_cast<std::int64_t>(out.size()) != element_bytes_) {
        return Error::invalid("element size mismatch on read");
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("read from failed disk");
    if (static_cast<std::size_t>(row) >= slots_.size() || !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    std::memcpy(out.data(), slots_[static_cast<std::size_t>(row)].data(), out.size());
    return Status::success();
}

Status Disk::read_batch(std::span<const RowId> rows, std::span<const ByteSpan> outs,
                        std::size_t* completed) const {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != outs.size()) return Error::invalid("batch rows/buffers size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(outs[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on read");
        }
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("read from failed disk");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto row = static_cast<std::size_t>(rows[i]);
        if (row >= slots_.size() || !written_[row]) return Error::range("row never written");
        std::memcpy(outs[i].data(), slots_[row].data(), outs[i].size());
        if (completed != nullptr) *completed = i + 1;
    }
    return Status::success();
}

Status Disk::write_batch(std::span<const RowId> rows, std::span<const ConstByteSpan> payloads,
                         std::size_t* completed) {
    if (completed != nullptr) *completed = 0;
    if (rows.size() != payloads.size()) return Error::invalid("batch rows/payloads size mismatch");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i] < 0) return Error::range("negative row");
        if (static_cast<std::int64_t>(payloads[i].size()) != element_bytes_) {
            return Error::invalid("element size mismatch on write");
        }
    }
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("write to failed disk");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto row = static_cast<std::size_t>(rows[i]);
        if (row >= slots_.size()) {
            slots_.resize(row + 1);
            written_.resize(row + 1, false);
        }
        auto& slot = slots_[row];
        if (slot.size() == 0) slot = AlignedBuffer::uninitialized(static_cast<std::size_t>(element_bytes_));
        std::memcpy(slot.data(), payloads[i].data(), payloads[i].size());
        written_[row] = true;
        if (completed != nullptr) *completed = i + 1;
    }
    return Status::success();
}

Status Disk::corrupt_byte(RowId row, std::size_t offset) {
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("corrupting a failed disk");
    if (row < 0 || static_cast<std::size_t>(row) >= slots_.size() || !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    if (offset >= static_cast<std::size_t>(element_bytes_)) return Error::range("offset beyond element");
    slots_[static_cast<std::size_t>(row)][offset] ^= 0xff;
    return Status::success();
}

void Disk::fail() {
    std::lock_guard lk(mu_);
    failed_ = true;
    slots_.clear();
    written_.clear();
}

void Disk::replace() {
    std::lock_guard lk(mu_);
    failed_ = false;
    slots_.clear();
    written_.clear();
}

bool Disk::failed() const { return failed_.load(std::memory_order_acquire); }

RowId Disk::rows() const {
    std::lock_guard lk(mu_);
    return static_cast<RowId>(slots_.size());
}

}  // namespace ecfrm::store

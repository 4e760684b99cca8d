#include "store/disk.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ecfrm::store {
namespace {

/// Slabs are mapped in whole units of one x86-64 huge page.
constexpr std::size_t kSlabUnit = std::size_t{2} << 20;

/// Slabs retired by destroyed, failed or replaced disks, kept mapped for
/// the next disk that grows: reusing one skips the kernel's page zeroing
/// and faults on the appending thread. Stale bytes in a reused slab are
/// never served, because a Disk gates every read on its own written_ map.
/// Under AddressSanitizer a slab is poisoned while it is on the list, so
/// any use of a retired slab is reported.
class SlabFreeList {
  public:
    /// Never destroyed: a Disk may outlive any other static.
    static SlabFreeList& instance() {
        static auto* list = new SlabFreeList;
        return *list;
    }

    /// The most recently retired slab of exactly `bytes`, or nullptr.
    std::uint8_t* take(std::size_t bytes) {
        std::uint8_t* base = nullptr;
        {
            std::lock_guard lk(mu_);
            auto it = std::find_if(slabs_.rbegin(), slabs_.rend(),
                                   [&](const auto& slab) { return slab.second == bytes; });
            if (it == slabs_.rend()) return nullptr;
            base = it->first;
            *it = slabs_.back();
            slabs_.pop_back();
        }
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(base, bytes);
#endif
        return base;
    }

    void put(std::uint8_t* base, std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(base, bytes);
#endif
        std::lock_guard lk(mu_);
        try {
            slabs_.emplace_back(base, bytes);
        } catch (const std::bad_alloc&) {
            (void)munmap(base, bytes);  // no room to keep it: give it back
        }
    }

  private:
    std::mutex mu_;
    std::vector<std::pair<std::uint8_t*, std::size_t>> slabs_;
};

/// A slab of `bytes`: a retired one if the free list has one, else a new
/// mapping advised for huge pages (the advice is ignored when THP is off,
/// and 4 KiB pages serve).
std::uint8_t* take_slab(std::size_t bytes) {
    if (std::uint8_t* base = SlabFreeList::instance().take(bytes)) return base;
    void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) return nullptr;
    (void)madvise(base, bytes, MADV_HUGEPAGE);
    return static_cast<std::uint8_t*>(base);
}

std::size_t slot_bytes(std::int64_t element_bytes) {
    return static_cast<std::size_t>(std::max<std::int64_t>(element_bytes, 1));
}

}  // namespace

void Disk::SlabRetire::operator()(std::uint8_t* base) const noexcept {
    SlabFreeList::instance().put(base, bytes);
}

Disk::Disk(std::int64_t element_bytes)
    : element_bytes_(element_bytes),
      rows_per_slab_(std::max<std::size_t>(1, kSlabUnit / slot_bytes(element_bytes))),
      slab_bytes_((rows_per_slab_ * slot_bytes(element_bytes) + kSlabUnit - 1) / kSlabUnit *
                  kSlabUnit) {}

Status Disk::grow(std::size_t rows) {
    const std::size_t slabs = (rows + rows_per_slab_ - 1) / rows_per_slab_;
    slabs_.reserve(slabs);
    while (slabs_.size() < slabs) {
        std::uint8_t* base = take_slab(slab_bytes_);
        if (base == nullptr) return Error::io("cannot map a disk slab");
        slabs_.emplace_back(base, SlabRetire{slab_bytes_});
    }
    written_.resize(rows, false);
    return Status::success();
}

std::uint8_t* Disk::slot(std::size_t row) const {
    return slabs_[row / rows_per_slab_].get() +
           (row % rows_per_slab_) * static_cast<std::size_t>(element_bytes_);
}

Status Disk::write(RowId row, ConstByteSpan data) {
    return write_batch(std::span<const RowId>(&row, 1), std::span<const ConstByteSpan>(&data, 1));
}

Status Disk::read(RowId row, ByteSpan out) const {
    return read_batch(std::span<const RowId>(&row, 1), std::span<const ByteSpan>(&out, 1));
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
        if (row >= written_.size() || !written_[row]) return Error::range("row never written");
        std::memcpy(outs[i].data(), slot(row), outs[i].size());
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
        if (row >= written_.size()) {
            if (Status grown = grow(row + 1); !grown.ok()) return grown;
        }
        std::memcpy(slot(row), payloads[i].data(), payloads[i].size());
        written_[row] = true;
        if (completed != nullptr) *completed = i + 1;
    }
    return Status::success();
}

Status Disk::corrupt_byte(RowId row, std::size_t offset) {
    std::lock_guard lk(mu_);
    if (failed_) return Error::disk_failed("corrupting a failed disk");
    if (row < 0 || static_cast<std::size_t>(row) >= written_.size() ||
        !written_[static_cast<std::size_t>(row)]) {
        return Error::range("row never written");
    }
    if (offset >= static_cast<std::size_t>(element_bytes_)) return Error::range("offset beyond element");
    slot(static_cast<std::size_t>(row))[offset] ^= 0xff;
    return Status::success();
}

void Disk::fail() {
    std::lock_guard lk(mu_);
    failed_ = true;
    slabs_.clear();
    written_.clear();
}

void Disk::replace() {
    std::lock_guard lk(mu_);
    failed_ = false;
    slabs_.clear();
    written_.clear();
}

bool Disk::failed() const { return failed_.load(std::memory_order_acquire); }

RowId Disk::rows() const {
    std::lock_guard lk(mu_);
    return static_cast<RowId>(written_.size());
}

}  // namespace ecfrm::store

// Cache-line-aligned byte buffers for element payloads: zero-initialised
// by default, uninitialised on request for callers that overwrite every
// byte before reading any.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/types.h"

namespace ecfrm {

/// Owning byte buffer aligned to 64 bytes so region kernels can assume
/// aligned loads. Moves are cheap; copies are deep.
class AlignedBuffer {
  public:
    static constexpr std::size_t kAlignment = 64;

    AlignedBuffer() = default;

    explicit AlignedBuffer(std::size_t size) {
        allocate(size);
        if (size_ > 0) std::memset(data_, 0, size_);
    }

    /// A buffer of `size` bytes whose contents are unspecified: for
    /// payloads a read, an encode or a copy overwrites in full.
    static AlignedBuffer uninitialized(std::size_t size) {
        AlignedBuffer b;
        b.allocate(size);
        return b;
    }

    AlignedBuffer(const AlignedBuffer& other) {
        allocate(other.size_);
        if (size_ > 0) std::memcpy(data_, other.data_, size_);
    }

    AlignedBuffer& operator=(const AlignedBuffer& other) {
        if (this != &other) {
            AlignedBuffer tmp(other);
            swap(tmp);
        }
        return *this;
    }

    AlignedBuffer(AlignedBuffer&& other) noexcept { swap(other); }

    AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
        if (this != &other) {
            release();
            swap(other);
        }
        return *this;
    }

    ~AlignedBuffer() { release(); }

    void swap(AlignedBuffer& other) noexcept {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
    }

    std::uint8_t* data() { return data_; }
    const std::uint8_t* data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    ByteSpan span() { return {data_, size_}; }
    ConstByteSpan span() const { return {data_, size_}; }

    std::uint8_t& operator[](std::size_t i) { return data_[i]; }
    std::uint8_t operator[](std::size_t i) const { return data_[i]; }

    void fill(std::uint8_t v) {
        if (size_ > 0) std::memset(data_, v, size_);
    }

  private:
    void allocate(std::size_t size) {
        size_ = size;
        if (size_ > 0) {
            data_ = static_cast<std::uint8_t*>(::operator new[](size_, std::align_val_t(kAlignment)));
        }
    }

    void release() {
        if (data_ != nullptr) {
            ::operator delete[](data_, std::align_val_t(kAlignment));
            data_ = nullptr;
            size_ = 0;
        }
    }

    std::uint8_t* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace ecfrm

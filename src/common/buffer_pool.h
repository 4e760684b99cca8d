// BufferPool: a pooled arena of fixed-size, page-aligned element buffers.
//
// The pool pre-allocates one contiguous arena and hands out slabs through
// RAII PooledBuffer handles. Two jobs:
//   - kill per-element heap allocation churn on the read hot path (the
//     executor draws its element staging buffers from here), and
//   - give io_uring a single registerable region: a UringDisk registers
//     the whole arena as one fixed buffer, so any read whose destination
//     lies inside it can use IORING_OP_READ_FIXED (no per-op page pinning).
//
// Exhaustion never fails: acquire() falls back to a private heap buffer
// (same alignment), it just won't be inside the arena. Buffers are handed
// out uninitialised — a slab may still hold the bytes of its last user,
// which may have been another archive — so a holder must write every byte
// it publishes: the executor stages an element only into a buffer a
// device read or a decode then fills in full, and never publishes a
// buffer whose read failed.
// Thread-safe; a handle may be released from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/types.h"

namespace ecfrm {

class BufferPool;

/// RAII handle to one pool slab (or a heap fallback buffer). Movable,
/// not copyable; returns the slab on destruction. A default-constructed
/// handle is empty.
class PooledBuffer {
  public:
    PooledBuffer() = default;
    PooledBuffer(const PooledBuffer&) = delete;
    PooledBuffer& operator=(const PooledBuffer&) = delete;
    PooledBuffer(PooledBuffer&& other) noexcept { swap(other); }
    PooledBuffer& operator=(PooledBuffer&& other) noexcept {
        if (this != &other) {
            release();
            swap(other);
        }
        return *this;
    }
    ~PooledBuffer() { release(); }

    void swap(PooledBuffer& other) noexcept {
        std::swap(pool_, other.pool_);
        std::swap(slab_, other.slab_);
        std::swap(view_, other.view_);
        heap_.swap(other.heap_);
    }

    bool empty() const { return view_.data() == nullptr; }
    std::uint8_t* data() { return view_.data(); }
    const std::uint8_t* data() const { return view_.data(); }
    std::size_t size() const { return view_.size(); }
    ByteSpan span() { return view_; }
    ConstByteSpan span() const { return {view_.data(), view_.size()}; }

    /// True when the buffer lives inside a pool arena (registered memory).
    bool pooled() const { return pool_ != nullptr; }

    /// Pool-less heap buffer with the same semantics (uninitialised,
    /// aligned).
    static PooledBuffer heap(std::size_t size) {
        PooledBuffer b;
        b.heap_ = AlignedBuffer::uninitialized(size);
        b.view_ = b.heap_.span();
        return b;
    }

  private:
    friend class BufferPool;
    void release();

    BufferPool* pool_ = nullptr;
    int slab_ = -1;
    ByteSpan view_{};
    AlignedBuffer heap_;
};

/// Fixed-size slab arena. `buffer_bytes` is the usable size of each slab;
/// slabs are spaced at a 64-byte-aligned stride inside one page-aligned
/// arena allocation so SIMD kernels and io_uring registration both work
/// on any slab.
class BufferPool {
  public:
    static constexpr std::size_t kArenaAlignment = 4096;

    BufferPool(std::size_t buffer_bytes, std::size_t count);
    ~BufferPool();

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /// An uninitialised buffer of buffer_bytes(). Falls back to a heap
    /// buffer (outside the arena) when every slab is out.
    PooledBuffer acquire();

    std::size_t buffer_bytes() const { return buffer_bytes_; }
    std::size_t capacity() const { return count_; }
    std::size_t available() const;
    /// Heap fallbacks handed out because the arena was exhausted.
    std::int64_t exhausted_acquires() const;

    /// True when [p, p + len) lies fully inside the arena — the test for
    /// "may this destination use a registered-buffer fixed read".
    bool contains(const void* p, std::size_t len) const {
        const auto* b = static_cast<const std::uint8_t*>(p);
        return b >= arena_ && b + len <= arena_ + arena_bytes_;
    }

    const std::uint8_t* arena() const { return arena_; }
    std::size_t arena_bytes() const { return arena_bytes_; }

  private:
    friend class PooledBuffer;
    void release_slab(int slab);

    std::size_t buffer_bytes_ = 0;
    std::size_t stride_ = 0;
    std::size_t count_ = 0;
    std::uint8_t* arena_ = nullptr;
    std::size_t arena_bytes_ = 0;

    mutable std::mutex mu_;
    std::vector<int> free_;  // guarded by mu_
    std::int64_t exhausted_ = 0;  // guarded by mu_
};

/// An uninitialised staging buffer of at least `size` bytes: a slab of `pool`
/// when the pool is given and its slabs are big enough, else a heap
/// buffer of exactly `size`.
inline PooledBuffer staging_buffer(std::size_t size, BufferPool* pool) {
    return pool != nullptr && pool->buffer_bytes() >= size ? pool->acquire()
                                                           : PooledBuffer::heap(size);
}

}  // namespace ecfrm

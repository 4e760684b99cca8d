#include "common/buffer_pool.h"

#include <cstring>
#include <new>

namespace ecfrm {

namespace {

std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) / align * align;
}

}  // namespace

BufferPool::BufferPool(std::size_t buffer_bytes, std::size_t count)
    : buffer_bytes_(buffer_bytes),
      stride_(round_up(buffer_bytes == 0 ? 1 : buffer_bytes, AlignedBuffer::kAlignment)),
      count_(count) {
    arena_bytes_ = stride_ * count_;
    if (arena_bytes_ > 0) {
        arena_ = static_cast<std::uint8_t*>(
            ::operator new[](arena_bytes_, std::align_val_t(kArenaAlignment)));
        std::memset(arena_, 0, arena_bytes_);
    }
    free_.reserve(count_);
    // LIFO free list: the most recently released slab is the hottest in
    // cache, so it is handed out next.
    for (std::size_t i = 0; i < count_; ++i) free_.push_back(static_cast<int>(i));
}

BufferPool::~BufferPool() {
    if (arena_ != nullptr) {
        ::operator delete[](arena_, std::align_val_t(kArenaAlignment));
    }
}

PooledBuffer BufferPool::acquire() {
    int slab = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!free_.empty()) {
            slab = free_.back();
            free_.pop_back();
        } else {
            ++exhausted_;
        }
    }
    if (slab < 0) return PooledBuffer::heap(buffer_bytes_);
    std::uint8_t* p = arena_ + static_cast<std::size_t>(slab) * stride_;
    PooledBuffer b;
    b.pool_ = this;
    b.slab_ = slab;
    b.view_ = ByteSpan(p, buffer_bytes_);
    return b;
}

std::size_t BufferPool::available() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
}

std::int64_t BufferPool::exhausted_acquires() const {
    std::lock_guard<std::mutex> lock(mu_);
    return exhausted_;
}

void BufferPool::release_slab(int slab) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(slab);
}

void PooledBuffer::release() {
    if (pool_ != nullptr) {
        pool_->release_slab(slab_);
        pool_ = nullptr;
    }
    slab_ = -1;
    view_ = ByteSpan{};
    heap_ = AlignedBuffer();
}

}  // namespace ecfrm

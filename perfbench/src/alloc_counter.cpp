#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// Plain thread_local integers: no constructor, so reading them from
// inside operator new needs no TLS initialisation guard.
thread_local std::uint64_t t_allocs = 0;
thread_local bool t_paused = false;

void* counted_alloc(std::size_t size) {
    if (!t_paused) ++t_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    if (!t_paused) ++t_allocs;
    std::size_t alignment = static_cast<std::size_t>(align);
    if (alignment < sizeof(void*)) alignment = sizeof(void*);
    void* p = nullptr;
    if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) return nullptr;
    return p;
}

void* checked(void* p) {
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

std::uint64_t thread_allocs() { return t_allocs; }

AllocPause::AllocPause() : was_paused_(t_paused) { t_paused = true; }
AllocPause::~AllocPause() { t_paused = was_paused_; }

}  // namespace perfbench

using perfbench::checked;
using perfbench::counted_aligned_alloc;
using perfbench::counted_alloc;

void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return checked(counted_aligned_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

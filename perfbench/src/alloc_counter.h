// Heap allocation counter for the benchmark binary.
//
// alloc_counter.cpp replaces the global operator new family, so every
// allocation made through new (the store's vectors, maps, std::function
// captures, aligned element buffers) bumps a counter owned by the
// allocating thread. Reading the counter before and after a public call
// gives that call's allocations; on a store without a thread pool every
// allocation of a read happens on the calling thread, so the count is
// exact. malloc() calls that bypass operator new are not counted.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new by the calling thread so far.
std::uint64_t thread_allocs();

/// While an AllocPause is alive the calling thread's allocations are not
/// counted. The benchmark's own bookkeeping (span buffers, the timing
/// decorator's batch wrappers) runs under one so it never shows up in a
/// layer's count.
class AllocPause {
  public:
    AllocPause();
    ~AllocPause();
    AllocPause(const AllocPause&) = delete;
    AllocPause& operator=(const AllocPause&) = delete;

  private:
    bool was_paused_;
};

}  // namespace perfbench

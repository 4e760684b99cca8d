#include "gf/region.h"

#include <cassert>
#include <cstring>

#include "gf/kernels.h"
#include "gf/kernels_impl.h"

namespace ecfrm::gf {

void xor_region(ByteSpan dst, ConstByteSpan src) {
    assert(dst.size() == src.size());
    if (dst.empty()) return;
    const KernelTable& t = kernels();
    t.xor_region(dst.data(), src.data(), dst.size());
    detail::note_bytes(t.tier, dst.size());
}

void mul_region(ByteSpan dst, ConstByteSpan src, std::uint8_t c) {
    assert(dst.size() == src.size());
    if (c == 0) {
        zero_region(dst);
        return;
    }
    if (c == 1) {
        copy_region(dst, src);
        return;
    }
    if (dst.empty()) return;
    const KernelTable& t = kernels();
    t.mul_region(dst.data(), src.data(), c, dst.size());
    detail::note_bytes(t.tier, dst.size());
}

void addmul_region(ByteSpan dst, ConstByteSpan src, std::uint8_t c) {
    assert(dst.size() == src.size());
    if (c == 0) return;
    if (c == 1) {
        xor_region(dst, src);
        return;
    }
    if (dst.empty()) return;
    const KernelTable& t = kernels();
    t.addmul_region(dst.data(), src.data(), c, dst.size());
    detail::note_bytes(t.tier, dst.size());
}

void zero_region(ByteSpan dst) {
    if (!dst.empty()) std::memset(dst.data(), 0, dst.size());
}

void copy_region(ByteSpan dst, ConstByteSpan src) {
    assert(dst.size() == src.size());
    if (!dst.empty()) std::memmove(dst.data(), src.data(), dst.size());
}

}  // namespace ecfrm::gf

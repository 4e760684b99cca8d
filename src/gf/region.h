// Region kernels: bulk XOR / constant-multiply / multiply-accumulate over
// byte buffers. These are the inner loops of every encode and decode. All
// of them route through the runtime-dispatched kernel table (gf/kernels.h):
// scalar / SSSE3 / AVX2 / GFNI, selected once from CPUID and overridable
// with ECFRM_SIMD. The fused multi-source entry points (encode_regions)
// also live in kernels.h.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace ecfrm::gf {

/// dst ^= src, byte-wise. Spans must be the same length.
void xor_region(ByteSpan dst, ConstByteSpan src);

/// dst = c * src over GF(2^8). c == 0 zeroes dst; c == 1 copies.
void mul_region(ByteSpan dst, ConstByteSpan src, std::uint8_t c);

/// dst ^= c * src over GF(2^8) — the encode/decode workhorse.
/// c == 0 is a no-op; c == 1 degrades to xor_region.
void addmul_region(ByteSpan dst, ConstByteSpan src, std::uint8_t c);

/// dst = 0.
void zero_region(ByteSpan dst);

/// dst = src (plain copy, here for symmetry with the kernels above).
void copy_region(ByteSpan dst, ConstByteSpan src);

}  // namespace ecfrm::gf

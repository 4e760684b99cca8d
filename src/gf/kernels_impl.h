// Internal helpers shared by the kernel translation units (kernels.cpp and
// region_simd.cpp): scalar tail loops, the cache-blocked generic fused
// encode used by tiers without a register-accumulating kernel, and the
// per-tier byte accounting hook. Not part of the public gf API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "gf/gf256.h"
#include "gf/kernels.h"

namespace ecfrm::gf::detail {

using XorFn = void (*)(std::uint8_t*, const std::uint8_t*, std::size_t);
using MulFn = void (*)(std::uint8_t*, const std::uint8_t*, std::uint8_t, std::size_t);

/// Feed ecfrm_gf_bytes_total{tier} (no-op until metrics are attached).
void note_bytes(SimdTier tier, std::size_t bytes);

inline void mul_region_tail(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                            std::size_t n) {
    const std::uint8_t* row = Gf256::mul_row(c);
    for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

inline void addmul_region_tail(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                               std::size_t n) {
    const std::uint8_t* row = Gf256::mul_row(c);
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

/// Scalar fused-encode tail over [off, n): used by the SIMD kernels for the
/// sub-vector remainder of every region.
inline void encode_blocks_tail(std::uint8_t* const* dsts, std::size_t m,
                               const std::uint8_t* const* srcs, std::size_t k,
                               const std::uint8_t* coeffs, std::size_t off, std::size_t n) {
    const std::size_t len = n - off;
    if (len == 0) return;
    for (std::size_t p = 0; p < m; ++p) {
        std::uint8_t* d = dsts[p] + off;
        std::memset(d, 0, len);
        for (std::size_t j = 0; j < k; ++j) {
            const std::uint8_t c = coeffs[p * k + j];
            if (c == 0) continue;
            const std::uint8_t* s = srcs[j] + off;
            if (c == 1) {
                for (std::size_t i = 0; i < len; ++i) d[i] ^= s[i];
            } else {
                addmul_region_tail(d, s, c, len);
            }
        }
    }
}

/// Cache-blocked generic fused encode built from single-coefficient
/// kernels: per block every destination accumulates all k sources while
/// the block is cache-hot, so destinations are touched once per block
/// instead of once per (source, destination) pair over the full region.
inline void encode_blocks_via(std::uint8_t* const* dsts, std::size_t m,
                              const std::uint8_t* const* srcs, std::size_t k,
                              const std::uint8_t* coeffs, std::size_t n, XorFn xorf, MulFn addmulf,
                              std::size_t block) {
    for (std::size_t off = 0; off < n; off += block) {
        const std::size_t len = (n - off < block) ? (n - off) : block;
        for (std::size_t p = 0; p < m; ++p) {
            std::uint8_t* d = dsts[p] + off;
            std::memset(d, 0, len);
            for (std::size_t j = 0; j < k; ++j) {
                const std::uint8_t c = coeffs[p * k + j];
                if (c == 0) continue;
                const std::uint8_t* s = srcs[j] + off;
                if (c == 1) {
                    xorf(d, s, len);
                } else {
                    addmulf(d, s, c, len);
                }
            }
        }
    }
}

}  // namespace ecfrm::gf::detail

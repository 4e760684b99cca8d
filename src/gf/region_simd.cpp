#include "gf/region_simd.h"

#include "gf/gf256.h"
#include "gf/kernels_impl.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace ecfrm::gf::simd {

namespace {

// ---------------------------------------------------------------------------
// Coefficient table banks, built once. 8 KiB of nibble tables (SPLIT 8,4:
// lo[x] = c*x, hi[x] = c*(x<<4)) plus 2 KiB of GFNI affine matrices — the
// per-call build_tables() cost of the old AVX2 path is gone.
// ---------------------------------------------------------------------------

struct NibbleTables {
    alignas(16) std::uint8_t lo[16];
    alignas(16) std::uint8_t hi[16];
};

// VGF2P8AFFINEQB computes result bit i as parity(A.byte[7-i] & x): byte 7-i
// of the matrix holds the mask of input bits feeding output bit i. GF
// multiplication by c is linear over GF(2), so column j of that matrix is
// c * 2^j and the mask for output bit i collects bit i of each column.
std::uint64_t affine_of(std::uint8_t c) {
    std::uint8_t col[8];
    for (int j = 0; j < 8; ++j) col[j] = Gf256::mul(c, static_cast<std::uint8_t>(1u << j));
    std::uint64_t a = 0;
    for (int i = 0; i < 8; ++i) {
        std::uint8_t row = 0;
        for (int j = 0; j < 8; ++j) {
            row |= static_cast<std::uint8_t>(((col[j] >> i) & 1u) << j);
        }
        a |= static_cast<std::uint64_t>(row) << (8 * (7 - i));
    }
    return a;
}

struct Banks {
    NibbleTables nib[256];
    std::uint64_t affine[256];
    Banks() {
        for (int c = 0; c < 256; ++c) {
            for (int x = 0; x < 16; ++x) {
                nib[c].lo[x] = Gf256::mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x));
                nib[c].hi[x] =
                    Gf256::mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x << 4));
            }
            affine[c] = affine_of(static_cast<std::uint8_t>(c));
        }
    }
};

const Banks& banks() {
    static const Banks b;
    return b;
}

// ---------------------------------------------------------------------------
// XOR kernels (the c == 1 fast path of every parity row).
// ---------------------------------------------------------------------------

__attribute__((target("sse2"))) void xor_sse2(std::uint8_t* dst, const std::uint8_t* src,
                                              std::size_t n) {
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
        const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, s));
    }
    for (; i < n; ++i) dst[i] ^= src[i];
}

__attribute__((target("avx2"))) void xor_avx2(std::uint8_t* dst, const std::uint8_t* src,
                                              std::size_t n) {
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        const __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
        const __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d0, s0));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), _mm256_xor_si256(d1, s1));
    }
    for (; i + 32 <= n; i += 32) {
        const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, s));
    }
    for (; i < n; ++i) dst[i] ^= src[i];
}

// ---------------------------------------------------------------------------
// SSSE3 tier: 128-bit pshufb nibble tables.
// ---------------------------------------------------------------------------

__attribute__((target("ssse3"))) void mul_ssse3(std::uint8_t* dst, const std::uint8_t* src,
                                                std::uint8_t c, std::size_t n) {
    const NibbleTables& t = banks().nib[c];
    const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
    const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
    const __m128i mask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        const __m128i lo = _mm_and_si128(v, mask);
        const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                         _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi)));
    }
    detail::mul_region_tail(dst + i, src + i, c, n - i);
}

__attribute__((target("ssse3"))) void addmul_ssse3(std::uint8_t* dst, const std::uint8_t* src,
                                                   std::uint8_t c, std::size_t n) {
    const NibbleTables& t = banks().nib[c];
    const __m128i tlo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo));
    const __m128i thi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi));
    const __m128i mask = _mm_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        const __m128i lo = _mm_and_si128(v, mask);
        const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        const __m128i prod = _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
        const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, prod));
    }
    detail::addmul_region_tail(dst + i, src + i, c, n - i);
}

void encode_blocks_ssse3(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                         std::size_t k, const std::uint8_t* coeffs, std::size_t n) {
    detail::encode_blocks_via(dsts, m, srcs, k, coeffs, n, xor_sse2, addmul_ssse3,
                              /*block=*/16 * 1024);
}

// ---------------------------------------------------------------------------
// AVX2 tier: 256-bit vpshufb nibble tables, plus register-accumulating
// fused encode in destination groups of three (six accumulator registers,
// 64-byte segments) so each source byte is loaded once per group instead of
// once per destination, and destinations are written exactly once.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void mul_avx2(std::uint8_t* dst, const std::uint8_t* src,
                                              std::uint8_t c, std::size_t n) {
    const NibbleTables& t = banks().nib[c];
    const __m256i tlo =
        _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
    const __m256i thi =
        _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i lo = _mm256_and_si256(v, mask);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(dst + i),
            _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo), _mm256_shuffle_epi8(thi, hi)));
    }
    detail::mul_region_tail(dst + i, src + i, c, n - i);
}

__attribute__((target("avx2"))) void addmul_avx2(std::uint8_t* dst, const std::uint8_t* src,
                                                 std::uint8_t c, std::size_t n) {
    const NibbleTables& t = banks().nib[c];
    const __m256i tlo =
        _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
    const __m256i thi =
        _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i lo = _mm256_and_si256(v, mask);
        const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        const __m256i prod =
            _mm256_xor_si256(_mm256_shuffle_epi8(tlo, lo), _mm256_shuffle_epi8(thi, hi));
        const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, prod));
    }
    detail::addmul_region_tail(dst + i, src + i, c, n - i);
}

// Multiply-accumulate one 64-byte segment pair (v0, v1) into (a0, a1) by
// coefficient table t — the inner step of every fused AVX2 group kernel.
#define ECFRM_AVX2_ACC(t, lo0, hi0, lo1, hi1, a0, a1)                                         \
    do {                                                                                      \
        const __m256i tlo_ =                                                                  \
            _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>((t).lo))); \
        const __m256i thi_ =                                                                  \
            _mm256_broadcastsi128_si256(_mm_load_si128(reinterpret_cast<const __m128i*>((t).hi))); \
        (a0) = _mm256_xor_si256(                                                              \
            (a0), _mm256_xor_si256(_mm256_shuffle_epi8(tlo_, (lo0)), _mm256_shuffle_epi8(thi_, (hi0)))); \
        (a1) = _mm256_xor_si256(                                                              \
            (a1), _mm256_xor_si256(_mm256_shuffle_epi8(tlo_, (lo1)), _mm256_shuffle_epi8(thi_, (hi1)))); \
    } while (0)

__attribute__((target("avx2"))) void enc1_avx2(std::uint8_t* d0, const std::uint8_t* const* srcs,
                                               std::size_t k, const std::uint8_t* c0,
                                               std::size_t begin, std::size_t end) {
    const Banks& bk = banks();
    const __m256i mask = _mm256_set1_epi8(0x0f);
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            if (c0[j] == 0) continue;
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            const __m256i lo0 = _mm256_and_si256(v0, mask);
            const __m256i hi0 = _mm256_and_si256(_mm256_srli_epi64(v0, 4), mask);
            const __m256i lo1 = _mm256_and_si256(v1, mask);
            const __m256i hi1 = _mm256_and_si256(_mm256_srli_epi64(v1, 4), mask);
            ECFRM_AVX2_ACC(bk.nib[c0[j]], lo0, hi0, lo1, hi1, a00, a01);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
    }
}

__attribute__((target("avx2"))) void enc2_avx2(std::uint8_t* d0, std::uint8_t* d1,
                                               const std::uint8_t* const* srcs, std::size_t k,
                                               const std::uint8_t* c0, const std::uint8_t* c1,
                                               std::size_t begin, std::size_t end) {
    const Banks& bk = banks();
    const __m256i mask = _mm256_set1_epi8(0x0f);
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        __m256i a10 = _mm256_setzero_si256();
        __m256i a11 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            if (c0[j] == 0 && c1[j] == 0) continue;
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            const __m256i lo0 = _mm256_and_si256(v0, mask);
            const __m256i hi0 = _mm256_and_si256(_mm256_srli_epi64(v0, 4), mask);
            const __m256i lo1 = _mm256_and_si256(v1, mask);
            const __m256i hi1 = _mm256_and_si256(_mm256_srli_epi64(v1, 4), mask);
            if (c0[j] != 0) ECFRM_AVX2_ACC(bk.nib[c0[j]], lo0, hi0, lo1, hi1, a00, a01);
            if (c1[j] != 0) ECFRM_AVX2_ACC(bk.nib[c1[j]], lo0, hi0, lo1, hi1, a10, a11);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off), a10);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off + 32), a11);
    }
}

__attribute__((target("avx2"))) void enc3_avx2(std::uint8_t* d0, std::uint8_t* d1, std::uint8_t* d2,
                                               const std::uint8_t* const* srcs, std::size_t k,
                                               const std::uint8_t* c0, const std::uint8_t* c1,
                                               const std::uint8_t* c2, std::size_t begin,
                                               std::size_t end) {
    const Banks& bk = banks();
    const __m256i mask = _mm256_set1_epi8(0x0f);
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        __m256i a10 = _mm256_setzero_si256();
        __m256i a11 = _mm256_setzero_si256();
        __m256i a20 = _mm256_setzero_si256();
        __m256i a21 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            const __m256i lo0 = _mm256_and_si256(v0, mask);
            const __m256i hi0 = _mm256_and_si256(_mm256_srli_epi64(v0, 4), mask);
            const __m256i lo1 = _mm256_and_si256(v1, mask);
            const __m256i hi1 = _mm256_and_si256(_mm256_srli_epi64(v1, 4), mask);
            if (c0[j] != 0) ECFRM_AVX2_ACC(bk.nib[c0[j]], lo0, hi0, lo1, hi1, a00, a01);
            if (c1[j] != 0) ECFRM_AVX2_ACC(bk.nib[c1[j]], lo0, hi0, lo1, hi1, a10, a11);
            if (c2[j] != 0) ECFRM_AVX2_ACC(bk.nib[c2[j]], lo0, hi0, lo1, hi1, a20, a21);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off), a10);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off + 32), a11);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d2 + off), a20);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d2 + off + 32), a21);
    }
}

#undef ECFRM_AVX2_ACC

void encode_blocks_avx2(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                        std::size_t k, const std::uint8_t* coeffs, std::size_t n) {
    const std::size_t body = n & ~static_cast<std::size_t>(63);
    // Block the byte range so the k source slices stay L2-resident across
    // all ceil(m/3) group passes.
    constexpr std::size_t kBlock = 128 * 1024;
    for (std::size_t begin = 0; begin < body; begin += kBlock) {
        const std::size_t end = (body - begin < kBlock) ? body : begin + kBlock;
        std::size_t p = 0;
        for (; p + 3 <= m; p += 3) {
            enc3_avx2(dsts[p], dsts[p + 1], dsts[p + 2], srcs, k, coeffs + p * k,
                      coeffs + (p + 1) * k, coeffs + (p + 2) * k, begin, end);
        }
        if (m - p == 2) {
            enc2_avx2(dsts[p], dsts[p + 1], srcs, k, coeffs + p * k, coeffs + (p + 1) * k, begin,
                      end);
        } else if (m - p == 1) {
            enc1_avx2(dsts[p], srcs, k, coeffs + p * k, begin, end);
        }
    }
    detail::encode_blocks_tail(dsts, m, srcs, k, coeffs, body, n);
}

// ---------------------------------------------------------------------------
// GFNI tier: multiply-by-c as one VGF2P8AFFINEQB per 32 bytes (VEX-encoded,
// needs AVX2 + GFNI). One affine register per coefficient instead of a
// table pair frees enough registers for destination groups of four.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,gfni"))) void mul_gfni(std::uint8_t* dst, const std::uint8_t* src,
                                                   std::uint8_t c, std::size_t n) {
    const __m256i A = _mm256_set1_epi64x(static_cast<long long>(banks().affine[c]));
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_gf2p8affine_epi64_epi8(v, A, 0));
    }
    detail::mul_region_tail(dst + i, src + i, c, n - i);
}

__attribute__((target("avx2,gfni"))) void addmul_gfni(std::uint8_t* dst, const std::uint8_t* src,
                                                      std::uint8_t c, std::size_t n) {
    const __m256i A = _mm256_set1_epi64x(static_cast<long long>(banks().affine[c]));
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
        const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        const __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_xor_si256(d0, _mm256_gf2p8affine_epi64_epi8(v0, A, 0)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                            _mm256_xor_si256(d1, _mm256_gf2p8affine_epi64_epi8(v1, A, 0)));
    }
    for (; i + 32 <= n; i += 32) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_xor_si256(d, _mm256_gf2p8affine_epi64_epi8(v, A, 0)));
    }
    detail::addmul_region_tail(dst + i, src + i, c, n - i);
}

#define ECFRM_GFNI_ACC(aff, v0, v1, a0, a1)                                                \
    do {                                                                                   \
        const __m256i A_ = _mm256_set1_epi64x(static_cast<long long>(aff));                \
        (a0) = _mm256_xor_si256((a0), _mm256_gf2p8affine_epi64_epi8((v0), A_, 0));         \
        (a1) = _mm256_xor_si256((a1), _mm256_gf2p8affine_epi64_epi8((v1), A_, 0));         \
    } while (0)

__attribute__((target("avx2,gfni"))) void enc1_gfni(std::uint8_t* d0,
                                                    const std::uint8_t* const* srcs, std::size_t k,
                                                    const std::uint8_t* c0, std::size_t begin,
                                                    std::size_t end) {
    const Banks& bk = banks();
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            if (c0[j] == 0) continue;
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            ECFRM_GFNI_ACC(bk.affine[c0[j]], v0, v1, a00, a01);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
    }
}

__attribute__((target("avx2,gfni"))) void enc2_gfni(std::uint8_t* d0, std::uint8_t* d1,
                                                    const std::uint8_t* const* srcs, std::size_t k,
                                                    const std::uint8_t* c0, const std::uint8_t* c1,
                                                    std::size_t begin, std::size_t end) {
    const Banks& bk = banks();
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        __m256i a10 = _mm256_setzero_si256();
        __m256i a11 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            if (c0[j] == 0 && c1[j] == 0) continue;
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            if (c0[j] != 0) ECFRM_GFNI_ACC(bk.affine[c0[j]], v0, v1, a00, a01);
            if (c1[j] != 0) ECFRM_GFNI_ACC(bk.affine[c1[j]], v0, v1, a10, a11);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off), a10);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off + 32), a11);
    }
}

__attribute__((target("avx2,gfni"))) void enc4_gfni(std::uint8_t* d0, std::uint8_t* d1,
                                                    std::uint8_t* d2, std::uint8_t* d3,
                                                    const std::uint8_t* const* srcs, std::size_t k,
                                                    const std::uint8_t* c0, const std::uint8_t* c1,
                                                    const std::uint8_t* c2, const std::uint8_t* c3,
                                                    std::size_t begin, std::size_t end) {
    const Banks& bk = banks();
    for (std::size_t off = begin; off < end; off += 64) {
        __m256i a00 = _mm256_setzero_si256();
        __m256i a01 = _mm256_setzero_si256();
        __m256i a10 = _mm256_setzero_si256();
        __m256i a11 = _mm256_setzero_si256();
        __m256i a20 = _mm256_setzero_si256();
        __m256i a21 = _mm256_setzero_si256();
        __m256i a30 = _mm256_setzero_si256();
        __m256i a31 = _mm256_setzero_si256();
        for (std::size_t j = 0; j < k; ++j) {
            const __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off));
            const __m256i v1 =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + off + 32));
            if (c0[j] != 0) ECFRM_GFNI_ACC(bk.affine[c0[j]], v0, v1, a00, a01);
            if (c1[j] != 0) ECFRM_GFNI_ACC(bk.affine[c1[j]], v0, v1, a10, a11);
            if (c2[j] != 0) ECFRM_GFNI_ACC(bk.affine[c2[j]], v0, v1, a20, a21);
            if (c3[j] != 0) ECFRM_GFNI_ACC(bk.affine[c3[j]], v0, v1, a30, a31);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off), a00);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d0 + off + 32), a01);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off), a10);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d1 + off + 32), a11);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d2 + off), a20);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d2 + off + 32), a21);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d3 + off), a30);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(d3 + off + 32), a31);
    }
}

#undef ECFRM_GFNI_ACC

void encode_blocks_gfni(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                        std::size_t k, const std::uint8_t* coeffs, std::size_t n) {
    const std::size_t body = n & ~static_cast<std::size_t>(63);
    constexpr std::size_t kBlock = 128 * 1024;
    for (std::size_t begin = 0; begin < body; begin += kBlock) {
        const std::size_t end = (body - begin < kBlock) ? body : begin + kBlock;
        std::size_t p = 0;
        for (; p + 4 <= m; p += 4) {
            enc4_gfni(dsts[p], dsts[p + 1], dsts[p + 2], dsts[p + 3], srcs, k, coeffs + p * k,
                      coeffs + (p + 1) * k, coeffs + (p + 2) * k, coeffs + (p + 3) * k, begin, end);
        }
        for (; p + 2 <= m; p += 2) {
            enc2_gfni(dsts[p], dsts[p + 1], srcs, k, coeffs + p * k, coeffs + (p + 1) * k, begin,
                      end);
        }
        if (p < m) enc1_gfni(dsts[p], srcs, k, coeffs + p * k, begin, end);
    }
    detail::encode_blocks_tail(dsts, m, srcs, k, coeffs, body, n);
}

// ---------------------------------------------------------------------------
// Tier tables + CPUID.
// ---------------------------------------------------------------------------

const KernelTable kTableSsse3 = {
    SimdTier::ssse3, xor_sse2, mul_ssse3, addmul_ssse3, encode_blocks_ssse3,
};

const KernelTable kTableAvx2 = {
    SimdTier::avx2, xor_avx2, mul_avx2, addmul_avx2, encode_blocks_avx2,
};

const KernelTable kTableGfni = {
    SimdTier::gfni, xor_avx2, mul_gfni, addmul_gfni, encode_blocks_gfni,
};

}  // namespace

bool cpu_supports(SimdTier tier) {
    switch (tier) {
        case SimdTier::scalar:
            return true;
        case SimdTier::ssse3: {
            static const bool ok = __builtin_cpu_supports("ssse3") != 0;
            return ok;
        }
        case SimdTier::avx2: {
            static const bool ok = __builtin_cpu_supports("avx2") != 0;
            return ok;
        }
        case SimdTier::gfni: {
            static const bool ok =
                __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("gfni") != 0;
            return ok;
        }
    }
    return false;
}

const KernelTable* table_for(SimdTier tier) {
    if (!cpu_supports(tier)) return nullptr;
    switch (tier) {
        case SimdTier::scalar:
            return nullptr;  // kernels.cpp owns the scalar table
        case SimdTier::ssse3:
            return &kTableSsse3;
        case SimdTier::avx2:
            return &kTableAvx2;
        case SimdTier::gfni:
            return &kTableGfni;
    }
    return nullptr;
}

}  // namespace ecfrm::gf::simd

#else  // non-x86: no SIMD tiers, the scalar table in kernels.cpp serves all.

namespace ecfrm::gf::simd {

bool cpu_supports(SimdTier tier) { return tier == SimdTier::scalar; }

const KernelTable* table_for(SimdTier) { return nullptr; }

}  // namespace ecfrm::gf::simd

#endif

// Runtime-dispatched GF region kernel suite: a function-pointer table of
// the bulk-byte kernels behind every encode and decode, selected once at
// startup from CPUID (scalar / SSSE3 / AVX2 / GFNI) and overridable via
// ECFRM_SIMD=scalar|ssse3|avx2|gfni for A/B benchmarking.
//
// The table carries both the classic single-coefficient kernels and the
// fused multi-source `encode_blocks`: dsts[p] = XOR_j coeffs[p*k+j]*srcs[j]
// computed in one cache-blocked pass (ISA-L style) instead of m*k separate
// full-region sweeps. The high-level entry point `encode_regions` adds
// ThreadPool chunking above a size threshold and feeds the per-tier
// ecfrm_gf_bytes_total counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace ecfrm {
class ThreadPool;
namespace obs {
class MetricRegistry;
}  // namespace obs
}  // namespace ecfrm

namespace ecfrm::gf {

enum class SimdTier : int { scalar = 0, ssse3 = 1, avx2 = 2, gfni = 3 };
inline constexpr int kSimdTierCount = 4;

const char* to_string(SimdTier tier);

/// Parses "scalar"/"ssse3"/"avx2"/"gfni" (case-sensitive). Returns false
/// and leaves *out untouched on anything else.
bool parse_tier(const std::string& name, SimdTier* out);

/// One tier's kernel set. All pointers are always non-null. The coefficient
/// kernels assume c >= 2 — callers fold c == 0 (skip/zero) and c == 1
/// (xor/copy) first; the region.h wrappers do exactly that.
struct KernelTable {
    SimdTier tier;

    /// dst ^= src over n bytes.
    void (*xor_region)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
    /// dst = c * src over GF(2^8). Precondition: c >= 2.
    void (*mul_region)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c, std::size_t n);
    /// dst ^= c * src over GF(2^8). Precondition: c >= 2.
    void (*addmul_region)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c, std::size_t n);
    /// Fused encode: dsts[p] = XOR_{j<k} coeffs[p*k+j] * srcs[j] for p < m,
    /// over n bytes per region. Overwrites dsts; coeffs may contain 0 and 1.
    void (*encode_blocks)(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                          std::size_t k, const std::uint8_t* coeffs, std::size_t n);
};

/// True when the running CPU can execute `tier` (scalar is always true).
bool tier_supported(SimdTier tier);

/// Highest tier the CPU supports.
SimdTier best_supported_tier();

/// Kernel table for a specific tier, or nullptr when the CPU lacks it.
/// Used by the differential tests and the `ecfrm_cli simd` microbench.
const KernelTable* kernels_for(SimdTier tier);

/// The active kernel table. First call resolves the default tier: the best
/// the CPU supports, clamped by a valid ECFRM_SIMD override if set.
const KernelTable& kernels();

SimdTier active_tier();

/// Forces the active tier. Returns false (and changes nothing) when the CPU
/// does not support it.
bool set_active_tier(SimdTier tier);

/// Attach the per-tier byte counters (ecfrm_gf_bytes_total{tier=...}).
/// Counts coefficient-region bytes processed: n per single-coefficient
/// call, m*k*n per fused encode. nullptr detaches.
void attach_kernel_metrics(obs::MetricRegistry* registry);

/// Fused multi-destination encode over GF(2^8): dsts[p] = XOR_j
/// coeffs[p*k+j] * srcs[j]. All spans share one length. When `pool` is
/// given and the regions are large, the byte range is chunked across it
/// (parallel_for is nesting-safe: the caller participates).
void encode_regions(std::span<const ConstByteSpan> srcs, std::span<const ByteSpan> dsts,
                    const std::uint8_t* coeffs, ThreadPool* pool = nullptr);

}  // namespace ecfrm::gf

#include "gf/kernels.h"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "gf/gf256.h"
#include "gf/kernels_impl.h"
#include "gf/region_simd.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace ecfrm::gf {

namespace {

// ---------------------------------------------------------------------------
// Scalar tier: the portable baseline every SIMD tier is differentially
// tested against.
// ---------------------------------------------------------------------------

void xor_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
    // Word-wide via memcpy: strict-aliasing clean, lowers to 64-bit ops.
    while (n >= 8) {
        std::uint64_t a, b;
        std::memcpy(&a, dst, 8);
        std::memcpy(&b, src, 8);
        a ^= b;
        std::memcpy(dst, &a, 8);
        dst += 8;
        src += 8;
        n -= 8;
    }
    while (n > 0) {
        *dst++ ^= *src++;
        --n;
    }
}

void mul_scalar(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c, std::size_t n) {
    detail::mul_region_tail(dst, src, c, n);
}

void addmul_scalar(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c, std::size_t n) {
    detail::addmul_region_tail(dst, src, c, n);
}

void encode_blocks_scalar(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                          std::size_t k, const std::uint8_t* coeffs, std::size_t n) {
    detail::encode_blocks_via(dsts, m, srcs, k, coeffs, n, xor_scalar, addmul_scalar,
                              /*block=*/16 * 1024);
}

const KernelTable kTableScalar = {
    SimdTier::scalar, xor_scalar, mul_scalar, addmul_scalar, encode_blocks_scalar,
};

// ---------------------------------------------------------------------------
// Tier selection. Resolved once on first use: best CPU tier, clamped by a
// valid ECFRM_SIMD override; set_active_tier() can re-point it later.
// ---------------------------------------------------------------------------

const KernelTable* table_of(SimdTier tier) {
    if (tier == SimdTier::scalar) return &kTableScalar;
    return simd::table_for(tier);
}

SimdTier default_tier() {
    SimdTier tier = best_supported_tier();
    if (const char* env = std::getenv("ECFRM_SIMD")) {
        SimdTier wanted;
        if (!parse_tier(env, &wanted)) {
            log_warn(std::string("ECFRM_SIMD=") + env + " is not scalar|ssse3|avx2|gfni; using " +
                     to_string(tier));
        } else if (!tier_supported(wanted)) {
            log_warn(std::string("ECFRM_SIMD=") + env + " not supported by this CPU; using " +
                     to_string(tier));
        } else {
            tier = wanted;
        }
    }
    return tier;
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* resolve_active() {
    const KernelTable* t = table_of(default_tier());
    // First resolver wins; losers adopt the published table.
    const KernelTable* expected = nullptr;
    if (g_active.compare_exchange_strong(expected, t)) return t;
    return expected;
}

// Per-tier byte counters, attached late (nullptr until observability is
// wired). Indexed by SimdTier.
std::atomic<obs::Counter*> g_bytes[kSimdTierCount] = {};

}  // namespace

namespace detail {

void note_bytes(SimdTier tier, std::size_t bytes) {
    obs::Counter* c = g_bytes[static_cast<int>(tier)].load(std::memory_order_acquire);
    if (c != nullptr) c->add(static_cast<std::int64_t>(bytes));
}

}  // namespace detail

const char* to_string(SimdTier tier) {
    switch (tier) {
        case SimdTier::scalar:
            return "scalar";
        case SimdTier::ssse3:
            return "ssse3";
        case SimdTier::avx2:
            return "avx2";
        case SimdTier::gfni:
            return "gfni";
    }
    return "unknown";
}

bool parse_tier(const std::string& name, SimdTier* out) {
    for (int t = 0; t < kSimdTierCount; ++t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        if (name == to_string(tier)) {
            *out = tier;
            return true;
        }
    }
    return false;
}

bool tier_supported(SimdTier tier) {
    return tier == SimdTier::scalar || simd::cpu_supports(tier);
}

SimdTier best_supported_tier() {
    for (int t = kSimdTierCount - 1; t > 0; --t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        if (simd::cpu_supports(tier)) return tier;
    }
    return SimdTier::scalar;
}

const KernelTable* kernels_for(SimdTier tier) { return table_of(tier); }

const KernelTable& kernels() {
    const KernelTable* t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) t = resolve_active();
    return *t;
}

SimdTier active_tier() { return kernels().tier; }

bool set_active_tier(SimdTier tier) {
    const KernelTable* t = table_of(tier);
    if (t == nullptr) return false;
    g_active.store(t, std::memory_order_release);
    return true;
}

void attach_kernel_metrics(obs::MetricRegistry* registry) {
    if (registry == nullptr) {
        for (auto& slot : g_bytes) slot.store(nullptr, std::memory_order_release);
        return;
    }
    registry->describe("ecfrm_gf_bytes_total",
                       "Coefficient-region bytes processed by the GF kernels, by SIMD tier "
                       "(n per single-coefficient call, m*k*n per fused encode).");
    for (int t = 0; t < kSimdTierCount; ++t) {
        const SimdTier tier = static_cast<SimdTier>(t);
        obs::Counter& c =
            registry->counter("ecfrm_gf_bytes_total", obs::Labels{{"tier", to_string(tier)}});
        g_bytes[t].store(&c, std::memory_order_release);
    }
}

// ---------------------------------------------------------------------------
// Fused high-level entry points.
// ---------------------------------------------------------------------------

namespace {

/// Regions at or above this size are sliced across the pool.
constexpr std::size_t kParallelMinBytes = 1 << 20;
/// Slice granularity: big enough to amortise dispatch, small enough to
/// spread a few-MiB region over several workers. A multiple of 64 bytes,
/// so only the last chunk runs a kernel's scalar tail.
constexpr std::size_t kParallelChunkBytes = 256 << 10;

/// Pointer tables up to this many regions live on the stack.
constexpr std::size_t kInlineRegions = 64;

void run_encode8(std::uint8_t* const* dsts, std::size_t m, const std::uint8_t* const* srcs,
                 std::size_t k, const std::uint8_t* coeffs, std::size_t off, std::size_t len) {
    // Shift the window rather than the pointer arrays: chunk counts are
    // small, so the per-chunk copies stay cheap and allocation-free.
    std::uint8_t* d[kInlineRegions];
    const std::uint8_t* s[kInlineRegions];
    std::uint8_t* const* dp = dsts;
    const std::uint8_t* const* sp = srcs;
    std::vector<std::uint8_t*> dbig;
    std::vector<const std::uint8_t*> sbig;
    if (off != 0) {
        if (m > kInlineRegions || k > kInlineRegions) {
            dbig.resize(m);
            sbig.resize(k);
            for (std::size_t p = 0; p < m; ++p) dbig[p] = dsts[p] + off;
            for (std::size_t j = 0; j < k; ++j) sbig[j] = srcs[j] + off;
            dp = dbig.data();
            sp = sbig.data();
        } else {
            for (std::size_t p = 0; p < m; ++p) d[p] = dsts[p] + off;
            for (std::size_t j = 0; j < k; ++j) s[j] = srcs[j] + off;
            dp = d;
            sp = s;
        }
    }
    const KernelTable& t = kernels();
    t.encode_blocks(dp, m, sp, k, coeffs, len);
    detail::note_bytes(t.tier, m * k * len);
}

void encode_dispatch(std::span<const ConstByteSpan> srcs, std::span<const ByteSpan> dsts,
                     const std::uint8_t* coeffs, ThreadPool* pool) {
    const std::size_t k = srcs.size();
    const std::size_t m = dsts.size();
    if (m == 0) return;
    const std::size_t n = dsts[0].size();
#ifndef NDEBUG
    for (const auto& d : dsts) assert(d.size() == n);
    for (const auto& s : srcs) assert(s.size() == n);
#endif
    if (k == 0 || n == 0) {
        for (const auto& d : dsts) {
            if (!d.empty()) std::memset(d.data(), 0, d.size());
        }
        return;
    }

    // The usual fused call (a decode, a stripe encode) stays allocation-free.
    std::uint8_t* dinline[kInlineRegions];
    const std::uint8_t* sinline[kInlineRegions];
    std::vector<std::uint8_t*> dbig;
    std::vector<const std::uint8_t*> sbig;
    std::uint8_t** dptr = dinline;
    const std::uint8_t** sptr = sinline;
    if (m > kInlineRegions) {
        dbig.resize(m);
        dptr = dbig.data();
    }
    if (k > kInlineRegions) {
        sbig.resize(k);
        sptr = sbig.data();
    }
    for (std::size_t p = 0; p < m; ++p) dptr[p] = dsts[p].data();
    for (std::size_t j = 0; j < k; ++j) sptr[j] = srcs[j].data();

    if (pool != nullptr && pool->thread_count() > 1 && n >= kParallelMinBytes) {
        const std::size_t chunks = (n + kParallelChunkBytes - 1) / kParallelChunkBytes;
        parallel_for(*pool, chunks, [&](std::size_t ci) {
            const std::size_t off = ci * kParallelChunkBytes;
            const std::size_t len = (n - off < kParallelChunkBytes) ? n - off : kParallelChunkBytes;
            run_encode8(dptr, m, sptr, k, coeffs, off, len);
        });
    } else {
        run_encode8(dptr, m, sptr, k, coeffs, 0, n);
    }
}

}  // namespace

void encode_regions(std::span<const ConstByteSpan> srcs, std::span<const ByteSpan> dsts,
                    const std::uint8_t* coeffs, ThreadPool* pool) {
    encode_dispatch(srcs, dsts, coeffs, pool);
}

}  // namespace ecfrm::gf

// Micro-benchmarks for the GF(2^8) region kernels (google-benchmark).
// Supports the paper's premise (Section II-D): with table-driven Galois
// arithmetic, coding compute is far faster than disk I/O, so read
// performance is layout-bound.
//
// The per-tier and fused benchmarks below report bytes_per_second in
// GF-work bytes: a fused encode of m destinations from k sources over n
// bytes performs m*k*n byte-multiplies, the same accounting as running
// m*k single-coefficient addmul passes — so BM_EncodeFused and
// BM_EncodeNaive are directly comparable and their ratio is the fusion
// win.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "gf/region.h"

namespace {

using namespace ecfrm;

void fill_random(AlignedBuffer& buf, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<std::uint8_t>(rng.next_below(256));
}

void BM_XorRegion(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    AlignedBuffer dst(size), src(size);
    fill_random(dst, 1);
    fill_random(src, 2);
    for (auto _ : state) {
        gf::xor_region(dst.span(), src.span());
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_XorRegion)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_MulRegion(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    AlignedBuffer dst(size), src(size);
    fill_random(src, 3);
    for (auto _ : state) {
        gf::mul_region(dst.span(), src.span(), 0x57);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_MulRegion)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_AddmulRegion(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    AlignedBuffer dst(size), src(size);
    fill_random(dst, 4);
    fill_random(src, 5);
    for (auto _ : state) {
        gf::addmul_region(dst.span(), src.span(), 0x57);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(size));
}
BENCHMARK(BM_AddmulRegion)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

// --- per-tier kernels ------------------------------------------------------
// range(0) = tier, range(1) = bytes. Unsupported tiers skip cleanly so the
// suite runs unchanged on hosts without AVX2/GFNI.

const gf::KernelTable* tier_or_skip(benchmark::State& state) {
    const auto tier = static_cast<gf::SimdTier>(state.range(0));
    const gf::KernelTable* kt = gf::kernels_for(tier);
    if (kt == nullptr) state.SkipWithError("tier not supported on this CPU");
    return kt;
}

void tier_args(benchmark::internal::Benchmark* b) {
    for (int t = 0; t < gf::kSimdTierCount; ++t) b->Args({t, 1 << 20});
}

void BM_AddmulTier(benchmark::State& state) {
    const gf::KernelTable* kt = tier_or_skip(state);
    if (kt == nullptr) return;
    const auto size = static_cast<std::size_t>(state.range(1));
    AlignedBuffer dst(size), src(size);
    fill_random(dst, 10);
    fill_random(src, 11);
    for (auto _ : state) {
        kt->addmul_region(dst.data(), src.data(), 0x57, size);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(size));
    state.SetLabel(gf::to_string(kt->tier));
}
BENCHMARK(BM_AddmulTier)->Apply(tier_args);

void BM_XorTier(benchmark::State& state) {
    const gf::KernelTable* kt = tier_or_skip(state);
    if (kt == nullptr) return;
    const auto size = static_cast<std::size_t>(state.range(1));
    AlignedBuffer dst(size), src(size);
    fill_random(dst, 12);
    fill_random(src, 13);
    for (auto _ : state) {
        kt->xor_region(dst.data(), src.data(), size);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * static_cast<std::int64_t>(size));
    state.SetLabel(gf::to_string(kt->tier));
}
BENCHMARK(BM_XorTier)->Apply(tier_args);

// --- fused encode vs the pre-fusion pattern --------------------------------
// RS(6,3) over 1 MiB regions, the shape StripeStore::encode_group feeds the
// codec. Both variants count m*k*n GF-work bytes per iteration.

struct EncodeFixture {
    static constexpr std::size_t kK = 6, kM = 3;
    std::size_t n;
    std::vector<AlignedBuffer> srcs, dsts;
    std::vector<const std::uint8_t*> sptr;
    std::vector<std::uint8_t*> dptr;
    std::uint8_t coeffs[kM * kK];

    explicit EncodeFixture(std::size_t bytes) : n(bytes) {
        for (std::size_t j = 0; j < kK; ++j) {
            srcs.emplace_back(n);
            fill_random(srcs.back(), 20 + j);
            sptr.push_back(srcs.back().data());
        }
        for (std::size_t p = 0; p < kM; ++p) {
            dsts.emplace_back(n);
            dptr.push_back(dsts.back().data());
        }
        Rng rng(30);
        for (auto& c : coeffs) c = static_cast<std::uint8_t>(1 + rng.next_below(255));
    }

    std::int64_t work_bytes(std::int64_t iterations) const {
        return iterations * static_cast<std::int64_t>(kM * kK * n);
    }
};

void BM_EncodeNaive(benchmark::State& state) {
    const gf::KernelTable* kt = tier_or_skip(state);
    if (kt == nullptr) return;
    EncodeFixture fx(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        // The pre-fusion code path: one region pass per matrix coefficient,
        // re-streaming the destination m*(k-1) times.
        for (std::size_t p = 0; p < fx.kM; ++p) {
            kt->mul_region(fx.dptr[p], fx.sptr[0], fx.coeffs[p * fx.kK], fx.n);
            for (std::size_t j = 1; j < fx.kK; ++j) {
                kt->addmul_region(fx.dptr[p], fx.sptr[j], fx.coeffs[p * fx.kK + j], fx.n);
            }
        }
        benchmark::DoNotOptimize(fx.dptr.data());
    }
    state.SetBytesProcessed(fx.work_bytes(static_cast<std::int64_t>(state.iterations())));
    state.SetLabel(gf::to_string(kt->tier));
}
BENCHMARK(BM_EncodeNaive)->Apply(tier_args);

void BM_EncodeFused(benchmark::State& state) {
    const gf::KernelTable* kt = tier_or_skip(state);
    if (kt == nullptr) return;
    EncodeFixture fx(static_cast<std::size_t>(state.range(1)));
    for (auto _ : state) {
        kt->encode_blocks(fx.dptr.data(), fx.kM, fx.sptr.data(), fx.kK, fx.coeffs, fx.n);
        benchmark::DoNotOptimize(fx.dptr.data());
    }
    state.SetBytesProcessed(fx.work_bytes(static_cast<std::int64_t>(state.iterations())));
    state.SetLabel(gf::to_string(kt->tier));
}
BENCHMARK(BM_EncodeFused)->Apply(tier_args);

// Pool-chunked encode_regions on regions big enough to clear the 1 MiB
// parallel threshold; counts the same GF-work bytes.
void BM_EncodePooled(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    EncodeFixture fx(size);
    std::vector<ConstByteSpan> sspan;
    std::vector<ByteSpan> dspan;
    for (std::size_t j = 0; j < fx.kK; ++j) sspan.push_back({fx.srcs[j].data(), fx.n});
    for (std::size_t p = 0; p < fx.kM; ++p) dspan.push_back({fx.dsts[p].data(), fx.n});
    ThreadPool pool;
    for (auto _ : state) {
        gf::encode_regions(sspan, dspan, fx.coeffs, &pool);
        benchmark::DoNotOptimize(dspan.data());
    }
    state.SetBytesProcessed(fx.work_bytes(static_cast<std::int64_t>(state.iterations())));
}
BENCHMARK(BM_EncodePooled)->Arg(4 << 20);

void BM_ScalarMul(benchmark::State& state) {
    Rng rng(6);
    std::uint8_t a = static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::uint8_t b = static_cast<std::uint8_t>(1 + rng.next_below(255));
    for (auto _ : state) {
        a = gf::Gf256::mul(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_ScalarMul);

}  // namespace

#include "gbench_main.h"  // artifact-aware BENCHMARK_MAIN replacement

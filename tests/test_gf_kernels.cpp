// Differential suite for the runtime-dispatched GF kernel tiers
// (gf/kernels.h): every tier the CPU exposes is checked against a plain
// Gf256/Gf65536 reference — all 256 coefficients, unaligned src/dst
// offsets, tail lengths 0-63 — plus fused-encode vs naive-encode
// equivalence on random matrices, pool-chunked equivalence, and the
// region.h compatibility shims. Runs under ASan/UBSan in CI, which also
// exercises every target-attribute kernel's scalar tails.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "gf/kernels.h"
#include "gf/region.h"
#include "obs/metrics.h"

namespace {

using ecfrm::Rng;
using ecfrm::ThreadPool;
using ecfrm::gf::Gf256;
using ecfrm::gf::Gf65536;
using ecfrm::gf::KernelTable;
using ecfrm::gf::SimdTier;

std::vector<SimdTier> available_tiers() {
    std::vector<SimdTier> tiers;
    for (int t = 0; t < ecfrm::gf::kSimdTierCount; ++t) {
        const auto tier = static_cast<SimdTier>(t);
        if (ecfrm::gf::kernels_for(tier) != nullptr) tiers.push_back(tier);
    }
    return tiers;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
    return v;
}

class TierSuite : public ::testing::TestWithParam<SimdTier> {};

TEST(Kernels, TierMetadata) {
    EXPECT_STREQ(ecfrm::gf::to_string(SimdTier::scalar), "scalar");
    EXPECT_STREQ(ecfrm::gf::to_string(SimdTier::gfni), "gfni");
    SimdTier t = SimdTier::scalar;
    EXPECT_TRUE(ecfrm::gf::parse_tier("avx2", &t));
    EXPECT_EQ(t, SimdTier::avx2);
    EXPECT_FALSE(ecfrm::gf::parse_tier("avx512", &t));
    EXPECT_EQ(t, SimdTier::avx2);  // untouched on failure

    EXPECT_TRUE(ecfrm::gf::tier_supported(SimdTier::scalar));
    ASSERT_NE(ecfrm::gf::kernels_for(SimdTier::scalar), nullptr);
    EXPECT_EQ(ecfrm::gf::kernels_for(SimdTier::scalar)->tier, SimdTier::scalar);

    // The active tier is always one the CPU supports.
    EXPECT_TRUE(ecfrm::gf::tier_supported(ecfrm::gf::active_tier()));
    // Higher tiers imply the lower SIMD tiers on x86 (gfni => avx2 => ssse3).
    if (ecfrm::gf::tier_supported(SimdTier::gfni)) {
        EXPECT_TRUE(ecfrm::gf::tier_supported(SimdTier::avx2));
    }
    if (ecfrm::gf::tier_supported(SimdTier::avx2)) {
        EXPECT_TRUE(ecfrm::gf::tier_supported(SimdTier::ssse3));
    }
}

TEST(Kernels, SetActiveTier) {
    const SimdTier before = ecfrm::gf::active_tier();
    for (SimdTier tier : available_tiers()) {
        EXPECT_TRUE(ecfrm::gf::set_active_tier(tier));
        EXPECT_EQ(ecfrm::gf::active_tier(), tier);
        EXPECT_EQ(&ecfrm::gf::kernels(), ecfrm::gf::kernels_for(tier));
    }
    EXPECT_TRUE(ecfrm::gf::set_active_tier(before));
}

// Every coefficient x offsets x tail lengths 0-63: mul and addmul against
// the Gf256 table, through the raw per-tier kernel pointers.
TEST_P(TierSuite, MulAddmulDifferentialExhaustive) {
    const KernelTable* t = ecfrm::gf::kernels_for(GetParam());
    ASSERT_NE(t, nullptr);
    Rng rng(0x6b65726eu);

    // Offsets de-align src and dst independently; length = vector body +
    // tail covers the main loop boundary, bare tails cover len < one vector.
    const struct {
        std::size_t src_off, dst_off;
    } offsets[] = {{0, 0}, {1, 3}, {7, 2}};
    constexpr std::size_t kBody = 192;
    const auto base_src = random_bytes(rng, kBody + 64 + 8);
    std::vector<std::uint8_t> base_dst = random_bytes(rng, kBody + 64 + 8);

    std::vector<std::uint8_t> got(base_dst.size());
    std::vector<std::uint8_t> want(base_dst.size());
    for (int c = 2; c < 256; ++c) {
        const std::uint8_t* row = Gf256::mul_row(static_cast<std::uint8_t>(c));
        for (const auto& off : offsets) {
            for (std::size_t tail = 0; tail < 64; ++tail) {
                for (const std::size_t len : {tail, kBody + tail}) {
                    const std::uint8_t* s = base_src.data() + off.src_off;
                    // mul
                    got = base_dst;
                    want = base_dst;
                    t->mul_region(got.data() + off.dst_off, s, static_cast<std::uint8_t>(c), len);
                    for (std::size_t i = 0; i < len; ++i) want[off.dst_off + i] = row[s[i]];
                    ASSERT_EQ(got, want) << "mul c=" << c << " len=" << len;
                    // addmul
                    got = base_dst;
                    want = base_dst;
                    t->addmul_region(got.data() + off.dst_off, s, static_cast<std::uint8_t>(c),
                                     len);
                    for (std::size_t i = 0; i < len; ++i) want[off.dst_off + i] ^= row[s[i]];
                    ASSERT_EQ(got, want) << "addmul c=" << c << " len=" << len;
                }
            }
        }
    }
}

TEST_P(TierSuite, XorDifferential) {
    const KernelTable* t = ecfrm::gf::kernels_for(GetParam());
    ASSERT_NE(t, nullptr);
    Rng rng(0x786f72u);
    const auto base_src = random_bytes(rng, 4096 + 80);
    const auto base_dst = random_bytes(rng, 4096 + 80);
    std::vector<std::uint8_t> got, want;
    for (const std::size_t src_off : {std::size_t{0}, std::size_t{5}}) {
        for (const std::size_t dst_off : {std::size_t{0}, std::size_t{3}}) {
            for (std::size_t len = 0; len < 130; ++len) {
                got = base_dst;
                want = base_dst;
                t->xor_region(got.data() + dst_off, base_src.data() + src_off, len);
                for (std::size_t i = 0; i < len; ++i) {
                    want[dst_off + i] ^= base_src[src_off + i];
                }
                ASSERT_EQ(got, want) << "xor len=" << len;
            }
            got = base_dst;
            want = base_dst;
            t->xor_region(got.data() + dst_off, base_src.data() + src_off, 4096 + 7);
            for (std::size_t i = 0; i < 4096 + 7; ++i) want[dst_off + i] ^= base_src[src_off + i];
            ASSERT_EQ(got, want);
        }
    }
}

TEST_P(TierSuite, Addmul16Differential) {
    const KernelTable* t = ecfrm::gf::kernels_for(GetParam());
    ASSERT_NE(t, nullptr);
    Rng rng(0x31360000u);

    std::vector<std::uint16_t> coeffs = {2,      3,      0x1d,   0x100,  0x101,
                                         0x8000, 0xfffe, 0xffff, 0x1111, 0x0f0f};
    for (int i = 0; i < 48; ++i) {
        std::uint16_t c = static_cast<std::uint16_t>(rng.next_u64() & 0xffff);
        if (c >= 2) coeffs.push_back(c);
    }

    const auto base_src = random_bytes(rng, 4096 + 96);
    const auto base_dst = random_bytes(rng, 4096 + 96);
    std::vector<std::uint8_t> got, want;
    for (const std::uint16_t c : coeffs) {
        for (const std::size_t off : {std::size_t{0}, std::size_t{2}, std::size_t{6}}) {
            for (const std::size_t len :
                 {std::size_t{0}, std::size_t{2}, std::size_t{30}, std::size_t{62},
                  std::size_t{64}, std::size_t{4096 + 18}}) {
                got = base_dst;
                want = base_dst;
                t->addmul16_region(got.data() + off, base_src.data() + off, c, len);
                for (std::size_t i = 0; i + 2 <= len; i += 2) {
                    std::uint16_t s, d;
                    std::memcpy(&s, base_src.data() + off + i, 2);
                    std::memcpy(&d, want.data() + off + i, 2);
                    d ^= Gf65536::mul(c, s);
                    std::memcpy(want.data() + off + i, &d, 2);
                }
                ASSERT_EQ(got, want) << "addmul16 c=" << c << " len=" << len;
            }
        }
    }
}

// Fused encode_blocks against the naive m*k single-coefficient reference,
// on random matrices salted with forced 0 and 1 coefficients, lengths
// straddling the 64-byte segment and the 128 KiB block boundary.
TEST_P(TierSuite, FusedEncodeMatchesNaive) {
    const KernelTable* t = ecfrm::gf::kernels_for(GetParam());
    ASSERT_NE(t, nullptr);
    Rng rng(0x66757365u);

    const struct {
        std::size_t k, m;
    } shapes[] = {{1, 1}, {4, 2}, {6, 3}, {10, 4}, {3, 7}};
    const std::size_t lengths[] = {0, 1, 63, 64, 65, 1000, (128 << 10) + 129};

    for (const auto& shape : shapes) {
        std::vector<std::uint8_t> coeffs(shape.m * shape.k);
        for (auto& c : coeffs) c = static_cast<std::uint8_t>(rng.next_u64() & 0xff);
        coeffs[0] = 0;  // force the identity/skip fast paths into play
        if (coeffs.size() > 1) coeffs[1] = 1;
        if (coeffs.size() > 3) coeffs[3] = 0;

        for (const std::size_t n : lengths) {
            std::vector<std::vector<std::uint8_t>> srcs(shape.k);
            std::vector<const std::uint8_t*> sptr(shape.k);
            for (std::size_t j = 0; j < shape.k; ++j) {
                srcs[j] = random_bytes(rng, n);
                sptr[j] = srcs[j].data();
            }
            std::vector<std::vector<std::uint8_t>> got(shape.m), want(shape.m);
            std::vector<std::uint8_t*> dptr(shape.m);
            for (std::size_t p = 0; p < shape.m; ++p) {
                got[p] = random_bytes(rng, n);  // must be overwritten
                want[p].assign(n, 0);
                dptr[p] = got[p].data();
                for (std::size_t j = 0; j < shape.k; ++j) {
                    const std::uint8_t c = coeffs[p * shape.k + j];
                    if (c == 0) continue;
                    const std::uint8_t* row = Gf256::mul_row(c);
                    for (std::size_t i = 0; i < n; ++i) want[p][i] ^= row[srcs[j][i]];
                }
            }
            t->encode_blocks(dptr.data(), shape.m, sptr.data(), shape.k, coeffs.data(), n);
            for (std::size_t p = 0; p < shape.m; ++p) {
                ASSERT_EQ(got[p], want[p]) << "k=" << shape.k << " m=" << shape.m << " n=" << n
                                           << " dest=" << p;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, TierSuite, ::testing::ValuesIn(available_tiers()),
                         [](const ::testing::TestParamInfo<SimdTier>& info) {
                             return std::string(ecfrm::gf::to_string(info.param));
                         });

// encode_regions with a pool must agree byte-for-byte with the serial
// path, including from inside a pool task (nested parallel_for).
TEST(EncodeRegions, PoolChunkingMatchesSerial) {
    Rng rng(0x706f6f6cu);
    constexpr std::size_t kN = (3 << 20) + 4099;  // crosses several chunks, odd tail
    constexpr std::size_t kK = 6, kM = 3;

    std::vector<std::vector<std::uint8_t>> srcs(kK);
    std::vector<ecfrm::ConstByteSpan> sspan(kK);
    for (std::size_t j = 0; j < kK; ++j) {
        srcs[j] = random_bytes(rng, kN);
        sspan[j] = {srcs[j].data(), srcs[j].size()};
    }
    std::vector<std::uint8_t> coeffs(kM * kK);
    for (auto& c : coeffs) c = static_cast<std::uint8_t>(rng.next_u64() & 0xff);

    std::vector<std::vector<std::uint8_t>> serial(kM, std::vector<std::uint8_t>(kN, 0xaa));
    std::vector<std::vector<std::uint8_t>> pooled(kM, std::vector<std::uint8_t>(kN, 0x55));
    std::vector<ecfrm::ByteSpan> sdst(kM), pdst(kM);
    for (std::size_t p = 0; p < kM; ++p) {
        sdst[p] = {serial[p].data(), serial[p].size()};
        pdst[p] = {pooled[p].data(), pooled[p].size()};
    }

    ecfrm::gf::encode_regions(sspan, sdst, coeffs.data(), nullptr);
    ThreadPool pool(4);
    ecfrm::gf::encode_regions(sspan, pdst, coeffs.data(), &pool);
    for (std::size_t p = 0; p < kM; ++p) ASSERT_EQ(serial[p], pooled[p]);

    // Nested: the outer parallel_for occupies workers while each task runs
    // a pooled encode — caller participation must keep this live.
    std::vector<std::vector<std::uint8_t>> nested(kM, std::vector<std::uint8_t>(kN));
    std::atomic<int> mismatches{0};
    ecfrm::parallel_for(pool, 4, [&](std::size_t) {
        std::vector<std::vector<std::uint8_t>> out(kM, std::vector<std::uint8_t>(kN));
        std::vector<ecfrm::ByteSpan> odst(kM);
        for (std::size_t p = 0; p < kM; ++p) odst[p] = {out[p].data(), out[p].size()};
        ecfrm::gf::encode_regions(sspan, odst, coeffs.data(), &pool);
        for (std::size_t p = 0; p < kM; ++p) {
            if (out[p] != serial[p]) mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(EncodeRegions, Encode16MatchesScalarReference) {
    Rng rng(0x31367773u);
    constexpr std::size_t kN = 40000;  // even, crosses 16 KiB blocks
    constexpr std::size_t kK = 5, kM = 3;

    std::vector<std::vector<std::uint8_t>> srcs(kK);
    std::vector<ecfrm::ConstByteSpan> sspan(kK);
    for (std::size_t j = 0; j < kK; ++j) {
        srcs[j] = random_bytes(rng, kN);
        sspan[j] = {srcs[j].data(), srcs[j].size()};
    }
    std::vector<std::uint16_t> coeffs(kM * kK);
    for (auto& c : coeffs) c = static_cast<std::uint16_t>(rng.next_u64() & 0xffff);
    coeffs[0] = 0;
    coeffs[1] = 1;

    std::vector<std::vector<std::uint8_t>> got(kM, std::vector<std::uint8_t>(kN, 0x77));
    std::vector<ecfrm::ByteSpan> dst(kM);
    for (std::size_t p = 0; p < kM; ++p) dst[p] = {got[p].data(), got[p].size()};
    ecfrm::gf::encode16_regions(sspan, dst, coeffs.data());

    for (std::size_t p = 0; p < kM; ++p) {
        std::vector<std::uint8_t> want(kN, 0);
        for (std::size_t j = 0; j < kK; ++j) {
            const std::uint16_t c = coeffs[p * kK + j];
            if (c == 0) continue;
            for (std::size_t i = 0; i < kN; i += 2) {
                std::uint16_t s, d;
                std::memcpy(&s, srcs[j].data() + i, 2);
                std::memcpy(&d, want.data() + i, 2);
                d ^= Gf65536::mul(c, s);
                std::memcpy(want.data() + i, &d, 2);
            }
        }
        ASSERT_EQ(got[p], want) << "dest " << p;
    }
}

TEST(EncodeRegions, DegenerateShapes) {
    std::vector<std::uint8_t> buf(64, 0xff);
    std::vector<ecfrm::ByteSpan> dst{{buf.data(), buf.size()}};
    // k == 0 zeroes the destinations.
    ecfrm::gf::encode_regions({}, dst, nullptr);
    EXPECT_EQ(buf, std::vector<std::uint8_t>(64, 0));
    // m == 0 and n == 0 are no-ops.
    ecfrm::gf::encode_regions({}, {}, nullptr);
    std::vector<ecfrm::ByteSpan> empty_dst{{buf.data(), std::size_t{0}}};
    std::vector<ecfrm::ConstByteSpan> empty_src{{buf.data(), std::size_t{0}}};
    const std::uint8_t c = 5;
    ecfrm::gf::encode_regions(empty_src, empty_dst, &c);
}

TEST(KernelMetrics, PerTierByteCounter) {
    ecfrm::obs::MetricRegistry registry("test");
    ecfrm::gf::attach_kernel_metrics(&registry);
    const SimdTier tier = ecfrm::gf::active_tier();
    auto& counter =
        registry.counter("ecfrm_gf_bytes_total", {{"tier", ecfrm::gf::to_string(tier)}});
    const auto before = counter.value();

    std::vector<std::uint8_t> a(1024, 1), b(1024, 2);
    ecfrm::gf::addmul_region({a.data(), a.size()}, {b.data(), b.size()}, 7);
    EXPECT_EQ(counter.value(), before + 1024);

    // Detach BEFORE the registry dies — the kernels keep raw pointers.
    ecfrm::gf::attach_kernel_metrics(nullptr);
    ecfrm::gf::addmul_region({a.data(), a.size()}, {b.data(), b.size()}, 7);
    EXPECT_EQ(counter.value(), before + 1024);
}

}  // namespace

// GF(2^8) field axioms and region-kernel behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "gf/region.h"

namespace ecfrm::gf {
namespace {

TEST(Gf256, AdditionIsXor) {
    EXPECT_EQ(Gf256::add(0x53, 0xCA), 0x53 ^ 0xCA);
    EXPECT_EQ(Gf256::add(0, 0xFF), 0xFF);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
    for (unsigned a = 0; a < 256; ++a) {
        EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), 1), a);
        EXPECT_EQ(Gf256::mul(1, static_cast<std::uint8_t>(a)), a);
        EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
        EXPECT_EQ(Gf256::mul(0, static_cast<std::uint8_t>(a)), 0);
    }
}

TEST(Gf256, MultiplicationCommutes) {
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = a; b < 256; ++b) {
            EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                      Gf256::mul(static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(a)));
        }
    }
}

TEST(Gf256, MultiplicationAssociatesOnSample) {
    Rng rng(7);
    for (int trial = 0; trial < 20000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.next_below(256));
        const auto b = static_cast<std::uint8_t>(rng.next_below(256));
        const auto c = static_cast<std::uint8_t>(rng.next_below(256));
        EXPECT_EQ(Gf256::mul(Gf256::mul(a, b), c), Gf256::mul(a, Gf256::mul(b, c)));
    }
}

TEST(Gf256, DistributesOverAddition) {
    Rng rng(11);
    for (int trial = 0; trial < 20000; ++trial) {
        const auto a = static_cast<std::uint8_t>(rng.next_below(256));
        const auto b = static_cast<std::uint8_t>(rng.next_below(256));
        const auto c = static_cast<std::uint8_t>(rng.next_below(256));
        EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)),
                  Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
    }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
    for (unsigned a = 1; a < 256; ++a) {
        const std::uint8_t inv = Gf256::inv(static_cast<std::uint8_t>(a));
        EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
    }
}

TEST(Gf256, DivisionInvertsMultiplication) {
    for (unsigned a = 0; a < 256; ++a) {
        for (unsigned b = 1; b < 256; ++b) {
            const std::uint8_t p = Gf256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
            EXPECT_EQ(Gf256::div(p, static_cast<std::uint8_t>(b)), a);
        }
    }
}

TEST(Gf256, PowMatchesRepeatedMultiplication) {
    for (unsigned a = 1; a < 256; a += 7) {
        std::uint8_t acc = 1;
        for (unsigned e = 0; e < 300; ++e) {
            EXPECT_EQ(Gf256::pow(static_cast<std::uint8_t>(a), e), acc) << "a=" << a << " e=" << e;
            acc = Gf256::mul(acc, static_cast<std::uint8_t>(a));
        }
    }
}

TEST(Gf256, PowOfZero) {
    EXPECT_EQ(Gf256::pow(0, 0), 1);
    EXPECT_EQ(Gf256::pow(0, 1), 0);
    EXPECT_EQ(Gf256::pow(0, 17), 0);
}

TEST(Gf256, GeneratorHasFullOrder) {
    // 0x02 must generate all 255 nonzero elements.
    std::vector<bool> seen(256, false);
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
        EXPECT_FALSE(seen[x]) << "cycle shorter than 255 at step " << i;
        seen[x] = true;
        x = Gf256::mul(x, 2);
    }
    EXPECT_EQ(x, 1);
}

TEST(Gf256, LogExpRoundTrip) {
    for (unsigned a = 1; a < 256; ++a) {
        EXPECT_EQ(Gf256::exp(Gf256::log(static_cast<std::uint8_t>(a))), a);
    }
}

class RegionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RegionTest, XorRegionMatchesScalar) {
    const std::size_t len = GetParam();
    Rng rng(len + 1);
    AlignedBuffer a(len), b(len), expect(len);
    for (std::size_t i = 0; i < len; ++i) {
        a[i] = static_cast<std::uint8_t>(rng.next_below(256));
        b[i] = static_cast<std::uint8_t>(rng.next_below(256));
        expect[i] = a[i] ^ b[i];
    }
    xor_region(a.span(), b.span());
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(a[i], expect[i]) << i;
}

TEST_P(RegionTest, MulRegionMatchesScalar) {
    const std::size_t len = GetParam();
    Rng rng(len + 2);
    for (std::uint8_t c : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{0x1d}, std::uint8_t{0xff}}) {
        AlignedBuffer src(len), dst(len);
        for (std::size_t i = 0; i < len; ++i) src[i] = static_cast<std::uint8_t>(rng.next_below(256));
        mul_region(dst.span(), src.span(), c);
        for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(dst[i], Gf256::mul(c, src[i]));
    }
}

TEST_P(RegionTest, AddmulRegionMatchesScalar) {
    const std::size_t len = GetParam();
    Rng rng(len + 3);
    for (std::uint8_t c : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{7}, std::uint8_t{0xa5}}) {
        AlignedBuffer src(len), dst(len), expect(len);
        for (std::size_t i = 0; i < len; ++i) {
            src[i] = static_cast<std::uint8_t>(rng.next_below(256));
            dst[i] = static_cast<std::uint8_t>(rng.next_below(256));
            expect[i] = dst[i] ^ Gf256::mul(c, src[i]);
        }
        addmul_region(dst.span(), src.span(), c);
        for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(dst[i], expect[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RegionTest,
                         ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{7},
                                           std::size_t{8}, std::size_t{9}, std::size_t{63},
                                           std::size_t{64}, std::size_t{1000}, std::size_t{4096}));

// The public region entry points on the best tier against the scalar
// tier, at lengths that cross whole-vector boundaries. Scalar runs first,
// so a failed assertion leaves the best tier active for later tests.
TEST(RegionSimd, SimdAndScalarPathsAgree) {
    const SimdTier before = active_tier();
    const SimdTier best = best_supported_tier();
    if (best == SimdTier::scalar) GTEST_SKIP() << "no SIMD tier on this machine";
    Rng rng(1234);
    for (std::size_t len : {std::size_t{1}, std::size_t{31}, std::size_t{32}, std::size_t{33},
                            std::size_t{255}, std::size_t{4096}, std::size_t{4099}}) {
        AlignedBuffer src(len), simd_dst(len), scalar_dst(len);
        for (std::size_t i = 0; i < len; ++i) {
            src[i] = static_cast<std::uint8_t>(rng.next_below(256));
            simd_dst[i] = static_cast<std::uint8_t>(rng.next_below(256));
            scalar_dst[i] = simd_dst[i];
        }
        for (std::uint8_t c : {std::uint8_t{2}, std::uint8_t{0x1d}, std::uint8_t{0x8e}, std::uint8_t{0xff}}) {
            ASSERT_TRUE(set_active_tier(SimdTier::scalar));
            addmul_region(scalar_dst.span(), src.span(), c);
            ASSERT_TRUE(set_active_tier(best));
            addmul_region(simd_dst.span(), src.span(), c);
            for (std::size_t i = 0; i < len; ++i) {
                ASSERT_EQ(simd_dst[i], scalar_dst[i]) << "len=" << len << " c=" << int(c) << " i=" << i;
            }

            AlignedBuffer m1(len), m2(len);
            ASSERT_TRUE(set_active_tier(SimdTier::scalar));
            mul_region(m2.span(), src.span(), c);
            ASSERT_TRUE(set_active_tier(best));
            mul_region(m1.span(), src.span(), c);
            for (std::size_t i = 0; i < len; ++i) {
                ASSERT_EQ(m1[i], m2[i]) << "len=" << len << " c=" << int(c) << " i=" << i;
            }
        }
    }
    EXPECT_TRUE(set_active_tier(before));
}

TEST(Region, AddmulIsMulPlusXor) {
    Rng rng(99);
    const std::size_t len = 513;
    AlignedBuffer src(len), dst1(len), dst2(len), tmp(len);
    for (std::size_t i = 0; i < len; ++i) {
        src[i] = static_cast<std::uint8_t>(rng.next_below(256));
        dst1[i] = static_cast<std::uint8_t>(rng.next_below(256));
        dst2[i] = dst1[i];
    }
    const std::uint8_t c = 0x37;
    addmul_region(dst1.span(), src.span(), c);
    mul_region(tmp.span(), src.span(), c);
    xor_region(dst2.span(), tmp.span());
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(dst1[i], dst2[i]);
}

}  // namespace
}  // namespace ecfrm::gf

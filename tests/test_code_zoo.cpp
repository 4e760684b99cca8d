// Repair-efficient code zoo properties:
//  - Hitchhiker-XOR repair download strictly below RS for every single
//    data-node failure over a (k, m) grid, measured on AccessPlan batch
//    schedules (not planner counters);
//  - the planner's closed-form max-load predictions stay exact for w > 1
//    geometry (the seed planner assumed one element per disk per group
//    and over-predicted parallelism by the sub-packetization factor);
//  - pinned repair-bound values for the shipped zoo parameters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codes/factory.h"
#include "codes/hhxor.h"
#include "codes/htec.h"
#include "core/analysis.h"
#include "core/read_planner.h"
#include "core/scheme.h"

namespace ecfrm {
namespace {

using core::Scheme;
using layout::LayoutKind;

std::shared_ptr<codes::ErasureCode> make(const std::string& spec) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok()) << spec << ": " << code.error().message;
    return std::move(code).take();
}

/// Bytes fetched by a plan, per its per-disk batch schedule.
std::int64_t batch_bytes(const core::AccessPlan& plan, std::int64_t element_bytes) {
    std::int64_t fetched = 0;
    for (const auto& batch : plan.batches()) {
        fetched += static_cast<std::int64_t>(batch.indices.size());
    }
    return fetched * element_bytes;
}

/// Satellite: for every single data-node failure over a (k, m) grid,
/// Hitchhiker-XOR repair downloads strictly fewer bytes than RS serving
/// the same amount of user data. HHXOR stores 2k data elements per group
/// (w = 2), so one HHXOR stripe compares against TWO RS stripes.
TEST(CodeZoo, HhxorRepairStrictlyBelowRsForEveryDataNode) {
    constexpr std::int64_t kElem = 1 << 10;
    for (int k : {4, 5, 6, 8, 10}) {
        for (int m : {3, 4}) {
            const Scheme hh(make("hhxor:" + std::to_string(k) + "," + std::to_string(m)),
                            LayoutKind::standard);
            const Scheme rs(make("rs:" + std::to_string(k) + "," + std::to_string(m)),
                            LayoutKind::standard);
            for (int node = 0; node < k; ++node) {
                auto hh_plan = core::plan_reconstruction(hh, node, /*stripes=*/1);
                auto rs_plan = core::plan_reconstruction(rs, node, /*stripes=*/2);
                ASSERT_TRUE(hh_plan.ok() && rs_plan.ok()) << "k=" << k << " m=" << m;
                const std::int64_t hh_bytes = batch_bytes(hh_plan.value(), kElem);
                const std::int64_t rs_bytes = batch_bytes(rs_plan.value(), kElem);
                EXPECT_LT(hh_bytes, rs_bytes)
                    << "k=" << k << " m=" << m << " node=" << node;
                // Exact shape: k + |G_q| elements vs RS's 2k.
                EXPECT_EQ(rs_bytes, 2 * k * kElem);
                EXPECT_EQ(hh_bytes,
                          make("hhxor:" + std::to_string(k) + "," + std::to_string(m))
                                  ->repair_elements_bound(node) *
                              kElem);
            }
        }
    }
}

/// Pinned bounds for the shipped parameters: HHXOR(6,4) repairs a data
/// node with 8 element reads vs RS(6,4)'s 12 — the 0.67x <= 0.75x
/// acceptance ratio — and HTEC(9,6,3) with 15 vs RS's 18.
TEST(CodeZoo, ShippedParameterRepairBounds) {
    const auto hh = make("hhxor:6,4");
    const auto ht = make("htec:9,6,3");
    for (int node = 0; node < 6; ++node) {
        EXPECT_EQ(hh->repair_elements_bound(node), 8) << "node " << node;
        // 2 * 6 elements of user data per group: RS reads 2k = 12.
        EXPECT_LE(static_cast<double>(hh->repair_elements_bound(node)) / 12.0, 0.75);
        EXPECT_EQ(ht->repair_elements_bound(node), 15) << "node " << node;
    }
    // Parity nodes repair at classic cost: all data.
    for (int node = 6; node < 10; ++node) EXPECT_EQ(hh->repair_elements_bound(node), 12);
    for (int node = 6; node < 9; ++node) EXPECT_EQ(ht->repair_elements_bound(node), 18);
}

/// Regression (the seed planner's latent uniformity assumption): with
/// w > 1 a disk holds w elements per group, so the closed-form max load
/// divides by DISK counts, not element counts. The geometry-aware form
/// must match exact plan enumeration; the seed element-count form must
/// provably disagree somewhere, or this regression guard is vacuous.
TEST(CodeZoo, SubPacketizedMaxLoadMatchesGeometryAwareClosedForm) {
    for (const std::string& spec : {std::string("hhxor:6,4"), std::string("htec:9,6,3")}) {
        for (auto kind : {LayoutKind::standard, LayoutKind::ecfrm}) {
            const Scheme scheme(make(spec), kind);
            const std::int64_t period = scheme.layout().data_per_stripe();
            bool seed_formula_disagreed = false;
            for (int size = 1; size <= 2 * scheme.disks(); ++size) {
                for (std::int64_t start = 0; start < period; ++start) {
                    const auto plan = core::plan_normal_read(scheme, start, size);
                    ASSERT_EQ(plan.max_load(), core::closed_form_max_load(scheme, size))
                        << spec << " " << layout::to_string(kind) << " start=" << start
                        << " size=" << size;
                    // The seed formula divided by element counts.
                    const int seed_prediction = core::closed_form_max_load(
                        kind, scheme.code().n(), scheme.code().k(), size);
                    if (seed_prediction != plan.max_load()) seed_formula_disagreed = true;
                }
            }
            EXPECT_TRUE(seed_formula_disagreed)
                << spec << " " << layout::to_string(kind)
                << ": element-count closed form never disagreed; regression guard is vacuous";
        }
    }
}

/// Degraded plans with stragglers and the balance policy stay well-formed
/// for sub-packetized codes (the hedging/heat loop consumes these).
TEST(CodeZoo, DegradedPlansUnderStragglerMaskStayWithinTolerance) {
    const Scheme scheme(make("hhxor:6,4"), LayoutKind::ecfrm);
    std::vector<char> stragglers(static_cast<std::size_t>(scheme.disks()), 0);
    stragglers[3] = 1;
    const std::int64_t period = scheme.layout().data_per_stripe();
    for (DiskId failed = 0; failed < scheme.disks(); ++failed) {
        for (std::int64_t start = 0; start < period; start += 5) {
            for (auto policy : {core::DegradedPolicy::local_first, core::DegradedPolicy::balance}) {
                auto plan = core::plan_degraded_read(scheme, start, 7, {failed}, policy,
                                                     &stragglers);
                ASSERT_TRUE(plan.ok()) << "failed=" << failed << " start=" << start;
                // Every decode's sources were fetched and avoid the failed disk.
                for (const auto& batch : plan->batches()) EXPECT_NE(batch.disk, failed);
                EXPECT_GE(plan->total_fetched(), 7);
            }
        }
    }
}

/// The HTEC elastic pairing actually rotates: a node's piggyback group
/// differs across pairs for some node (otherwise the "elastic" part is
/// dead weight).
TEST(CodeZoo, HtecElasticPairingRotatesGroups) {
    auto made = codes::HtecCode::make(11, 8, 4);
    ASSERT_TRUE(made.ok()) << made.error().message;
    const auto& code = *made.value();
    ASSERT_GE(code.pairs(), 2);
    bool rotated = false;
    for (int j = 0; j < code.data_nodes(); ++j) {
        if (code.piggyback_group(0, j) != code.piggyback_group(1, j)) rotated = true;
    }
    EXPECT_TRUE(rotated);
}

}  // namespace
}  // namespace ecfrm

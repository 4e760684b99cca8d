// Codec conformance suite: one parameterized battery that every code in
// the factory must pass. Instantiated in test_codec_conformance.cpp over
// codes::conformance_specs(), so registering a new zoo entry there buys
// it the full battery — encode/decode round-trip against the generator,
// every single-erasure, every tolerable node- and element-erasure
// pattern, repair-download accounting against the code's declared bound
// (measured on real AccessPlan batches, not planner trust), plan/executor
// equivalence through a live StripeStore, and the Lemma 1 layout
// invariance that makes the EC-FRM transform fault-tolerance-preserving.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "codes/factory.h"
#include "codes/validate.h"
#include "core/read_planner.h"
#include "core/scheme.h"
#include "gf/gf256.h"
#include "store/stripe_store.h"

namespace ecfrm::conformance {

inline constexpr std::int64_t kElem = 32;  // bytes per element

inline const std::vector<layout::LayoutKind>& all_kinds() {
    static const std::vector<layout::LayoutKind> kinds{
        layout::LayoutKind::standard, layout::LayoutKind::rotated, layout::LayoutKind::ecfrm};
    return kinds;
}

/// Deterministic payload for data position j of group g.
inline std::vector<std::uint8_t> data_element(int g, int j) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(kElem));
    for (std::size_t b = 0; b < buf.size(); ++b) {
        buf[b] = static_cast<std::uint8_t>(g * 131 + j * 31 + static_cast<int>(b) * 7 + 5);
    }
    return buf;
}

class CodecConformance : public ::testing::TestWithParam<std::string> {
  protected:
    void SetUp() override {
        auto made = codes::make_code(GetParam());
        ASSERT_TRUE(made.ok()) << GetParam() << ": " << made.error().message;
        code_ = std::move(made).take();
    }

    /// One encoded group: element buffers for all n positions of group g.
    std::vector<std::vector<std::uint8_t>> encoded_group(int g = 0) const {
        std::vector<std::vector<std::uint8_t>> elems(static_cast<std::size_t>(code_->n()));
        std::vector<ConstByteSpan> data;
        std::vector<ByteSpan> parity;
        for (int p = 0; p < code_->k(); ++p) {
            elems[static_cast<std::size_t>(p)] = data_element(g, p);
            data.push_back(elems[static_cast<std::size_t>(p)]);
        }
        for (int p = code_->k(); p < code_->n(); ++p) {
            elems[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(kElem), 0);
            parity.push_back(elems[static_cast<std::size_t>(p)]);
        }
        code_->encode(data, parity);
        return elems;
    }

    /// Erase `erased`, decode them back from the survivors, and require
    /// byte-exact recovery of every erased element.
    void expect_recovers(const std::vector<int>& erased) const {
        auto elems = encoded_group();
        const auto pristine = elems;
        std::set<int> gone(erased.begin(), erased.end());
        std::vector<int> available;
        for (int p = 0; p < code_->n(); ++p) {
            if (gone.count(p) == 0) available.push_back(p);
        }
        auto plan = code_->plan_decode(available, erased);
        ASSERT_TRUE(plan.ok()) << "erased " << ::testing::PrintToString(erased) << ": "
                               << plan.error().message;
        for (int p : erased) elems[static_cast<std::size_t>(p)].assign(static_cast<std::size_t>(kElem), 0);
        std::vector<ByteSpan> buffers(elems.begin(), elems.end());
        codes::ErasureCode::apply_plan(plan.value(), buffers);
        for (int p : erased) {
            EXPECT_EQ(elems[static_cast<std::size_t>(p)], pristine[static_cast<std::size_t>(p)])
                << "position " << p << " after erasing " << ::testing::PrintToString(erased);
        }
    }

    std::shared_ptr<codes::ErasureCode> code_;
};

/// The substripe-major geometry contract every code must satisfy: the
/// position <-> (node, substripe) maps invert each other, counts are
/// consistent, and the generator is systematic.
TEST_P(CodecConformance, GeometryContract) {
    const auto& c = *code_;
    ASSERT_GT(c.sub_packetization(), 0);
    EXPECT_EQ(c.nodes() * c.sub_packetization(), c.n());
    EXPECT_EQ(c.data_nodes() * c.sub_packetization(), c.k());
    EXPECT_GE(c.fault_tolerance(), 1);
    EXPECT_LE(c.fault_tolerance(), c.parity_nodes());
    std::set<int> seen;
    for (int node = 0; node < c.nodes(); ++node) {
        for (int s = 0; s < c.sub_packetization(); ++s) {
            const int p = c.position_of(node, s);
            EXPECT_EQ(c.node_of(p), node);
            EXPECT_EQ(c.substripe_of(p), s);
            EXPECT_TRUE(seen.insert(p).second) << "position " << p << " double-mapped";
        }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), c.n());
    for (int r = 0; r < c.k(); ++r) {
        for (int col = 0; col < c.k(); ++col) {
            EXPECT_EQ(c.generator().at(r, col), r == col ? 1 : 0) << "generator not systematic";
        }
    }
}

/// Encoded parity bytes must equal the generator's row combination of the
/// data bytes, symbol by symbol — pins ErasureCode::encode (and the GF
/// kernels under it) to the algebra.
TEST_P(CodecConformance, EncodeMatchesGeneratorAlgebra) {
    const auto elems = encoded_group();
    for (int p = code_->k(); p < code_->n(); ++p) {
        for (std::int64_t b = 0; b < kElem; ++b) {
            std::uint8_t expect = 0;
            for (int j = 0; j < code_->k(); ++j) {
                expect ^= gf::Gf256::mul(code_->generator().at(p, j),
                                         elems[static_cast<std::size_t>(j)][static_cast<std::size_t>(b)]);
            }
            ASSERT_EQ(elems[static_cast<std::size_t>(p)][static_cast<std::size_t>(b)], expect)
                << "parity position " << p << " byte " << b;
        }
    }
}

/// Every single element erasure decodes byte-exactly.
TEST_P(CodecConformance, EverySingleErasureRecovers) {
    for (int p = 0; p < code_->n(); ++p) expect_recovers({p});
}

/// Every node-erasure pattern up to the declared fault tolerance decodes
/// byte-exactly (a node failure erases all its substripe elements).
TEST_P(CodecConformance, EveryTolerableNodeErasureRecovers) {
    const auto& c = *code_;
    for (int count = 1; count <= c.fault_tolerance(); ++count) {
        codes::for_each_subset(c.nodes(), count, [&](const std::vector<int>& nodes) {
            std::vector<int> erased;
            for (int node : nodes) {
                for (int s = 0; s < c.sub_packetization(); ++s) {
                    erased.push_back(c.position_of(node, s));
                }
            }
            expect_recovers(erased);
            return !HasFatalFailure();
        });
    }
}

/// Every element-erasure pattern of tolerance size passes the rank test:
/// the codes promise their tolerance against arbitrary ELEMENT loss too
/// (each substripe sees at most that many erasures), which is what the
/// scrub path's corruption hypothesis testing relies on.
TEST_P(CodecConformance, EveryTolerableElementErasureDecodable) {
    const auto& c = *code_;
    codes::for_each_subset(c.n(), c.fault_tolerance(), [&](const std::vector<int>& erased) {
        std::set<int> gone(erased.begin(), erased.end());
        std::vector<int> available;
        for (int p = 0; p < c.n(); ++p) {
            if (gone.count(p) == 0) available.push_back(p);
        }
        EXPECT_TRUE(c.decodable(available)) << "erased " << ::testing::PrintToString(erased);
        return !HasFatalFailure();
    });
}

/// Single-node repair, measured on the real reconstruction plan's batch
/// schedule, never downloads more than the code's declared bound — and
/// the accounting comes from AccessPlan::batches(), not planner counters.
TEST_P(CodecConformance, RepairDownloadWithinDeclaredBound) {
    const core::Scheme scheme(code_, layout::LayoutKind::standard);
    const auto& c = *code_;
    for (int node = 0; node < c.nodes(); ++node) {
        auto plan = core::plan_reconstruction(scheme, node, /*stripes=*/1);
        ASSERT_TRUE(plan.ok()) << "node " << node << ": " << plan.error().message;
        std::int64_t fetched = 0;
        for (const auto& batch : plan->batches()) {
            EXPECT_NE(batch.disk, node) << "repair plan reads the failed disk";
            fetched += static_cast<std::int64_t>(batch.indices.size());
        }
        EXPECT_EQ(fetched, plan->total_fetched());
        EXPECT_LE(fetched, c.repair_elements_bound(node))
            << scheme.name() << " node " << node << " exceeded its declared repair bound";
        // The plan must actually rebuild every lost element of the node.
        EXPECT_EQ(static_cast<int>(plan->decodes().size()), c.sub_packetization());
    }
}

/// Plan/executor equivalence: a live StripeStore (planner -> PlanExecutor
/// batched fetch -> decode -> assemble) returns byte-identical data with
/// any single disk down, under every layout kind.
TEST_P(CodecConformance, StoreReadsExactBytesAroundAnyFailedDisk) {
    for (auto kind : all_kinds()) {
        const core::Scheme probe(code_, kind);
        const std::int64_t total =
            2 * probe.layout().data_per_stripe() * kElem;  // two full stripes
        std::vector<std::uint8_t> payload(static_cast<std::size_t>(total));
        for (std::size_t i = 0; i < payload.size(); ++i) {
            payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
        }
        for (DiskId failed = 0; failed < probe.disks(); ++failed) {
            store::StripeStore store(core::Scheme(code_, kind), kElem);
            ASSERT_TRUE(store.append(payload).ok());
            ASSERT_TRUE(store.flush().ok());
            ASSERT_TRUE(store.fail_disk(failed).ok());
            auto read = store.read_bytes(0, total);
            ASSERT_TRUE(read.ok()) << layout::to_string(kind) << " failed disk " << failed << ": "
                                   << read.error().message;
            EXPECT_EQ(read.value(), payload)
                << layout::to_string(kind) << " failed disk " << failed;
        }
    }
}

/// Paper Lemma 1, generalized to sub-packetized codes: under every layout
/// kind, each group places exactly sub_packetization() elements on each
/// of the code's nodes() disks — a disk failure costs every group exactly
/// one NODE, so the candidate code's fault tolerance survives the layout
/// transform unchanged.
TEST_P(CodecConformance, Lemma1EveryGroupSpreadsOneNodePerDisk) {
    for (auto kind : all_kinds()) {
        const core::Scheme scheme(code_, kind);
        const auto& lay = scheme.layout();
        for (StripeId stripe = 0; stripe < 3; ++stripe) {
            for (int g = 0; g < lay.groups_per_stripe(); ++g) {
                std::map<DiskId, int> per_disk;
                std::set<std::pair<DiskId, RowId>> slots;
                for (int p = 0; p < code_->n(); ++p) {
                    const Location loc = lay.locate({stripe, g, p});
                    ++per_disk[loc.disk];
                    EXPECT_TRUE(slots.insert({loc.disk, loc.row}).second)
                        << layout::to_string(kind) << ": two elements share a slot";
                    // The inverse map agrees.
                    const layout::GroupCoord back = lay.coord_at(loc);
                    EXPECT_EQ(back.stripe, stripe);
                    EXPECT_EQ(back.group, g);
                    EXPECT_EQ(back.position, p);
                }
                EXPECT_EQ(static_cast<int>(per_disk.size()), code_->nodes())
                    << layout::to_string(kind);
                for (const auto& [disk, count] : per_disk) {
                    EXPECT_EQ(count, code_->sub_packetization())
                        << layout::to_string(kind) << " disk " << disk;
                }
            }
        }
    }
}

}  // namespace ecfrm::conformance

// Read planners: load distribution (incl. the paper's Figure 3 / Figure 7
// worked examples), repair-set choice, dedup, and cost accounting.
#include <gtest/gtest.h>

#include <set>

#include "codes/factory.h"
#include "core/read_planner.h"

namespace ecfrm::core {
namespace {

using layout::LayoutKind;

Scheme make_scheme(const std::string& spec, LayoutKind kind) {
    auto code = codes::make_code(spec);
    EXPECT_TRUE(code.ok());
    return Scheme(code.value(), kind);
}

TEST(NormalRead, FetchesExactlyTheRequestedElements) {
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::ecfrm);
    const auto plan = plan_normal_read(scheme, 3, 8);
    EXPECT_EQ(plan.total_fetched(), 8);
    EXPECT_EQ(plan.requested(), 8);
    EXPECT_TRUE(plan.decodes().empty());
    for (const auto& f : plan.fetches()) EXPECT_TRUE(f.requested);
    EXPECT_DOUBLE_EQ(plan.cost(), 1.0);
}

TEST(NormalRead, PaperFigure3StandardLrcBottleneck) {
    // Figure 3(a): an 8-element read on standard (6,2,2) LRC loads the
    // most-loaded disk with 2 elements (only 6 data disks serve reads).
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::standard);
    const auto plan = plan_normal_read(scheme, 0, 8);
    EXPECT_EQ(plan.max_load(), 2);
    // Parity disks contribute nothing on normal reads.
    for (int d = 6; d < 10; ++d) EXPECT_EQ(plan.per_disk_loads()[static_cast<std::size_t>(d)], 0);
}

TEST(NormalRead, PaperFigure7aEcfrmLrcSpreads) {
    // Figure 7(a): the same 8-element read on (6,2,2) EC-FRM-LRC loads the
    // most-loaded disk with exactly 1 element.
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::ecfrm);
    const auto plan = plan_normal_read(scheme, 0, 8);
    EXPECT_EQ(plan.max_load(), 1);
}

TEST(NormalRead, EcfrmMaxLoadIsCeilOverAllDisks) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    // 20 elements over 9 disks: ceil(20/9) = 3, and sequential placement
    // achieves it from any start.
    for (ElementId start : {0, 1, 5, 17}) {
        const auto plan = plan_normal_read(scheme, start, 20);
        EXPECT_EQ(plan.max_load(), 3) << "start " << start;
    }
}

TEST(NormalRead, StandardRsMaxLoadIsCeilOverDataDisks) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::standard);
    const auto plan = plan_normal_read(scheme, 0, 20);
    EXPECT_EQ(plan.max_load(), (20 + 5) / 6);  // ceil(20/6) = 4
}

TEST(DegradedRead, NoFailedElementsBehavesLikeNormalRead) {
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::ecfrm);
    // Request elements 0..4 (disks 0..4), fail disk 7: no repair needed.
    auto plan = plan_degraded_read(scheme, 0, 5, 7);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->total_fetched(), 5);
    EXPECT_TRUE(plan->decodes().empty());
    EXPECT_DOUBLE_EQ(plan->cost(), 1.0);
}

TEST(DegradedRead, NeverTouchesTheFailedDisk) {
    for (const char* spec : {"rs:6,3", "lrc:6,2,2"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::rotated, LayoutKind::ecfrm}) {
            auto scheme = make_scheme(spec, kind);
            for (DiskId failed = 0; failed < scheme.disks(); ++failed) {
                auto plan = plan_degraded_read(scheme, 2, 17, failed);
                ASSERT_TRUE(plan.ok());
                for (const auto& f : plan->fetches()) {
                    EXPECT_NE(f.loc.disk, failed) << scheme.name();
                }
                EXPECT_EQ(plan->per_disk_loads()[static_cast<std::size_t>(failed)], 0);
            }
        }
    }
}

TEST(DegradedRead, EveryRequestedElementIsServed) {
    // Each requested element must be either fetched directly or produced
    // by a decode whose sources are all fetched.
    auto scheme = make_scheme("lrc:8,2,3", LayoutKind::ecfrm);
    auto plan = plan_degraded_read(scheme, 5, 16, 3);
    ASSERT_TRUE(plan.ok());

    std::set<std::tuple<StripeId, int, int>> fetched;
    for (const auto& f : plan->fetches()) fetched.insert({f.coord.stripe, f.coord.group, f.coord.position});
    std::set<std::tuple<StripeId, int, int>> decoded;
    for (const auto& d : plan->decodes()) {
        decoded.insert({d.stripe, d.group, d.repair->target_position});
        for (const auto& t : d.repair->terms) {
            EXPECT_TRUE(fetched.count({d.stripe, d.group, t.source_position}))
                << "decode source not fetched";
        }
    }
    for (ElementId e = 5; e < 21; ++e) {
        const auto c = scheme.layout().coord_of_data(e);
        const bool direct = fetched.count({c.stripe, c.group, c.position}) > 0;
        const bool repaired = decoded.count({c.stripe, c.group, c.position}) > 0;
        EXPECT_TRUE(direct || repaired) << "element " << e << " unserved";
    }
}

TEST(DegradedRead, LrcRepairsLocally) {
    // Standard LRC, fail data disk 0, request element 0 only: repair reads
    // exactly the local set (2 data peers + local parity = 3 elements).
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::standard);
    auto plan = plan_degraded_read(scheme, 0, 1, 0);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->total_fetched(), 3);
    ASSERT_EQ(plan->decodes().size(), 1u);
    std::set<int> sources;
    for (const auto& t : plan->decodes()[0].repair->terms) sources.insert(t.source_position);
    EXPECT_EQ(sources, (std::set<int>{1, 2, 6}));
}

TEST(DegradedRead, RsRepairReadsExactlyK) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::standard);
    auto plan = plan_degraded_read(scheme, 0, 1, 0);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->total_fetched(), 6);  // k sources, nothing else
    ASSERT_EQ(plan->decodes().size(), 1u);
    EXPECT_EQ(plan->decodes()[0].repair->terms.size(), 6u);
}

TEST(DegradedRead, RepairReusesRequestedElements) {
    // Standard RS(6,3): request the whole row 0 (elements 0..5), fail disk
    // 0. The 5 surviving requested elements already feed the repair; only
    // ONE extra fetch (a parity) is needed.
    auto scheme = make_scheme("rs:6,3", LayoutKind::standard);
    auto plan = plan_degraded_read(scheme, 0, 6, 0);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->total_fetched(), 6);  // 5 direct + 1 parity
    EXPECT_DOUBLE_EQ(plan->cost(), 1.0);
}

TEST(DegradedRead, GreedyAvoidsLoadedDisks) {
    // EC-FRM-RS(6,3), large read with a failure: the greedy helper choice
    // must not push any disk above ceil(total_fetched / available_disks)+1.
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    for (DiskId failed = 0; failed < 9; ++failed) {
        auto plan = plan_degraded_read(scheme, 0, 20, failed);
        ASSERT_TRUE(plan.ok());
        const int disks_alive = 8;
        const int ideal = static_cast<int>((plan->total_fetched() + disks_alive - 1) / disks_alive);
        EXPECT_LE(plan->max_load(), ideal + 1) << "failed disk " << failed;
    }
}

TEST(DegradedRead, CostIsTotalOverRequested) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::standard);
    auto plan = plan_degraded_read(scheme, 0, 1, 0);
    ASSERT_TRUE(plan.ok());
    EXPECT_DOUBLE_EQ(plan->cost(), 6.0);  // 6 fetches for 1 element
}

TEST(DegradedRead, PaperFigure7bShape) {
    // Figure 7(b): a 14-element degraded read on (6,2,2) EC-FRM-LRC where
    // the most loaded disk serves 2 elements. We reproduce the shape:
    // 14-element reads with a single failed disk must keep max load <= 3,
    // and at least one failed-disk choice achieves max load 2.
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::ecfrm);
    int best = 100;
    int worst = 0;
    for (DiskId failed = 0; failed < 10; ++failed) {
        for (ElementId start = 0; start < 30; ++start) {
            auto plan = plan_degraded_read(scheme, start, 14, failed);
            ASSERT_TRUE(plan.ok());
            best = std::min(best, plan->max_load());
            worst = std::max(worst, plan->max_load());
        }
    }
    EXPECT_EQ(best, 2);   // Figure 7(b): the good case exists
    EXPECT_GE(worst, 3);  // Figure 7(c): the bad case exists too
    EXPECT_LE(worst, 4);
}

TEST(DegradedRead, MultiFailurePlansAvoidAllFailedDisks) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    const std::vector<DiskId> failed{1, 4, 7};
    auto plan = plan_degraded_read(scheme, 0, 18, failed);
    ASSERT_TRUE(plan.ok());
    for (const auto& f : plan->fetches()) {
        EXPECT_NE(f.loc.disk, 1);
        EXPECT_NE(f.loc.disk, 4);
        EXPECT_NE(f.loc.disk, 7);
    }
    // All 18 requested elements served (directly or by decode).
    std::set<std::tuple<StripeId, int, int>> served;
    for (const auto& f : plan->fetches()) {
        if (f.requested) served.insert({f.coord.stripe, f.coord.group, f.coord.position});
    }
    for (const auto& d : plan->decodes()) served.insert({d.stripe, d.group, d.repair->target_position});
    EXPECT_EQ(served.size(), 18u);
}

TEST(DegradedRead, MultiFailureBeyondToleranceFails) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    // 4 failed disks > tolerance 3: some requested element must be
    // unrecoverable across a full-stripe read.
    auto plan = plan_degraded_read(scheme, 0, 18, std::vector<DiskId>{0, 1, 2, 3});
    EXPECT_FALSE(plan.ok());
    EXPECT_EQ(plan.error().code, Error::Code::undecodable);
}

TEST(DegradedRead, LrcFallsBackWhenLocalSetIsBroken) {
    // Standard LRC(6,2,2): fail disk 0 (data of group 0) AND disk 6 (the
    // local parity of group 0). Local repair of element 0 is impossible;
    // the planner must fall back to a global decode and still succeed.
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::standard);
    auto plan = plan_degraded_read(scheme, 0, 1, std::vector<DiskId>{0, 6});
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->decodes().size(), 1u);
    // Sources must avoid both failed disks and exceed the broken local set.
    for (const auto& t : plan->decodes()[0].repair->terms) {
        EXPECT_NE(t.source_position, 0);
        EXPECT_NE(t.source_position, 6);
    }
    EXPECT_GT(plan->total_fetched(), 3);
}

TEST(DegradedRead, RejectsBogusDiskIds) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::standard);
    EXPECT_FALSE(plan_degraded_read(scheme, 0, 1, std::vector<DiskId>{99}).ok());
    EXPECT_FALSE(plan_degraded_read(scheme, 0, 1, std::vector<DiskId>{-1}).ok());
}

TEST(DegradedPolicy, BalanceNeverWorsensMaxLoad) {
    // For each request, the balance policy's max load must be <= the
    // local-first policy's (it only deviates when it helps), and its plans
    // must still serve every element (checked via decode bookkeeping).
    for (const char* spec : {"lrc:6,2,2", "lrc:8,2,3"}) {
        for (LayoutKind kind : {LayoutKind::standard, LayoutKind::ecfrm}) {
            auto scheme = make_scheme(spec, kind);
            for (DiskId failed = 0; failed < scheme.disks(); ++failed) {
                for (ElementId start = 0; start < scheme.layout().data_per_stripe(); start += 2) {
                    auto local = plan_degraded_read(scheme, start, 12, std::vector<DiskId>{failed},
                                                    DegradedPolicy::local_first);
                    auto bal = plan_degraded_read(scheme, start, 12, std::vector<DiskId>{failed},
                                                  DegradedPolicy::balance);
                    ASSERT_TRUE(local.ok());
                    ASSERT_TRUE(bal.ok());
                    EXPECT_LE(bal->max_load(), local->max_load())
                        << spec << " " << layout::to_string(kind) << " failed=" << failed
                        << " start=" << start;
                    // Balance never reads FEWER bytes than local-first.
                    EXPECT_GE(bal->total_fetched(), local->total_fetched());
                }
            }
        }
    }
}

TEST(DegradedPolicy, BalanceMatchesLocalFirstForMdsCodes) {
    // RS has no structured repair, so both policies reduce to the same
    // greedy any-k choice.
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    for (DiskId failed = 0; failed < scheme.disks(); ++failed) {
        auto a = plan_degraded_read(scheme, 3, 15, std::vector<DiskId>{failed},
                                    DegradedPolicy::local_first);
        auto b = plan_degraded_read(scheme, 3, 15, std::vector<DiskId>{failed}, DegradedPolicy::balance);
        ASSERT_TRUE(a.ok());
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(a->max_load(), b->max_load());
        EXPECT_EQ(a->total_fetched(), b->total_fetched());
    }
}

TEST(AccessPlan, MaxLoadAndTotals) {
    AccessPlan plan(4);
    Access a;
    a.loc = {0, 0};
    plan.add_fetch(a);
    a.loc = {0, 1};
    plan.add_fetch(a);
    a.loc = {2, 0};
    plan.add_fetch(a);
    plan.set_requested(2);
    EXPECT_EQ(plan.max_load(), 2);
    EXPECT_EQ(plan.total_fetched(), 3);
    EXPECT_DOUBLE_EQ(plan.cost(), 1.5);
}

TEST(Reconstruction, RowRangeFormOverEveryRowIsTheWholeDiskPlan) {
    auto scheme = make_scheme("lrc:6,2,2", LayoutKind::ecfrm);
    const StripeId stripes = 4;
    auto whole = plan_reconstruction(scheme, 3, stripes);
    ASSERT_TRUE(whole.ok());
    PlanScratch scratch;
    AccessPlan ranged;
    ASSERT_TRUE(
        plan_reconstruction(scheme, 3, 0, scheme.rows_for(stripes), {}, scratch, ranged).ok());
    EXPECT_EQ(ranged.total_fetched(), whole->total_fetched());
    EXPECT_EQ(ranged.per_disk_loads(), whole->per_disk_loads());
    ASSERT_EQ(ranged.decodes().size(), whole->decodes().size());
    for (std::size_t i = 0; i < ranged.decodes().size(); ++i) {
        // Both refer to the code's one cached solve.
        EXPECT_EQ(ranged.decodes()[i].repair, whole->decodes()[i].repair);
    }
}

TEST(Reconstruction, RowRangeRebuildsItsRowsAroundEveryFailedDisk) {
    auto scheme = make_scheme("rs:6,3", LayoutKind::ecfrm);
    const DiskId target = 2;
    const std::vector<DiskId> failed{5, 7};
    PlanScratch scratch;
    AccessPlan plan;
    ASSERT_TRUE(plan_reconstruction(scheme, target, 4, 7, failed, scratch, plan).ok());
    EXPECT_EQ(plan.requested(), 7);
    ASSERT_EQ(plan.decodes().size(), 7u);
    std::set<RowId> rows;
    for (const auto& d : plan.decodes()) {
        const Location loc = scheme.layout().locate({d.stripe, d.group, d.repair->target_position});
        EXPECT_EQ(loc.disk, target);
        rows.insert(loc.row);
    }
    EXPECT_EQ(rows, (std::set<RowId>{4, 5, 6, 7, 8, 9, 10}));
    for (DiskId d : {target, DiskId{5}, DiskId{7}}) {
        EXPECT_EQ(plan.per_disk_loads()[static_cast<std::size_t>(d)], 0) << "disk " << d;
    }
    EXPECT_EQ(plan.total_fetched(), 7 * 6);  // k sources per lost element

    // A fourth lost disk is beyond RS(6,3).
    const std::vector<DiskId> too_many{0, 5, 7};
    auto status = plan_reconstruction(scheme, target, 0, 3, too_many, scratch, plan);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, Error::Code::undecodable);
}

}  // namespace
}  // namespace ecfrm::core

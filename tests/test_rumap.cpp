/**
 * @file
 * RU-map and constraint-checker tests: reservation/availability
 * semantics, negative cycles, short-circuit statistics, AND/OR pending
 * overlay exactness, and a randomized equivalence check against a
 * brute-force oracle.
 */

#include <gtest/gtest.h>

#include <map>

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "rumap/ru_map.h"
#include "support/rng.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using rumap::Checker;
using rumap::CheckStats;
using rumap::RuMap;

// ------------------------------------------------------------------ RuMap

TEST(RuMap, FreshMapIsFree)
{
    RuMap ru;
    EXPECT_TRUE(ru.available(0, 0xFF));
    EXPECT_TRUE(ru.available(-100, 0xFF));
    EXPECT_TRUE(ru.available(1 << 20, 0xFF));
}

TEST(RuMap, ReserveBlocksExactCycleAndMask)
{
    RuMap ru;
    ru.reserve(5, 0b0110);
    EXPECT_FALSE(ru.available(5, 0b0010));
    EXPECT_FALSE(ru.available(5, 0b1100)); // overlap on bit 2
    EXPECT_TRUE(ru.available(5, 0b1001));
    EXPECT_TRUE(ru.available(4, 0b0110));
    EXPECT_TRUE(ru.available(6, 0b0110));
}

TEST(RuMap, NegativeCyclesWork)
{
    RuMap ru;
    ru.reserve(-3, 0b1);
    ru.reserve(7, 0b1);
    EXPECT_FALSE(ru.available(-3, 0b1));
    EXPECT_FALSE(ru.available(7, 0b1));
    EXPECT_TRUE(ru.available(-4, 0b1));
    ru.reserve(-40, 0b1); // force downward growth
    EXPECT_FALSE(ru.available(-40, 0b1));
    EXPECT_FALSE(ru.available(-3, 0b1)); // prior content preserved
}

TEST(RuMap, ClearForgets)
{
    RuMap ru;
    ru.reserve(2, 0b1);
    ru.clear();
    EXPECT_TRUE(ru.available(2, 0b1));
}

TEST(RuMap, WordExposesReservations)
{
    RuMap ru;
    ru.reserve(3, 0b101);
    ru.reserve(3, 0b010);
    EXPECT_EQ(ru.word(3), 0b111u);
    EXPECT_EQ(ru.word(4), 0u);
}

// ---------------------------------------------------------------- Checker

/** AND(U, AnyW(2), AnyD(3)) - the SuperSPARC-load shape. */
Mdes
loadShape()
{
    Mdes m("load");
    ResourceId u = m.addResourceClass("U", 1);
    ResourceId w = m.addResourceClass("W", 2);
    ResourceId d = m.addResourceClass("D", 3);
    OrTreeId unit = m.addOrTree({"U", {m.addOption({{{0, u}}})}});
    OrTreeId anyw = m.addOrTree({"W",
                                 {m.addOption({{{1, w}}}),
                                  m.addOption({{{1, w + 1}}})}});
    OrTreeId anyd = m.addOrTree({"D",
                                 {m.addOption({{{-1, d}}}),
                                  m.addOption({{{-1, d + 1}}}),
                                  m.addOption({{{-1, d + 2}}})}});
    TreeId tree = m.addTree({"Load", {unit, anyw, anyd}});
    m.addOpClass({"LD", tree, 1, kInvalidId, ""});
    return m;
}

TEST(Checker, ReservesChosenOptionsOnly)
{
    Mdes m = loadShape();
    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    RuMap ru;
    CheckStats stats;
    std::vector<uint32_t> chosen;

    ASSERT_TRUE(checker.tryReserve(0, 0, ru, stats, &chosen));
    ASSERT_EQ(chosen.size(), 3u);
    // Highest-priority choices: U, W[0]@1, D[0]@-1.
    EXPECT_FALSE(ru.available(0, uint64_t(1) << 0)); // U
    EXPECT_FALSE(ru.available(1, uint64_t(1) << 1)); // W[0]
    EXPECT_TRUE(ru.available(1, uint64_t(1) << 2));  // W[1] untouched
    EXPECT_FALSE(ru.available(-1, uint64_t(1) << 3)); // D[0]
    EXPECT_EQ(stats.attempts, 1u);
    EXPECT_EQ(stats.successes, 1u);
    EXPECT_EQ(stats.options_checked, 3u);
    // 1 prefilter probe (U is mandatory: the unit subtree has a single
    // option) + 3 option checks.
    EXPECT_EQ(stats.resource_checks, 4u);
    EXPECT_EQ(stats.prefilter_hits, 0u);
}

TEST(Checker, PriorityFallbackAndShortCircuit)
{
    Mdes m = loadShape();
    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    RuMap ru;
    CheckStats stats;

    // Three loads in a row at cycle 0: decoders run out on the fourth.
    EXPECT_TRUE(checker.tryReserve(0, 0, ru, stats));  // U busy now
    // Second load at cycle 0 fails on the memory unit immediately: U is
    // mandatory (single-option subtree), so the collision-vector
    // prefilter rejects the attempt before any option is walked.
    EXPECT_FALSE(checker.tryReserve(0, 0, ru, stats));
    EXPECT_EQ(stats.options_per_attempt.countAt(0), 1u);
    EXPECT_EQ(stats.prefilter_hits, 1u);
    EXPECT_EQ(stats.attempts, 2u);
    EXPECT_EQ(stats.successes, 1u);
}

TEST(Checker, FailureChecksAllOptionsOfTheFailingSubtree)
{
    // Make U free but all decoders busy: the attempt must scan every
    // decoder option before giving up.
    Mdes m = loadShape();
    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    RuMap ru;
    ru.reserve(-1, (uint64_t(1) << 3) | (uint64_t(1) << 4) |
                       (uint64_t(1) << 5));
    CheckStats stats;
    EXPECT_FALSE(checker.tryReserve(0, 0, ru, stats));
    // 1 (U) + 1 (W[0]) + 3 (all decoders) options checked; the
    // prefilter probe (U free) adds one resource check.
    EXPECT_EQ(stats.options_checked, 5u);
    EXPECT_EQ(stats.resource_checks, 6u);
    EXPECT_EQ(stats.prefilter_hits, 0u);
    // Nothing was reserved by the failed attempt.
    EXPECT_TRUE(ru.available(0, uint64_t(1) << 0));
    EXPECT_TRUE(ru.available(1, uint64_t(1) << 1));
}

TEST(Checker, PendingOverlayPreventsDoubleBooking)
{
    // Two subtrees drawing from the SAME resource pool: the pending
    // overlay must stop both from picking the same instance.
    Mdes m("overlap");
    ResourceId r = m.addResourceClass("R", 2);
    std::vector<OptionId> opts1 = {m.addOption({{{0, r}}}),
                                   m.addOption({{{0, r + 1}}})};
    std::vector<OptionId> opts2 = {m.addOption({{{0, r}}}),
                                   m.addOption({{{0, r + 1}}})};
    OrTreeId t1 = m.addOrTree({"A", opts1});
    OrTreeId t2 = m.addOrTree({"B", opts2});
    TreeId tree = m.addTree({"Both", {t1, t2}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    RuMap ru;
    CheckStats stats;
    std::vector<uint32_t> chosen;
    ASSERT_TRUE(checker.tryReserve(0, 0, ru, stats, &chosen));
    // First subtree takes R[0]; second must fall through to R[1].
    EXPECT_FALSE(ru.available(0, uint64_t(1) << 0));
    EXPECT_FALSE(ru.available(0, uint64_t(1) << 1));

    // A second operation at the same cycle cannot fit at all.
    EXPECT_FALSE(checker.tryReserve(0, 0, ru, stats));
}

TEST(Checker, EachSubtreeFitsNeverReserves)
{
    Mdes m = loadShape();
    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    RuMap ru;
    EXPECT_TRUE(checker.eachSubtreeFits(0, 0, ru));
    EXPECT_TRUE(ru.available(0, ~uint64_t(0)));
    ru.reserve(0, uint64_t(1) << 0); // U busy
    EXPECT_FALSE(checker.eachSubtreeFits(0, 0, ru));
}

TEST(Checker, BitVectorEncodingCountsMergedChecks)
{
    // One option with three same-cycle usages: scalar = 3 checks,
    // bit-vector = 1 check, same accept/reject behavior.
    Mdes m("pack");
    ResourceId r = m.addResourceClass("R", 3);
    OptionId o = m.addOption({{{0, r}, {0, r + 1}, {0, r + 2}}});
    OrTreeId t = m.addOrTree({"T", {o}});
    TreeId tree = m.addTree({"Tbl", {t}});
    m.addOpClass({"OP", tree, 1, kInvalidId, ""});

    LowMdes scalar = LowMdes::lower(m, {});
    lmdes::LowerOptions packed_opts;
    packed_opts.pack_bit_vector = true;
    LowMdes packed = LowMdes::lower(m, packed_opts);

    Checker cs(scalar), cp(packed);
    RuMap ru1, ru2;
    CheckStats s1, s2;
    EXPECT_TRUE(cs.tryReserve(0, 0, ru1, s1));
    EXPECT_TRUE(cp.tryReserve(0, 0, ru2, s2));
    // Single-option tree: the prefilter covers the whole option (one
    // merged probe in both encodings), then the option itself is
    // checked - 3 scalar checks vs 1 packed check.
    EXPECT_EQ(s1.resource_checks, 4u);
    EXPECT_EQ(s2.resource_checks, 2u);
    EXPECT_EQ(ru1.word(0), ru2.word(0));
}

// -------------------------------------------------- Randomized oracle check

/**
 * Brute-force oracle: enumerate the AND/OR tree's full cross product and
 * return the first combination (priority order, last subtree fastest)
 * that fits the RU map; the checker must agree on feasibility AND, for
 * resource-disjoint subtrees, on the chosen options.
 */
bool
oracleFits(const Mdes &m, TreeId tree, int32_t cycle, const RuMap &ru)
{
    const auto &t = m.tree(tree);
    std::vector<size_t> idx(t.or_trees.size(), 0);
    for (;;) {
        // Gather this combination's usages; reject internal conflicts.
        std::map<std::pair<int32_t, ResourceId>, int> seen;
        bool fits = true;
        for (size_t s = 0; s < t.or_trees.size() && fits; ++s) {
            OptionId o = m.orTree(t.or_trees[s]).options[idx[s]];
            for (const auto &u : m.option(o).usages) {
                if (!ru.available(cycle + u.time,
                                  uint64_t(1) << u.resource) ||
                    seen[{u.time, u.resource}]++ > 0) {
                    fits = false;
                    break;
                }
            }
        }
        if (fits)
            return true;
        // Odometer advance, last digit fastest.
        size_t d = t.or_trees.size();
        for (;;) {
            if (d == 0)
                return false;
            --d;
            if (++idx[d] < m.orTree(t.or_trees[d]).options.size())
                break;
            idx[d] = 0;
        }
    }
}

TEST(Checker, AgreesWithOracleOnRandomStates)
{
    Mdes m = loadShape();
    LowMdes low = LowMdes::lower(m, {});
    Checker checker(low);
    Rng rng(2024);

    for (int trial = 0; trial < 500; ++trial) {
        RuMap ru;
        // Random pre-existing reservations over cycles -2..2.
        for (int c = -2; c <= 2; ++c)
            ru.reserve(c, rng.next() & 0x3F);
        RuMap ru_copy = ru;
        CheckStats stats;
        bool got = checker.tryReserve(0, 0, ru, stats);
        bool want = oracleFits(m, 0, 0, ru_copy);
        ASSERT_EQ(got, want) << "trial " << trial;
    }
}

TEST(Checker, StatsMergeCombines)
{
    CheckStats a, b;
    a.attempts = 3;
    a.options_checked = 7;
    a.options_per_attempt.add(2);
    a.attempts_per_tree = {1, 2};
    b.attempts = 2;
    b.successes = 2;
    b.resource_checks = 9;
    b.options_per_attempt.add(5);
    b.attempts_per_tree = {0, 1, 4};
    a.merge(b);
    EXPECT_EQ(a.attempts, 5u);
    EXPECT_EQ(a.successes, 2u);
    EXPECT_EQ(a.options_checked, 7u);
    EXPECT_EQ(a.resource_checks, 9u);
    EXPECT_EQ(a.options_per_attempt.total(), 2u);
    EXPECT_EQ(a.attempts_per_tree,
              (std::vector<uint64_t>{1, 3, 4}));
}

} // namespace
} // namespace mdes

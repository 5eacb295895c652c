/**
 * @file
 * Flat query-engine contract tests.
 *
 * The checker rebuild (slot addressing, epoch-stamped pending overlay,
 * collision-vector prefilter, flat probe program) must be *observably
 * identical* to the straightforward tree-walking engine it replaced:
 * same decisions, same chosen options, same reservations. This file
 * pins that contract:
 *
 *  - a ReferenceChecker implements the pre-rebuild algorithm directly
 *    off the lowered description (nested tree walk, cycle-addressed map
 *    probes, linear pending scan) and is run in lockstep against the
 *    real Checker over random machines, linear and modulo maps, and
 *    negative issue cycles;
 *  - eachSubtreeFits() keeps the contract its header states: it is
 *    side-effect-free (probing between two tryReserve()s changes
 *    neither the map nor any checker state that could alter a later
 *    decision), it answers and counts like tryReserve() on a copy of
 *    the map on the four paper machines, and a false answer stays false
 *    on every fuller map of a machine whose subtrees overlap;
 *  - the RU map itself is checked against a naive std::map model,
 *    including modulo wrap with multi-word machines (ii x slotWords()
 *    slots) and negative decode-stage cycles.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "core/transforms.h"
#include "exp/runner.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "rumap/checker.h"
#include "rumap/ru_map.h"
#include "support/rng.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using rumap::Checker;
using rumap::CheckStats;
using rumap::RuMap;
using testing::randomMdes;
using testing::RandomMdesOptions;

// ---------------------------------------------------------- reference

/**
 * The pre-rebuild constraint checker, kept deliberately naive: walk the
 * shared AND/OR structures through five levels of indirection, probe the
 * map through the cycle-addressed API (normalizing on every probe), and
 * test options already chosen this attempt with a linear scan of the
 * pending list. Slow, obvious, and the semantic oracle for Checker.
 */
class ReferenceChecker
{
  public:
    explicit ReferenceChecker(const LowMdes &low) : low_(low) {}

    bool
    tryReserve(uint32_t tree, int32_t cycle, RuMap &ru,
               std::vector<uint32_t> *chosen = nullptr)
    {
        bool ok = evaluate(tree, cycle, ru, chosen);
        ++attempts;
        if (ok) {
            ++successes;
            for (const auto &p : pending_)
                ru.reserveSlot(p.first, p.second);
        }
        return ok;
    }

    uint64_t attempts = 0;
    uint64_t successes = 0;

  private:
    bool
    evaluate(uint32_t tree, int32_t cycle, const RuMap &ru,
             std::vector<uint32_t> *chosen)
    {
        pending_.clear();
        if (chosen)
            chosen->clear();
        const lmdes::LowTree &t = low_.trees()[tree];
        int32_t base = cycle * int32_t(low_.slotWords());
        for (uint32_t s = 0; s < t.num_or_trees; ++s) {
            const lmdes::LowOrTree &ot =
                low_.orTrees()[low_.orRefs()[t.first_or_ref + s]];
            bool found = false;
            for (uint32_t oi = 0; oi < ot.num_options && !found; ++oi) {
                uint32_t opt_id =
                    low_.optionRefs()[ot.first_option_ref + oi];
                const lmdes::LowOption &opt = low_.options()[opt_id];
                bool fits = true;
                for (uint32_t c = 0; c < opt.num_checks && fits; ++c) {
                    const lmdes::Check &chk =
                        low_.checks()[opt.first_check + c];
                    int32_t at = ru.normalize(base + chk.slot);
                    if (!ru.availableSlot(at, chk.mask) ||
                        pendingConflict(at, chk.mask))
                        fits = false;
                }
                if (fits) {
                    found = true;
                    for (uint32_t c = 0; c < opt.num_checks; ++c) {
                        const lmdes::Check &chk =
                            low_.checks()[opt.first_check + c];
                        pending_.push_back(
                            {ru.normalize(base + chk.slot), chk.mask});
                    }
                    if (chosen)
                        chosen->push_back(opt_id);
                }
            }
            if (!found)
                return false;
        }
        return true;
    }

    bool
    pendingConflict(int32_t slot, uint64_t mask) const
    {
        for (const auto &p : pending_)
            if (p.first == slot && (p.second & mask) != 0)
                return true;
        return false;
    }

    const LowMdes &low_;
    std::vector<std::pair<int32_t, uint64_t>> pending_;
};

/** Every map word over a window wide enough to cover any reservation
 * the tests can make (both engines probe identical slots, so equal
 * windows means equal maps). */
std::vector<uint64_t>
snapshot(const RuMap &ru, const LowMdes &low)
{
    std::vector<uint64_t> words;
    if (ru.initiationInterval() > 0) {
        for (int32_t s = 0; s < ru.initiationInterval(); ++s)
            words.push_back(ru.wordSlot(s));
    } else {
        int32_t span = 64 * int32_t(low.slotWords());
        for (int32_t s = -span; s < span; ++s)
            words.push_back(ru.wordSlot(s));
    }
    return words;
}

// -------------------------------------------------------- equivalence

/** Run the real Checker and the ReferenceChecker in lockstep over every
 * (cycle, op-class) attempt and require identical decisions, chosen
 * options, and maps after every single attempt. */
void
runLockstep(const LowMdes &low, RuMap &ru_new, RuMap &ru_ref,
            int32_t first_cycle, int32_t last_cycle)
{
    Checker checker(low);
    ReferenceChecker ref(low);
    CheckStats stats;
    std::vector<uint32_t> chosen_new, chosen_ref;

    for (int32_t cycle = first_cycle; cycle <= last_cycle; ++cycle) {
        for (const auto &oc : low.opClasses()) {
            // The relaxed pure query never refuses what the greedy
            // attempt is about to accept.
            const bool relaxed =
                checker.eachSubtreeFits(oc.tree, cycle, ru_new);

            bool ok_new = checker.tryReserve(oc.tree, cycle, ru_new,
                                             stats, &chosen_new);
            bool ok_ref =
                ref.tryReserve(oc.tree, cycle, ru_ref, &chosen_ref);
            ASSERT_EQ(ok_new, ok_ref)
                << "tryReserve diverged: tree " << oc.tree << " cycle "
                << cycle;
            ASSERT_TRUE(relaxed || !ok_new)
                << "eachSubtreeFits refused an attempt tryReserve "
                   "accepted: tree "
                << oc.tree << " cycle " << cycle;
            // chosen_options is only specified on success (on failure
            // the prefilter may reject before any option is walked).
            if (ok_new) {
                ASSERT_EQ(chosen_new, chosen_ref)
                    << "chosen options diverged: tree " << oc.tree
                    << " cycle " << cycle;
            }
            ASSERT_EQ(snapshot(ru_new, low), snapshot(ru_ref, low))
                << "maps diverged after tree " << oc.tree << " cycle "
                << cycle;
        }
    }
    // eachSubtreeFits() ran once per attempt above and recorded
    // nothing.
    EXPECT_EQ(stats.attempts, ref.attempts);
    EXPECT_EQ(stats.successes, ref.successes);
}

TEST(QueryEngineEquivalence, LinearMapsOnRandomMachines)
{
    Rng rng(20260806);
    for (int iter = 0; iter < 12; ++iter) {
        RandomMdesOptions opts;
        opts.disjoint_subtrees = (iter % 2 == 0);
        Mdes m = randomMdes(rng, opts);
        LowMdes low = LowMdes::lower(m, {});
        RuMap ru_new, ru_ref;
        runLockstep(low, ru_new, ru_ref, 0, 11);
    }
}

TEST(QueryEngineEquivalence, NegativeDecodeStageCycles)
{
    // Usage times start at -2 in the generator, so early negative issue
    // cycles exercise downward window growth and Euclidean wrap.
    Rng rng(977);
    for (int iter = 0; iter < 8; ++iter) {
        RandomMdesOptions opts;
        opts.disjoint_subtrees = (iter % 2 == 0);
        Mdes m = randomMdes(rng, opts);
        LowMdes low = LowMdes::lower(m, {});
        RuMap ru_new, ru_ref;
        runLockstep(low, ru_new, ru_ref, -9, 4);
    }
}

TEST(QueryEngineEquivalence, ModuloMapsWrapIdentically)
{
    Rng rng(31337);
    for (int iter = 0; iter < 10; ++iter) {
        RandomMdesOptions opts;
        opts.disjoint_subtrees = (iter % 2 == 0);
        Mdes m = randomMdes(rng, opts);
        LowMdes low = LowMdes::lower(m, {});
        // Whole cycles wrap together: ii x slotWords() slots.
        int32_t ii = int32_t(2 + (iter % 5));
        RuMap ru_new(ii * int32_t(low.slotWords()));
        RuMap ru_ref(ii * int32_t(low.slotWords()));
        runLockstep(low, ru_new, ru_ref, -6, 9);
    }
}

// ------------------------------------------------------------- purity

TEST(EachSubtreeFitsPurity, ProbeBetweenReservesChangesNothing)
{
    // Two identical runs of the same tryReserve sequence; the probed run
    // additionally calls eachSubtreeFits between every pair of
    // reserves. Every decision, every chosen option, and the final map
    // must be unaffected, and each probe must leave the map bytes
    // untouched.
    Rng rng(424242);
    for (int iter = 0; iter < 8; ++iter) {
        RandomMdesOptions opts;
        opts.disjoint_subtrees = (iter % 2 == 0);
        Mdes m = randomMdes(rng, opts);
        LowMdes low = LowMdes::lower(m, {});

        Checker control(low), probed(low);
        CheckStats control_stats, probed_stats;
        RuMap ru_control, ru_probed;
        std::vector<uint32_t> chosen_control, chosen_probed;

        for (int32_t cycle = 0; cycle < 10; ++cycle) {
            for (const auto &oc : low.opClasses()) {
                // A burst of pure queries across trees and cycles,
                // including ones about to be reserved.
                auto before = snapshot(ru_probed, low);
                for (const auto &other : low.opClasses()) {
                    probed.eachSubtreeFits(other.tree, cycle, ru_probed);
                    probed.eachSubtreeFits(other.tree, cycle + 1,
                                           ru_probed);
                }
                EXPECT_EQ(before, snapshot(ru_probed, low))
                    << "eachSubtreeFits mutated the map";

                bool ok_control = control.tryReserve(
                    oc.tree, cycle, ru_control, control_stats,
                    &chosen_control);
                bool ok_probed = probed.tryReserve(
                    oc.tree, cycle, ru_probed, probed_stats,
                    &chosen_probed);
                ASSERT_EQ(ok_control, ok_probed)
                    << "eachSubtreeFits changed a later tryReserve "
                       "decision";
                ASSERT_EQ(chosen_control, chosen_probed);
            }
        }
        EXPECT_EQ(snapshot(ru_control, low), snapshot(ru_probed, low));
        // The interleaved queries recorded no attempts (no stats passed)
        // and must not have perturbed the reserving statistics.
        EXPECT_EQ(control_stats.attempts, probed_stats.attempts);
        EXPECT_EQ(control_stats.successes, probed_stats.successes);
        EXPECT_EQ(control_stats.resource_checks,
                  probed_stats.resource_checks);
        EXPECT_EQ(control_stats.prefilter_hits,
                  probed_stats.prefilter_hits);
    }
}

// ----------------------------------------- eachSubtreeFits() contract

/** Every AND/OR-tree an op class of @p low issues with, cascade trees
 * included. */
std::vector<uint32_t>
issueTrees(const LowMdes &low)
{
    std::vector<uint32_t> trees;
    for (const auto &oc : low.opClasses()) {
        trees.push_back(oc.tree);
        if (oc.cascade_tree != kInvalidId)
            trees.push_back(oc.cascade_tree);
    }
    return trees;
}

TEST(EachSubtreeFits, AnswersAndCountsLikeTryReserveOnPaperMachines)
{
    // The paper machines' AND subtrees use disjoint resources, so the
    // pending overlay never refuses an option: the pure probe is the
    // greedy attempt without its commit, with the same answer and the
    // same counts as tryReserve() on a copy of the map.
    Rng rng(20261020);
    uint64_t fits = 0;
    uint64_t refusals = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        for (bool optimized : {false, true}) {
            const LowMdes low = exp::compileSourceToLow(
                info->source,
                optimized ? PipelineConfig::all() : PipelineConfig::none(),
                /*bit_vector=*/optimized);
            const std::vector<uint32_t> trees = issueTrees(low);
            Checker checker(low);
            RuMap ru;
            CheckStats filling;
            for (int step = 0; step < 2000; ++step) {
                const uint32_t tree = trees[rng.below(trees.size())];
                const int32_t cycle = int32_t(rng.range(-2, 30));
                CheckStats pure, greedy;
                const bool fit =
                    checker.eachSubtreeFits(tree, cycle, ru, &pure);
                RuMap copy = ru;
                ASSERT_EQ(fit, checker.tryReserve(tree, cycle, copy, greedy))
                    << info->name << " tree " << tree << " cycle " << cycle;
                EXPECT_EQ(pure.attempts, greedy.attempts);
                EXPECT_EQ(pure.successes, greedy.successes);
                EXPECT_EQ(pure.options_checked, greedy.options_checked);
                EXPECT_EQ(pure.resource_checks, greedy.resource_checks);
                EXPECT_EQ(pure.prefilter_hits, greedy.prefilter_hits);
                EXPECT_EQ(pure.probe_fastpath, greedy.probe_fastpath);
                EXPECT_EQ(pure.options_per_attempt,
                          greedy.options_per_attempt);
                ++(fit ? fits : refusals);
                // Every other step reserves for real, so the map fills.
                if (step % 2 == 0)
                    checker.tryReserve(tree, cycle, ru, filling);
            }
        }
    }
    EXPECT_GT(fits, 0u);
    EXPECT_GT(refusals, 0u);
}

TEST(EachSubtreeFits, AFalseAnswerStaysFalseOnFullerMaps)
{
    // On machines whose AND subtrees share resources, once the probe
    // refuses (tree, cycle) no further reservation makes it fit: the
    // property that lets the exact search bump an earliest start for
    // the whole search subtree. The greedy answer of tryReserve() lacks
    // it, and the sample is large enough to show that.
    constexpr int32_t kCycles = 8;
    Rng rng(9090);
    uint64_t refusals = 0;
    uint64_t greedy_flips = 0;
    for (int iter = 0; iter < 80; ++iter) {
        RandomMdesOptions opts;
        opts.disjoint_subtrees = false;
        opts.min_subtrees = 2;
        Mdes m = randomMdes(rng, opts);
        LowMdes low = LowMdes::lower(m, {});
        Checker checker(low);
        const std::vector<uint32_t> trees = issueTrees(low);
        const int32_t words = int32_t(low.slotWords());
        std::vector<bool> refused(trees.size() * kCycles, false);
        std::vector<bool> greedy_refused(trees.size() * kCycles, false);
        RuMap ru;
        CheckStats stats;
        for (int round = 0; round < 12; ++round) {
            for (size_t t = 0; t < trees.size(); ++t) {
                for (int32_t c = 0; c < kCycles; ++c) {
                    const size_t at = t * kCycles + size_t(c);
                    const bool fit = checker.eachSubtreeFits(trees[t], c, ru);
                    ASSERT_FALSE(refused[at] && fit)
                        << "machine " << iter << " tree " << trees[t]
                        << " cycle " << c << " fits a fuller map";
                    refusals += !fit;
                    refused[at] = refused[at] || !fit;

                    RuMap copy = ru;
                    CheckStats scratch;
                    const bool greedy =
                        checker.tryReserve(trees[t], c, copy, scratch);
                    greedy_flips += greedy_refused[at] && greedy;
                    greedy_refused[at] = greedy_refused[at] || !greedy;
                }
            }
            // More reservations: two attempts and one busy bit.
            for (int k = 0; k < 2; ++k)
                checker.tryReserve(trees[rng.below(trees.size())],
                                   int32_t(rng.below(kCycles)), ru, stats);
            const int64_t slot = rng.range(-2 * words, (kCycles + 4) * words);
            ru.reserveSlot(int32_t(slot), uint64_t(1) << rng.below(64));
        }
    }
    EXPECT_GT(refusals, 0u);
    EXPECT_GT(greedy_flips, 0u);
}

// --------------------------------------------------- RuMap vs a model

/** Naive RU-map model: a std::map from normalized slot to word. */
struct NaiveMap
{
    explicit NaiveMap(int32_t ii = 0) : ii(ii) {}

    int32_t
    norm(int32_t slot) const
    {
        if (ii == 0)
            return slot;
        int32_t m = slot % ii;
        return m < 0 ? m + ii : m;
    }
    bool
    available(int32_t slot, uint64_t mask) const
    {
        auto it = words.find(norm(slot));
        return it == words.end() || (it->second & mask) == 0;
    }
    void reserve(int32_t slot, uint64_t mask) { words[norm(slot)] |= mask; }
    void
    release(int32_t slot, uint64_t mask)
    {
        auto it = words.find(norm(slot));
        if (it != words.end())
            it->second &= ~mask;
    }
    uint64_t
    word(int32_t slot) const
    {
        auto it = words.find(norm(slot));
        return it == words.end() ? 0 : it->second;
    }

    int32_t ii;
    std::map<int32_t, uint64_t> words;
};

TEST(RuMapProperty, LinearMatchesNaiveModelWithNegativeCycles)
{
    Rng rng(555);
    RuMap ru;
    NaiveMap model;
    for (int step = 0; step < 4000; ++step) {
        int32_t cycle = int32_t(rng.range(-60, 90));
        uint64_t mask = rng.next() | 1;
        switch (rng.below(3)) {
        case 0:
            ru.reserve(cycle, mask);
            model.reserve(cycle, mask);
            break;
        case 1:
            ru.release(cycle, mask);
            model.release(cycle, mask);
            break;
        default:
            ASSERT_EQ(ru.available(cycle, mask),
                      model.available(cycle, mask))
                << "cycle " << cycle;
            break;
        }
        ASSERT_EQ(ru.word(cycle), model.word(cycle)) << "cycle " << cycle;
    }
    for (int32_t cycle = -70; cycle <= 100; ++cycle)
        ASSERT_EQ(ru.word(cycle), model.word(cycle)) << "cycle " << cycle;
}

TEST(RuMapProperty, ModuloWrapMatchesNaiveModelForMultiWordMachines)
{
    // Multi-word machines wrap whole cycles together: the map's wrap
    // length is ii x slotWords, and slot = cycle x slotWords + word.
    Rng rng(777);
    for (int32_t slot_words = 1; slot_words <= 3; ++slot_words) {
        for (int32_t ii = 1; ii <= 7; ++ii) {
            int32_t wrap = ii * slot_words;
            RuMap ru(wrap);
            NaiveMap model(wrap);
            ASSERT_EQ(ru.initiationInterval(), wrap);
            for (int step = 0; step < 1200; ++step) {
                int32_t cycle = int32_t(rng.range(-40, 40));
                int32_t word = int32_t(rng.below(uint64_t(slot_words)));
                int32_t slot = cycle * slot_words + word;
                uint64_t mask = rng.next() | 1;
                switch (rng.below(3)) {
                case 0:
                    ru.reserve(slot, mask);
                    model.reserve(slot, mask);
                    break;
                case 1:
                    ru.release(slot, mask);
                    model.release(slot, mask);
                    break;
                default:
                    ASSERT_EQ(ru.available(slot, mask),
                              model.available(slot, mask))
                        << "slot " << slot << " wrap " << wrap;
                    break;
                }
            }
            for (int32_t s = 0; s < wrap; ++s)
                ASSERT_EQ(ru.wordSlot(s), model.word(s))
                    << "slot " << s << " wrap " << wrap;
            // Wrap identity: any cycle far outside the interval lands
            // on the same word as its Euclidean remainder.
            for (int32_t s = -3 * wrap; s < 3 * wrap; ++s)
                ASSERT_EQ(ru.word(s), model.word(s))
                    << "slot " << s << " wrap " << wrap;
        }
    }
}

} // namespace
} // namespace mdes

#include "rumap/checker.h"

#include <bit>

#include "support/trace.h"

namespace mdes::rumap {

void
CheckStats::sizeFor(const lmdes::LowMdes &low)
{
    if (attempts_per_tree.size() < low.trees().size())
        attempts_per_tree.resize(low.trees().size(), 0);
    // The conflict table is a tracing artifact: it must stay empty while
    // tracing is off (dormant probe hooks), so only pre-size it when the
    // conflict path can actually run.
    if (trace::enabled()) {
        size_t instances = size_t(low.slotWords()) * 64;
        if (conflicts_per_resource.size() < instances)
            conflicts_per_resource.resize(instances, 0);
    }
}

void
CheckStats::merge(const CheckStats &other)
{
    attempts += other.attempts;
    successes += other.successes;
    options_checked += other.options_checked;
    resource_checks += other.resource_checks;
    prefilter_hits += other.prefilter_hits;
    probe_fastpath += other.probe_fastpath;
    options_per_attempt.merge(other.options_per_attempt);
    options_per_success.merge(other.options_per_success);
    if (other.attempts_per_tree.size() > attempts_per_tree.size())
        attempts_per_tree.resize(other.attempts_per_tree.size(), 0);
    for (size_t i = 0; i < other.attempts_per_tree.size(); ++i)
        attempts_per_tree[i] += other.attempts_per_tree[i];
    if (other.conflicts_per_resource.size() >
        conflicts_per_resource.size())
        conflicts_per_resource.resize(other.conflicts_per_resource.size(),
                                      0);
    for (size_t i = 0; i < other.conflicts_per_resource.size(); ++i)
        conflicts_per_resource[i] += other.conflicts_per_resource[i];
}

void
Checker::recordConflict(CheckStats &stats, int32_t at, uint64_t busy)
    const
{
    // Slots interleave the machine's RU-map words per cycle, so the word
    // index is the slot modulo slotWords() (Euclidean: pre-shift usage
    // times can be negative).
    int32_t words = int32_t(low_.slotWords());
    int32_t word = at % words;
    if (word < 0)
        word += words;
    size_t base = size_t(word) * 64;
    if (stats.conflicts_per_resource.size() < base + 64)
        stats.conflicts_per_resource.resize(base + 64, 0);
    while (busy != 0) {
        unsigned bit = unsigned(std::countr_zero(busy));
        busy &= busy - 1;
        ++stats.conflicts_per_resource[base + bit];
    }
}

Checker::Checker(const lmdes::LowMdes &low) : low_(low)
{
    buildFlat();
}

void
Checker::buildFlat()
{
    const auto &trees = low_.trees();
    const auto &summaries = low_.treeSummaries();
    flat_trees_.reserve(trees.size());
    flat_pf_ = low_.prefilter();

    for (size_t ti = 0; ti < trees.size(); ++ti) {
        const lmdes::LowTree &t = trees[ti];
        const lmdes::TreeSummary &sum = summaries[ti];
        FlatTree ft;
        ft.first_sub = uint32_t(flat_subs_.size());
        ft.num_subs = t.num_or_trees;
        ft.first_pf = sum.first_prefilter;
        ft.num_pf = sum.num_prefilter;
        ft.min_slot = sum.min_slot;
        ft.max_slot = sum.max_slot;

        for (uint32_t s = 0; s < t.num_or_trees; ++s) {
            const lmdes::LowOrTree &ot =
                low_.orTrees()[low_.orRefs()[t.first_or_ref + s]];
            FlatSub fs;
            fs.first_opt = uint32_t(flat_opts_.size());
            fs.num_opts = ot.num_options;
            for (uint32_t oi = 0; oi < ot.num_options; ++oi) {
                uint32_t opt_id =
                    low_.optionRefs()[ot.first_option_ref + oi];
                const lmdes::LowOption &opt = low_.options()[opt_id];
                FlatOpt fo;
                fo.opt_id = opt_id;
                fo.first_check = uint32_t(flat_checks_.size());
                fo.num_checks = opt.num_checks;
                for (uint32_t c = 0; c < opt.num_checks; ++c)
                    flat_checks_.push_back(
                        low_.checks()[opt.first_check + c]);
                flat_opts_.push_back(fo);
                // First-check array, parallel to flat_opts_: failing
                // options almost always fail on their first probe, so
                // the option scan reads only this dense stream and
                // touches FlatOpt for surviving candidates. A checkless
                // option gets a never-busy probe at an in-window slot.
                if (opt.num_checks > 0)
                    flat_first_.push_back(
                        low_.checks()[opt.first_check]);
                else
                    flat_first_.push_back({sum.min_slot, 0});
            }
            flat_subs_.push_back(fs);
        }
        flat_trees_.push_back(ft);
    }
}

namespace {

/**
 * Addressing policies: how a check's tree-relative slot becomes a
 * map-normalized slot and how that slot's word is read. The probe picks
 * one per attempt from the tree's slot window (lmdes::TreeSummary), so
 * the window test and the normalization are paid once per attempt, not
 * once per check.
 */

/** Linear map with the tree's whole window allocated: unchecked direct
 * indexing off the raw window. */
struct DirectAddr
{
    const uint64_t *data; ///< windowData()
    int32_t wbase;        ///< windowBase()
    int32_t base;         ///< issue cycle in slot units

    int32_t norm(int32_t rel) const { return base + rel; }
    uint64_t
    word(int32_t at) const
    {
        return data[size_t(at - wbase)];
    }
};

/**
 * Modulo map whose slot window fits inside the initiation interval:
 * the issue cycle is normalized once, then each check wraps with a
 * single compare instead of a Euclidean division.
 */
struct WrapAddr
{
    const uint64_t *data; ///< the ii-slot modulo window (base 0)
    int32_t ii;
    int32_t nbase; ///< normalize(issue base), in [0, ii)

    int32_t
    norm(int32_t rel) const
    {
        int32_t at = nbase + rel;
        if (at >= ii)
            at -= ii;
        else if (at < 0)
            at += ii;
        return at;
    }
    uint64_t word(int32_t at) const { return data[size_t(at)]; }
};

/** Fallback: full normalization and a bounds-checked read per check. */
struct GeneralAddr
{
    const RuMap &ru;
    int32_t base;

    int32_t norm(int32_t rel) const { return ru.normalize(base + rel); }
    uint64_t word(int32_t at) const { return ru.wordSlot(at); }
};

} // namespace

// The multi-subtree (AND/OR) walk. Out of line on purpose: probe()
// handles the prefilter and the single-subtree scan - the most frequent
// attempt outcomes - in its own frame, and only AND-level attempts pay
// for this function's spills.
template <bool Commit, class Addr>
__attribute__((noinline)) bool
Checker::walk(const FlatTree &ft, const Addr &addr, RuMap *mut,
              CheckStats *stats, std::vector<uint32_t> *chosen_options,
              std::vector<Reservation> *reserved,
              int32_t overlay_base) const
{
    // Tracing gate, hoisted: the conflict path tests one local flag
    // instead of reloading the trace state per failed probe.
    const bool tracing = stats && trace::enabled();
    // Resource checks accumulate in a register and post to the stats
    // block once per attempt (every exit path below), not once per
    // probe. The prefilter probes already ran in probe().
    uint64_t checks_done = ft.num_pf;

    uint64_t options_this_attempt = 0;
    const FlatSub *subs = flat_subs_.data() + ft.first_sub;

    bool all_satisfied = true;
    for (uint32_t s = 0; s < ft.num_subs && all_satisfied; ++s) {
        const FlatOpt *opts = flat_opts_.data() + subs[s].first_opt;
        const lmdes::Check *first =
            flat_first_.data() + subs[s].first_opt;
        // The overlay only matters once an earlier subtree stamped
        // something; pending_ cannot change while this subtree's
        // options are walked, so the flag holds for the whole loop.
        // With nothing pending (every first subtree, and every tree
        // whose subtrees are disjoint in practice) the probe is a
        // single word load.
        const bool overlaid = Commit && !pending_.empty();
        bool found = false;
        for (uint32_t oi = 0; oi < subs[s].num_opts && !found; ++oi) {
            ++options_this_attempt;

            // Failing options almost always fail on their first probe:
            // scan the dense first-check stream and only load the full
            // option record once the first probe passes.
            int32_t at0 = addr.norm(first[oi].slot);
            uint64_t busy0 = addr.word(at0) & first[oi].mask;
            if (overlaid)
                busy0 |= pendingMask(at0, overlay_base) &
                         first[oi].mask;
            if (busy0 != 0) {
                ++checks_done;
                if (tracing) [[unlikely]]
                    recordConflict(*stats, at0, busy0);
                continue;
            }

            const FlatOpt &opt = opts[oi];
            const lmdes::Check *checks =
                flat_checks_.data() + opt.first_check;
            bool fits = true;
            uint32_t c = 1;
            for (; c < opt.num_checks; ++c) {
                int32_t at = addr.norm(checks[c].slot);
                uint64_t busy = addr.word(at) & checks[c].mask;
                if (overlaid)
                    busy |= pendingMask(at, overlay_base) &
                            checks[c].mask;
                if (busy != 0) {
                    fits = false;
                    if (tracing) [[unlikely]]
                        recordConflict(*stats, at, busy);
                    break;
                }
            }
            checks_done += fits ? opt.num_checks : c + 1;
            if (fits) {
                found = true;
                // Overlay stamps exist for later subtrees to read; the
                // last subtree's choices only need the commit list. A
                // pure probe keeps neither.
                if (Commit && s + 1 < ft.num_subs) {
                    for (uint32_t k = 0; k < opt.num_checks; ++k)
                        addPending(addr.norm(checks[k].slot),
                                   checks[k].mask, overlay_base);
                } else if (Commit) {
                    for (uint32_t k = 0; k < opt.num_checks; ++k)
                        pending_.push_back(
                            {addr.norm(checks[k].slot),
                             checks[k].mask});
                }
                if (chosen_options)
                    chosen_options->push_back(opt.opt_id);
            }
        }
        all_satisfied = found;
    }

    if (stats) {
        stats->resource_checks += checks_done;
        stats->options_checked += options_this_attempt;
        stats->options_per_attempt.add(options_this_attempt);
    }
    if (!all_satisfied)
        return false;

    if (stats) {
        ++stats->successes;
        stats->options_per_success.add(options_this_attempt);
    }
    if constexpr (Commit) {
        for (const auto &p : pending_) {
            mut->reserveSlot(p.slot, p.mask);
            if (reserved)
                reserved->push_back({p.slot, p.mask});
        }
    }
    return true;
}

template <bool Commit>
bool
Checker::probe(uint32_t tree, int32_t cycle, const RuMap &ru, RuMap *mut,
               CheckStats *stats, std::vector<uint32_t> *chosen_options,
               std::vector<Reservation> *reserved) const
{
    // Issue cycle in RU-map slot units (slotWords() words per cycle).
    const int32_t base = cycle * int32_t(low_.slotWords());
    const FlatTree &ft = flat_trees_[tree];

    if (stats) {
        ++stats->attempts;
        if (stats->attempts_per_tree.size() <= tree)
            stats->attempts_per_tree.resize(tree + 1, 0);
        ++stats->attempts_per_tree[tree];
    }
    if (chosen_options)
        chosen_options->clear();

    const int32_t ii = ru.initiationInterval();
    const int32_t lo = base + ft.min_slot;
    int32_t overlay_base = 0;
    // Single-subtree trees (the whole OR-tree representation) never
    // touch the overlay or the pending list - walk() commits the
    // winning option directly - so all attempt bookkeeping is skipped,
    // as it is for a pure probe.
    if (Commit && ft.num_subs > 1) {
        // Starting a new attempt is one counter bump: overlay stamps
        // from earlier attempts are dead by epoch mismatch, never
        // cleared.
        ++epoch_;
        pending_.clear();
        size_t overlay_size;
        if (ii > 0) {
            overlay_size = size_t(ii);
        } else {
            overlay_base = lo;
            overlay_size = size_t(ft.max_slot - ft.min_slot) + 1;
        }
        if (overlay_epoch_.size() < overlay_size) {
            overlay_epoch_.resize(overlay_size, 0);
            overlay_mask_.resize(overlay_size, 0);
        }
    }

    // The two most frequent attempt outcomes run right here, in
    // probe()'s own frame; only AND-level (multi-subtree) walks leave
    // for the out-of-line walk().
    //
    // First the collision-vector prefilter: these bits are reserved by
    // every option of some OR subtree, so one busy bit proves no option
    // combination can fit. pending_ is empty at this point, so no
    // overlay lookup is needed. Then, for single-subtree trees (the
    // whole OR-tree representation), the option scan itself: no other
    // subtree ever reads its probes, so the attempt needs no overlay
    // and no pending list - the winning option commits its own checks
    // directly.
    auto go = [&](const auto &addr) {
        const lmdes::Check *pf = flat_pf_.data() + ft.first_pf;
        for (uint32_t i = 0; i < ft.num_pf; ++i) {
            int32_t at = addr.norm(pf[i].slot);
            uint64_t busy = addr.word(at) & pf[i].mask;
            if (busy != 0) {
                if (stats) {
                    stats->resource_checks += i + 1;
                    ++stats->prefilter_hits;
                    stats->options_per_attempt.add(0);
                    if (trace::enabled()) [[unlikely]]
                        recordConflict(*stats, at, busy);
                }
                return false;
            }
        }
        if (ft.num_subs != 1)
            return walk<Commit>(ft, addr, mut, stats, chosen_options,
                                reserved, overlay_base);

        uint64_t checks_done = ft.num_pf;
        const FlatSub &sub = flat_subs_[ft.first_sub];
        const FlatOpt *opts = flat_opts_.data() + sub.first_opt;
        const lmdes::Check *first = flat_first_.data() + sub.first_opt;
        for (uint32_t oi = 0; oi < sub.num_opts; ++oi) {
            // Failing options almost always fail on their first probe:
            // scan the dense first-check stream and only load the full
            // option record once the first probe passes.
            int32_t at0 = addr.norm(first[oi].slot);
            uint64_t busy0 = addr.word(at0) & first[oi].mask;
            if (busy0 != 0) {
                ++checks_done;
                if (stats && trace::enabled()) [[unlikely]]
                    recordConflict(*stats, at0, busy0);
                continue;
            }
            const FlatOpt &opt = opts[oi];
            const lmdes::Check *checks =
                flat_checks_.data() + opt.first_check;
            uint32_t c = 1;
            for (; c < opt.num_checks; ++c) {
                int32_t at = addr.norm(checks[c].slot);
                uint64_t busy = addr.word(at) & checks[c].mask;
                if (busy != 0) {
                    if (stats && trace::enabled()) [[unlikely]]
                        recordConflict(*stats, at, busy);
                    break;
                }
            }
            if (c < opt.num_checks) { // some later probe was busy
                checks_done += c + 1;
                continue;
            }
            checks_done += opt.num_checks;
            if (chosen_options)
                chosen_options->push_back(opt.opt_id);
            if (stats) {
                stats->resource_checks += checks_done;
                stats->options_checked += oi + 1;
                stats->options_per_attempt.add(oi + 1);
                ++stats->successes;
                stats->options_per_success.add(oi + 1);
            }
            if constexpr (Commit) {
                for (uint32_t k = 0; k < opt.num_checks; ++k)
                    mut->reserveSlot(addr.norm(checks[k].slot),
                                     checks[k].mask);
                if (reserved)
                    for (uint32_t k = 0; k < opt.num_checks; ++k)
                        reserved->push_back(
                            {addr.norm(checks[k].slot),
                             checks[k].mask});
            }
            return true;
        }
        if (stats) {
            stats->resource_checks += checks_done;
            stats->options_checked += sub.num_opts;
            stats->options_per_attempt.add(sub.num_opts);
        }
        return false;
    };

    if (ii > 0) {
        // One wrap step suffices when the window fits inside the
        // interval; the window condition also guarantees the map's
        // storage spans [0, ii) exactly.
        if (ft.min_slot > -ii && ft.max_slot < ii &&
            ru.windowBase() == 0 && ru.windowSize() == size_t(ii)) {
            if (stats)
                ++stats->probe_fastpath;
            return go(WrapAddr{ru.windowData(), ii, ru.normalize(base)});
        }
    } else {
        const int32_t wbase = ru.windowBase();
        if (lo >= wbase &&
            base + ft.max_slot < wbase + int32_t(ru.windowSize())) {
            if (stats)
                ++stats->probe_fastpath;
            return go(DirectAddr{ru.windowData(), wbase, base});
        }
    }
    return go(GeneralAddr{ru, base});
}

bool
Checker::tryReserve(uint32_t tree, int32_t cycle, RuMap &ru,
                    CheckStats &stats,
                    std::vector<uint32_t> *chosen_options,
                    std::vector<Reservation> *reserved)
{
    return probe<true>(tree, cycle, ru, &ru, &stats, chosen_options,
                       reserved);
}

bool
Checker::eachSubtreeFits(uint32_t tree, int32_t cycle, const RuMap &ru,
                         CheckStats *stats) const
{
    return probe<false>(tree, cycle, ru, nullptr, stats, nullptr, nullptr);
}

} // namespace mdes::rumap

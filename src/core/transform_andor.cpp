#include <algorithm>
#include <limits>
#include <numeric>

#include "core/transforms.h"

/**
 * @file
 * AND/OR-tree optimizations for early resource-conflict detection
 * (Section 8): OR-subtree sorting and common-usage hoisting.
 */

namespace mdes {

size_t
sortOrSubtrees(Mdes &m, size_t *skipped_overlapping)
{
    auto shares = m.orTreeShareCounts();
    size_t changed = 0;

    for (TreeId t = 0; t < m.trees().size(); ++t) {
        auto &subtrees = m.tree(t).or_trees;
        if (subtrees.size() < 2)
            continue;
        // Checking overlapping subtrees in another order can change
        // which option each one picks, and so the schedule.
        if (m.subtreesOverlap(t)) {
            if (skipped_overlapping)
                ++*skipped_overlapping;
            continue;
        }

        struct Key
        {
            int32_t earliest;
            size_t num_options;
            uint32_t shares;
            size_t original;
            OrTreeId id;
        };
        std::vector<Key> keys;
        keys.reserve(subtrees.size());
        for (size_t i = 0; i < subtrees.size(); ++i) {
            OrTreeId ot = subtrees[i];
            keys.push_back({m.earliestTimeOr(ot),
                            m.orTree(ot).options.size(), shares[ot], i,
                            ot});
        }
        // Heuristic sort criteria from Section 8, most significant first:
        // earliest usage time (most conflicts occur at time zero after the
        // usage-time transformation), fewest options, most shared (a proxy
        // for heavily used resources), original order.
        std::stable_sort(keys.begin(), keys.end(),
                         [](const Key &a, const Key &b) {
                             if (a.earliest != b.earliest)
                                 return a.earliest < b.earliest;
                             if (a.num_options != b.num_options)
                                 return a.num_options < b.num_options;
                             if (a.shares != b.shares)
                                 return a.shares > b.shares;
                             return a.original < b.original;
                         });
        bool moved = false;
        for (size_t i = 0; i < keys.size(); ++i) {
            if (keys[i].original != i)
                moved = true;
            subtrees[i] = keys[i].id;
        }
        if (moved)
            ++changed;
    }
    return changed;
}

namespace {

constexpr size_t kNoPos = std::numeric_limits<size_t>::max();

/** Usages present (exact time and resource) in every option of @p s. */
std::vector<ResourceUsage>
commonUsages(const Mdes &m, OrTreeId s)
{
    std::vector<ResourceUsage> common;
    const auto &options = m.orTree(s).options;
    for (const auto &u : m.option(options[0]).usages) {
        bool in_all = true;
        for (size_t i = 1; i < options.size() && in_all; ++i) {
            const auto &us = m.option(options[i]).usages;
            in_all = std::find(us.begin(), us.end(), u) != us.end();
        }
        if (in_all)
            common.push_back(u);
    }
    return common;
}

/** Number of usages in @p o at time @p time. */
size_t
usagesAtTime(const Mdes &m, OptionId o, int32_t time)
{
    size_t n = 0;
    for (const auto &u : m.option(o).usages) {
        if (u.time == time)
            ++n;
    }
    return n;
}

} // namespace

size_t
hoistCommonUsages(Mdes &m, size_t *skipped_overlapping)
{
    size_t hoisted = 0;

    for (TreeId t = 0; t < m.trees().size(); ++t) {
        if (m.subtreesOverlap(t)) {
            if (skipped_overlapping)
                ++*skipped_overlapping;
            continue;
        }
        for (size_t p = 0; p < m.tree(t).or_trees.size(); ++p) {
            OrTreeId s = m.tree(t).or_trees[p];
            if (m.orTree(s).options.size() < 2)
                continue;
            auto common = commonUsages(m, s);
            if (common.empty())
                continue;

            // Whether subtree position p already points at a private
            // clone this pass owns (entities may be shared with other
            // AND/OR-trees, so we clone before the first mutation and let
            // a following CSE pass re-merge anything that stayed equal).
            bool owned = false;

            for (const auto &u : common) {
                // Never create an empty option.
                bool would_empty = false;
                for (OptionId o : m.orTree(m.tree(t).or_trees[p]).options)
                    would_empty |= m.option(o).usages.size() == 1;
                if (would_empty)
                    continue;

                // Heuristic 1: an existing one-option subtree with a
                // usage at the same time. With bit-vector packing the
                // moved usage merges into that subtree's existing check.
                size_t target_pos = kNoPos;
                for (size_t q = 0; q < m.tree(t).or_trees.size(); ++q) {
                    if (q == p)
                        continue;
                    OrTreeId qt = m.tree(t).or_trees[q];
                    if (m.orTree(qt).options.size() != 1)
                        continue;
                    OptionId qo = m.orTree(qt).options[0];
                    bool same_time = std::any_of(
                        m.option(qo).usages.begin(),
                        m.option(qo).usages.end(),
                        [&](const ResourceUsage &v) {
                            return v.time == u.time;
                        });
                    if (same_time) {
                        target_pos = q;
                        break;
                    }
                }

                // Heuristic 2: the common usage is the only usage at its
                // time in every option, so each option loses one check in
                // exchange for the single added check.
                if (target_pos == kNoPos) {
                    bool only_at_time = true;
                    for (OptionId o :
                         m.orTree(m.tree(t).or_trees[p]).options) {
                        only_at_time &= usagesAtTime(m, o, u.time) == 1;
                    }
                    if (!only_at_time)
                        continue;
                }

                // Clone the subtree (and its options) before mutating.
                if (!owned) {
                    OrTree clone = m.orTree(m.tree(t).or_trees[p]);
                    for (auto &o : clone.options) {
                        Option opt_clone = m.option(o);
                        o = m.addOption(std::move(opt_clone));
                    }
                    clone.name += ".hoisted";
                    OrTreeId clone_id = m.addOrTree(std::move(clone));
                    m.tree(t).or_trees[p] = clone_id;
                    owned = true;
                }

                // Remove the common usage from every (owned) option.
                for (OptionId o :
                     m.orTree(m.tree(t).or_trees[p]).options) {
                    auto &us = m.option(o).usages;
                    us.erase(std::find(us.begin(), us.end(), u));
                }

                if (target_pos != kNoPos) {
                    // Clone the target one-option subtree and append the
                    // usage to its option.
                    OrTree clone = m.orTree(m.tree(t).or_trees[target_pos]);
                    Option opt_clone = m.option(clone.options[0]);
                    opt_clone.usages.push_back(u);
                    clone.options[0] = m.addOption(std::move(opt_clone));
                    OrTreeId clone_id = m.addOrTree(std::move(clone));
                    m.tree(t).or_trees[target_pos] = clone_id;
                } else {
                    // New one-option subtree, placed first so the common
                    // conflict is detected before any option fan-out.
                    Option lone;
                    lone.usages = {u};
                    OptionId lone_id = m.addOption(std::move(lone));
                    OrTree fresh;
                    fresh.name =
                        m.orTree(m.tree(t).or_trees[p]).name + ".common";
                    fresh.options = {lone_id};
                    OrTreeId fresh_id = m.addOrTree(std::move(fresh));
                    auto &subtrees = m.tree(t).or_trees;
                    subtrees.insert(subtrees.begin(), fresh_id);
                    ++p;
                }
                ++hoisted;
            }
        }
    }
    return hoisted;
}

} // namespace mdes

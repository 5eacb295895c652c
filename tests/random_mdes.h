#ifndef MDES_TESTS_RANDOM_MDES_H
#define MDES_TESTS_RANDOM_MDES_H

/**
 * @file
 * Random machine-description generator for property/fuzz tests.
 *
 * Two flavors:
 *  - disjoint AND subtrees (each subtree draws from its own resource
 *    classes, like the four shipped machines): the AND/OR and expanded
 *    OR representations are exactly equivalent, so the full pipeline
 *    must preserve schedules across *everything*;
 *  - overlapping subtrees: greedy AND evaluation is conservative, so
 *    only within-representation invariants are asserted.
 *
 * Generated descriptions always satisfy Mdes::validate() and keep
 * resource counts within the packed RU map's 64-instance limit.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "core/mdes.h"
#include "support/rng.h"
#include "workload/workload.h"

namespace mdes::testing {

/** "<prefix><i>", built by appending: GCC 12's -Wrestrict misfires on
 * `"literal" + std::string` in optimized builds. */
inline std::string
numbered(std::string prefix, int i)
{
    prefix += std::to_string(i);
    return prefix;
}

struct RandomMdesOptions
{
    /** Number of resource classes to declare. */
    int min_classes = 2, max_classes = 5;
    /** Instances per class. */
    int min_count = 1, max_count = 4;
    /** OR subtrees per AND/OR tree. */
    int min_subtrees = 1, max_subtrees = 3;
    /** Options per OR subtree. */
    int min_options = 1, max_options = 4;
    /** Usages per option. */
    int min_usages = 1, max_usages = 3;
    /** Usage-time range. */
    int min_time = -2, max_time = 4;
    /** Operation classes (tables may be shared between them). */
    int min_ops = 2, max_ops = 6;
    /** When true, each AND subtree draws from its own resource classes. */
    bool disjoint_subtrees = true;
    /** Inject duplicated options/OR-trees (CSE fodder). */
    bool inject_duplicates = true;
};

/** Generate a random but valid machine description. */
inline Mdes
randomMdes(Rng &rng, const RandomMdesOptions &opts = {})
{
    Mdes m("fuzz-" + std::to_string(rng.next() % 100000));

    int num_classes =
        int(rng.range(opts.min_classes, opts.max_classes));
    std::vector<ResourceId> class_first;
    std::vector<uint32_t> class_count;
    for (int c = 0; c < num_classes; ++c) {
        uint32_t count =
            uint32_t(rng.range(opts.min_count, opts.max_count));
        class_first.push_back(
            m.addResourceClass(numbered("R", c), count));
        class_count.push_back(count);
    }

    // Build an option over the given resource classes; usages unique.
    auto make_option = [&](const std::vector<int> &classes) {
        Option option;
        int usages = int(rng.range(opts.min_usages, opts.max_usages));
        int guard = 0;
        while (int(option.usages.size()) < usages && guard++ < 64) {
            int cls = classes[rng.below(classes.size())];
            ResourceUsage u;
            u.resource = class_first[cls] +
                         uint32_t(rng.below(class_count[cls]));
            u.time = int32_t(rng.range(opts.min_time, opts.max_time));
            if (std::find(option.usages.begin(), option.usages.end(),
                          u) == option.usages.end()) {
                option.usages.push_back(u);
            }
        }
        return option;
    };

    auto make_or_tree = [&](const std::vector<int> &classes,
                            const std::string &name) {
        OrTree tree;
        tree.name = name;
        int options = int(rng.range(opts.min_options, opts.max_options));
        for (int o = 0; o < options; ++o)
            tree.options.push_back(m.addOption(make_option(classes)));
        if (opts.inject_duplicates && rng.chance(0.3)) {
            // Copy-paste decay: duplicate an existing option verbatim.
            OptionId dup = tree.options[rng.below(tree.options.size())];
            Option copy = m.option(dup);
            tree.options.push_back(m.addOption(std::move(copy)));
        }
        return m.addOrTree(std::move(tree));
    };

    int num_ops = int(rng.range(opts.min_ops, opts.max_ops));
    std::vector<TreeId> tables;
    for (int t = 0; t < std::max(1, num_ops - 1); ++t) {
        int subtrees =
            int(rng.range(opts.min_subtrees, opts.max_subtrees));
        subtrees = std::min(subtrees, num_classes);
        AndOrTree tree;
        tree.name = numbered("T", t);

        if (opts.disjoint_subtrees) {
            // Partition a shuffled class list across the subtrees.
            std::vector<int> order(num_classes);
            for (int c = 0; c < num_classes; ++c)
                order[c] = c;
            for (int c = num_classes - 1; c > 0; --c)
                std::swap(order[c], order[rng.below(uint64_t(c) + 1)]);
            for (int s = 0; s < subtrees; ++s) {
                std::vector<int> mine;
                for (int c = s; c < num_classes; c += subtrees)
                    mine.push_back(order[c]);
                tree.or_trees.push_back(
                    make_or_tree(mine, numbered(numbered("O", t) + "_", s)));
            }
        } else {
            std::vector<int> all_classes(num_classes);
            for (int c = 0; c < num_classes; ++c)
                all_classes[c] = c;
            for (int s = 0; s < subtrees; ++s) {
                tree.or_trees.push_back(make_or_tree(
                    all_classes, numbered(numbered("O", t) + "_", s)));
            }
        }
        tables.push_back(m.addTree(std::move(tree)));
    }

    for (int o = 0; o < num_ops; ++o) {
        OperationClass oc;
        oc.name = "OP" + std::to_string(o);
        oc.tree = tables[rng.below(tables.size())];
        oc.latency = int(rng.range(1, 4));
        m.addOpClass(std::move(oc));
    }
    return m;
}

/** A workload spec covering every operation class of @p m. */
inline workload::WorkloadSpec
randomWorkloadSpec(const Mdes &m, uint64_t seed, size_t num_ops)
{
    workload::WorkloadSpec spec;
    spec.seed = seed;
    spec.num_ops = num_ops;
    spec.num_regs = 16;
    spec.min_block_size = 3;
    spec.max_block_size = 9;
    spec.src_locality = 0.5;
    for (const auto &oc : m.opClasses())
        spec.classes.push_back({oc.name, 1.0, 1, 1, false, false});
    return spec;
}

} // namespace mdes::testing

#endif // MDES_TESTS_RANDOM_MDES_H

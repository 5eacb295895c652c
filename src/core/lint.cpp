#include "core/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/collision.h"
#include "core/minimize.h"
#include "core/transforms.h"

namespace mdes {

const char *
lintKindName(LintKind kind)
{
    switch (kind) {
      case LintKind::RedundantOption: return "redundant-option";
      case LintKind::DuplicateOption: return "duplicate-option";
      case LintKind::DuplicateOrTree: return "duplicate-ortree";
      case LintKind::DuplicateTable: return "duplicate-table";
      case LintKind::UnusedEntity: return "unused";
      case LintKind::OverlappingSubtrees: return "overlapping-subtrees";
      case LintKind::UselessBypass: return "useless-bypass";
      case LintKind::RemovableUsage: return "removable-usage";
    }
    return "?";
}

namespace {

void
lintRedundantOptions(const Mdes &m, std::vector<LintFinding> &findings)
{
    for (OrTreeId t = 0; t < m.orTrees().size(); ++t) {
        const auto &options = m.orTree(t).options;
        for (size_t j = 1; j < options.size(); ++j) {
            for (size_t i = 0; i < j; ++i) {
                if (!m.option(options[j]).covers(m.option(options[i])))
                    continue;
                std::ostringstream os;
                bool identical =
                    m.option(options[i]) == m.option(options[j]);
                os << "ortree '" << m.orTree(t).name << "': option "
                   << (j + 1) << " is "
                   << (identical ? "identical to"
                                 : "a superset of higher-priority")
                   << " option " << (i + 1)
                   << " and can never be selected";
                findings.push_back(
                    {LintKind::RedundantOption, os.str()});
                break; // one report per option is enough
            }
        }
    }
}

void
lintDuplicates(const Mdes &m, std::vector<LintFinding> &findings)
{
    // Duplicate options (report per OR-tree pair of distinct ids).
    std::map<std::vector<ResourceUsage>, OptionId> canon_opt;
    std::set<OptionId> dup_options;
    for (OptionId o = 0; o < m.options().size(); ++o) {
        auto [it, inserted] = canon_opt.emplace(m.option(o).usages, o);
        if (!inserted)
            dup_options.insert(o);
    }
    if (!dup_options.empty()) {
        std::ostringstream os;
        os << dup_options.size()
           << " option(s) are verbatim copies of earlier options "
              "(copy-paste decay; CSE will merge them)";
        findings.push_back({LintKind::DuplicateOption, os.str()});
    }

    std::map<std::vector<ResourceUsage>, const OrTree *> dummy;
    std::map<std::string, OrTreeId> by_content;
    for (OrTreeId t = 0; t < m.orTrees().size(); ++t) {
        // Content key: the usage lists of the options, in order.
        std::ostringstream key;
        for (OptionId o : m.orTree(t).options) {
            for (const auto &u : m.option(o).usages)
                key << u.time << ":" << u.resource << ",";
            key << "|";
        }
        auto [it, inserted] = by_content.emplace(key.str(), t);
        if (!inserted) {
            std::ostringstream os;
            os << "ortree '" << m.orTree(t).name
               << "' is structurally identical to ortree '"
               << m.orTree(it->second).name << "'";
            findings.push_back({LintKind::DuplicateOrTree, os.str()});
        }
    }

    std::map<std::string, TreeId> tables_by_content;
    for (TreeId t = 0; t < m.trees().size(); ++t) {
        std::ostringstream key;
        for (OrTreeId ot : m.tree(t).or_trees)
            key << ot << ",";
        auto [it, inserted] = tables_by_content.emplace(key.str(), t);
        if (!inserted) {
            std::ostringstream os;
            os << "table '" << m.tree(t).name
               << "' references exactly the same OR-trees as table '"
               << m.tree(it->second).name << "'";
            findings.push_back({LintKind::DuplicateTable, os.str()});
        }
    }
}

void
lintUnused(const Mdes &m, std::vector<LintFinding> &findings)
{
    std::vector<bool> tree_live(m.trees().size(), false);
    std::vector<bool> or_live(m.orTrees().size(), false);
    for (const auto &oc : m.opClasses()) {
        if (oc.tree != kInvalidId)
            tree_live[oc.tree] = true;
        if (oc.cascade_tree != kInvalidId)
            tree_live[oc.cascade_tree] = true;
    }
    for (TreeId t = 0; t < m.trees().size(); ++t) {
        if (!tree_live[t]) {
            findings.push_back(
                {LintKind::UnusedEntity,
                 "table '" + m.tree(t).name +
                     "' is not referenced by any operation"});
            continue;
        }
        for (OrTreeId ot : m.tree(t).or_trees)
            or_live[ot] = true;
    }
    for (OrTreeId t = 0; t < m.orTrees().size(); ++t) {
        if (!or_live[t]) {
            // Only report OR-trees that are not reachable even through
            // unused tables (those are covered by the table finding).
            bool in_any_table = false;
            for (const auto &tree : m.trees()) {
                in_any_table |=
                    std::find(tree.or_trees.begin(),
                              tree.or_trees.end(),
                              t) != tree.or_trees.end();
            }
            if (!in_any_table) {
                findings.push_back(
                    {LintKind::UnusedEntity,
                     "ortree '" + m.orTree(t).name +
                         "' is not referenced by any table"});
            }
        }
    }
}

void
lintOverlaps(const Mdes &m, std::vector<LintFinding> &findings)
{
    std::set<TreeId> live;
    for (const auto &oc : m.opClasses()) {
        if (oc.tree != kInvalidId)
            live.insert(oc.tree);
        if (oc.cascade_tree != kInvalidId)
            live.insert(oc.cascade_tree);
    }
    for (TreeId t : live) {
        const auto &subtrees = m.tree(t).or_trees;
        for (size_t i = 0; i < subtrees.size(); ++i) {
            for (size_t j = i + 1; j < subtrees.size(); ++j) {
                if (m.orTreesOverlap(subtrees[i], subtrees[j])) {
                    findings.push_back(
                        {LintKind::OverlappingSubtrees,
                         "table '" + m.tree(t).name +
                             "': AND subtrees '" +
                             m.orTree(subtrees[i]).name + "' and '" +
                             m.orTree(subtrees[j]).name +
                             "' can claim the same resource at the "
                             "same time"});
                }
            }
        }
    }
}

void
lintBypasses(const Mdes &m, std::vector<LintFinding> &findings)
{
    for (const auto &bp : m.bypasses()) {
        if (bp.latency >= m.opClass(bp.from).latency) {
            findings.push_back(
                {LintKind::UselessBypass,
                 "bypass " + m.opClass(bp.from).name + " -> " +
                     m.opClass(bp.to).name +
                     " is not faster than the producer's nominal "
                     "latency"});
        }
    }
}

void
lintRemovableUsages(const Mdes &m, std::vector<LintFinding> &findings)
{
    // Run the Eichenberger/Davidson minimization on a copy and report
    // what it would strip.
    Mdes copy = m;
    size_t removable = minimizeUsages(copy);
    if (removable > 0) {
        std::ostringstream os;
        os << removable
           << " resource usage(s) add no scheduling constraint (their "
              "removal preserves every collision vector)";
        findings.push_back({LintKind::RemovableUsage, os.str()});
    }
}

} // namespace

std::vector<LintFinding>
lint(const Mdes &m, const LintOptions &options)
{
    std::vector<LintFinding> findings;
    if (options.redundant_options)
        lintRedundantOptions(m, findings);
    if (options.duplicates)
        lintDuplicates(m, findings);
    if (options.unused)
        lintUnused(m, findings);
    if (options.overlapping_subtrees)
        lintOverlaps(m, findings);
    if (options.useless_bypasses)
        lintBypasses(m, findings);
    if (options.removable_usages)
        lintRemovableUsages(m, findings);
    return findings;
}

} // namespace mdes

#include "core/mdes.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <sstream>

namespace mdes {

bool
Option::covers(const Option &other) const
{
    for (const auto &u : other.usages) {
        if (std::find(usages.begin(), usages.end(), u) == usages.end())
            return false;
    }
    return true;
}

ResourceId
Mdes::addResourceClass(const std::string &name, uint32_t count)
{
    assert(count >= 1);
    ResourceClass rc;
    rc.name = name;
    rc.count = count;
    rc.first_instance = num_resources_;
    resource_classes_.push_back(rc);
    num_resources_ += count;
    return rc.first_instance;
}

OptionId
Mdes::addOption(Option option)
{
    options_.push_back(std::move(option));
    return OptionId(options_.size() - 1);
}

OrTreeId
Mdes::addOrTree(OrTree tree)
{
    or_trees_.push_back(std::move(tree));
    return OrTreeId(or_trees_.size() - 1);
}

TreeId
Mdes::addTree(AndOrTree tree)
{
    trees_.push_back(std::move(tree));
    return TreeId(trees_.size() - 1);
}

OpClassId
Mdes::addOpClass(OperationClass op)
{
    op_classes_.push_back(std::move(op));
    return OpClassId(op_classes_.size() - 1);
}

std::string
Mdes::resourceName(ResourceId id) const
{
    for (const auto &rc : resource_classes_) {
        if (id >= rc.first_instance && id < rc.first_instance + rc.count) {
            if (rc.count == 1)
                return rc.name;
            std::ostringstream os;
            os << rc.name << "[" << (id - rc.first_instance) << "]";
            return os.str();
        }
    }
    return "<bad-resource>";
}

ResourceId
Mdes::findResource(const std::string &cls, uint32_t index) const
{
    for (const auto &rc : resource_classes_) {
        if (rc.name == cls && index < rc.count)
            return rc.first_instance + index;
    }
    return kInvalidId;
}

OpClassId
Mdes::findOpClass(const std::string &name) const
{
    for (size_t i = 0; i < op_classes_.size(); ++i) {
        if (op_classes_[i].name == name)
            return OpClassId(i);
    }
    return kInvalidId;
}

uint64_t
Mdes::expandedOptionCount(TreeId tree) const
{
    uint64_t product = 1;
    for (OrTreeId ot : trees_[tree].or_trees)
        product *= or_trees_[ot].options.size();
    return product;
}

uint64_t
Mdes::leafOptionCount(TreeId tree) const
{
    uint64_t sum = 0;
    for (OrTreeId ot : trees_[tree].or_trees)
        sum += or_trees_[ot].options.size();
    return sum;
}

int32_t
Mdes::earliestTime(OptionId id) const
{
    int32_t best = std::numeric_limits<int32_t>::max();
    for (const auto &u : options_[id].usages)
        best = std::min(best, u.time);
    return best;
}

int32_t
Mdes::earliestTimeOr(OrTreeId id) const
{
    int32_t best = std::numeric_limits<int32_t>::max();
    for (OptionId o : or_trees_[id].options)
        best = std::min(best, earliestTime(o));
    return best;
}

int32_t
Mdes::earliestTimeTree(TreeId id) const
{
    int32_t best = std::numeric_limits<int32_t>::max();
    for (OrTreeId ot : trees_[id].or_trees)
        best = std::min(best, earliestTimeOr(ot));
    return best;
}

bool
Mdes::orTreesOverlap(OrTreeId a, OrTreeId b) const
{
    for (OptionId oa : or_trees_[a].options) {
        for (OptionId ob : or_trees_[b].options) {
            for (const auto &ua : options_[oa].usages) {
                const auto &ub = options_[ob].usages;
                if (std::find(ub.begin(), ub.end(), ua) != ub.end())
                    return true;
            }
        }
    }
    return false;
}

bool
Mdes::subtreesOverlap(TreeId tree) const
{
    const auto &subtrees = trees_[tree].or_trees;
    for (size_t i = 0; i < subtrees.size(); ++i) {
        for (size_t j = i + 1; j < subtrees.size(); ++j) {
            if (orTreesOverlap(subtrees[i], subtrees[j]))
                return true;
        }
    }
    return false;
}

std::vector<uint32_t>
Mdes::orTreeShareCounts() const
{
    std::vector<uint32_t> counts(or_trees_.size(), 0);
    std::set<TreeId> live;
    for (const auto &oc : op_classes_) {
        if (oc.tree != kInvalidId)
            live.insert(oc.tree);
        if (oc.cascade_tree != kInvalidId)
            live.insert(oc.cascade_tree);
    }
    for (TreeId t : live) {
        for (OrTreeId ot : trees_[t].or_trees)
            ++counts[ot];
    }
    return counts;
}

std::string
Mdes::validate() const
{
    std::ostringstream os;
    for (size_t i = 0; i < options_.size(); ++i) {
        const auto &opt = options_[i];
        if (opt.usages.empty()) {
            os << "option " << i << " has no usages";
            return os.str();
        }
        auto sorted = opt.usages;
        std::sort(sorted.begin(), sorted.end());
        for (size_t j = 0; j + 1 < sorted.size(); ++j) {
            if (sorted[j] == sorted[j + 1]) {
                os << "option " << i << " uses "
                   << resourceName(sorted[j].resource) << " at time "
                   << sorted[j].time << " more than once";
                return os.str();
            }
        }
        for (const auto &u : opt.usages) {
            if (u.resource >= num_resources_) {
                os << "option " << i << " references resource "
                   << u.resource << " out of range";
                return os.str();
            }
        }
    }
    for (size_t i = 0; i < or_trees_.size(); ++i) {
        if (or_trees_[i].options.empty()) {
            os << "OR-tree '" << or_trees_[i].name << "' has no options";
            return os.str();
        }
        for (OptionId o : or_trees_[i].options) {
            if (o >= options_.size()) {
                os << "OR-tree '" << or_trees_[i].name
                   << "' references bad option " << o;
                return os.str();
            }
        }
    }
    for (size_t i = 0; i < trees_.size(); ++i) {
        if (trees_[i].or_trees.empty()) {
            os << "AND/OR-tree '" << trees_[i].name << "' has no subtrees";
            return os.str();
        }
        for (OrTreeId ot : trees_[i].or_trees) {
            if (ot >= or_trees_.size()) {
                os << "AND/OR-tree '" << trees_[i].name
                   << "' references bad OR-tree " << ot;
                return os.str();
            }
        }
    }
    for (const auto &oc : op_classes_) {
        if (oc.tree == kInvalidId || oc.tree >= trees_.size()) {
            os << "operation '" << oc.name << "' references bad tree";
            return os.str();
        }
        if (oc.cascade_tree != kInvalidId &&
            oc.cascade_tree >= trees_.size()) {
            os << "operation '" << oc.name
               << "' references bad cascade tree";
            return os.str();
        }
        if (oc.latency < 0) {
            os << "operation '" << oc.name << "' has negative latency";
            return os.str();
        }
    }
    return "";
}

size_t
Mdes::removeDeadEntities()
{
    // Mark phase: walk op classes -> trees -> OR-trees -> options.
    std::vector<bool> tree_live(trees_.size(), false);
    std::vector<bool> or_live(or_trees_.size(), false);
    std::vector<bool> opt_live(options_.size(), false);
    for (const auto &oc : op_classes_) {
        if (oc.tree != kInvalidId)
            tree_live[oc.tree] = true;
        if (oc.cascade_tree != kInvalidId)
            tree_live[oc.cascade_tree] = true;
    }
    for (size_t t = 0; t < trees_.size(); ++t) {
        if (!tree_live[t])
            continue;
        for (OrTreeId ot : trees_[t].or_trees)
            or_live[ot] = true;
    }
    for (size_t ot = 0; ot < or_trees_.size(); ++ot) {
        if (!or_live[ot])
            continue;
        for (OptionId o : or_trees_[ot].options)
            opt_live[o] = true;
    }

    // Sweep phase: compact each pool, building id remaps.
    auto compact = [](auto &pool, const std::vector<bool> &live,
                      std::vector<uint32_t> &remap) {
        remap.assign(pool.size(), kInvalidId);
        size_t out = 0;
        for (size_t i = 0; i < pool.size(); ++i) {
            if (!live[i])
                continue;
            remap[i] = uint32_t(out);
            if (out != i)
                pool[out] = std::move(pool[i]);
            ++out;
        }
        size_t removed = pool.size() - out;
        pool.resize(out);
        return removed;
    };

    std::vector<uint32_t> opt_remap, or_remap, tree_remap;
    size_t removed = 0;
    removed += compact(options_, opt_live, opt_remap);
    removed += compact(or_trees_, or_live, or_remap);
    removed += compact(trees_, tree_live, tree_remap);

    for (auto &ot : or_trees_) {
        for (auto &o : ot.options)
            o = opt_remap[o];
    }
    for (auto &t : trees_) {
        for (auto &ot : t.or_trees)
            ot = or_remap[ot];
    }
    for (auto &oc : op_classes_) {
        if (oc.tree != kInvalidId)
            oc.tree = tree_remap[oc.tree];
        if (oc.cascade_tree != kInvalidId)
            oc.cascade_tree = tree_remap[oc.cascade_tree];
    }
    return removed;
}

} // namespace mdes

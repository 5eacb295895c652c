#include "hmdes/builder.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace mdes::hmdes {

namespace {

/** Usage times are pipeline-relative; this bound catches typos. */
constexpr int64_t kMaxUsageTime = 4096;
/** Sanity bound on resource instance counts and loop trip counts. */
constexpr int64_t kMaxCount = 4096;

class Builder
{
  public:
    Builder(const MachineDecl &machine, DiagnosticEngine &diags)
        : machine_(machine), diags_(diags), mdes_(machine.name)
    {
    }

    std::optional<Mdes> run();

  private:
    std::optional<int64_t> eval(const Expr &e);
    void declareResource(const ResourceDecl &d);
    void declareLet(const LetDecl &d);
    void declareOrTree(const OrTreeDecl &d);
    void declareTable(const TableDecl &d);
    void declareOperation(const OperationDecl &d);
    void declareBypass(const BypassDecl &d);

    bool expandItems(const std::vector<OrItem> &items,
                     std::vector<OptionId> &out);
    bool expandUsageItems(const std::vector<OptItem> &items,
                          Option &option);
    std::optional<Option> buildOption(const OptionDecl &d);

    const MachineDecl &machine_;
    DiagnosticEngine &diags_;
    Mdes mdes_;

    std::map<std::string, int64_t> env_;
    std::map<std::string, size_t> resource_classes_; ///< name -> class idx
    std::map<std::string, OrTreeId> or_trees_;
    std::map<std::string, TreeId> tables_;
};

std::optional<int64_t>
Builder::eval(const Expr &e)
{
    switch (e.kind) {
      case Expr::Kind::IntLit:
        return e.value;
      case Expr::Kind::VarRef: {
        auto it = env_.find(e.name);
        if (it == env_.end()) {
            diags_.error(e.loc, "unknown constant or loop variable '" +
                                    e.name + "'");
            return std::nullopt;
        }
        return it->second;
      }
      case Expr::Kind::Unary: {
        auto v = eval(*e.lhs);
        if (!v)
            return std::nullopt;
        return -*v;
      }
      case Expr::Kind::Binary: {
        auto l = eval(*e.lhs);
        auto r = eval(*e.rhs);
        if (!l || !r)
            return std::nullopt;
        switch (e.op) {
          case '+': return *l + *r;
          case '-': return *l - *r;
          case '*': return *l * *r;
          case '/':
            if (*r == 0) {
                diags_.error(e.loc, "division by zero");
                return std::nullopt;
            }
            return *l / *r;
          case '%':
            if (*r == 0) {
                diags_.error(e.loc, "modulo by zero");
                return std::nullopt;
            }
            return *l % *r;
          default:
            diags_.error(e.loc, "internal: bad binary operator");
            return std::nullopt;
        }
      }
    }
    return std::nullopt;
}

void
Builder::declareResource(const ResourceDecl &d)
{
    if (resource_classes_.count(d.name)) {
        diags_.error(d.loc, "resource '" + d.name + "' already declared");
        return;
    }
    int64_t count = 1;
    if (d.count) {
        auto v = eval(*d.count);
        if (!v)
            return;
        count = *v;
    }
    if (count < 1 || count > kMaxCount) {
        diags_.error(d.loc, "resource count must be in [1, " +
                                std::to_string(kMaxCount) + "]");
        return;
    }
    mdes_.addResourceClass(d.name, uint32_t(count));
    resource_classes_[d.name] = mdes_.resourceClasses().size() - 1;
}

void
Builder::declareLet(const LetDecl &d)
{
    if (env_.count(d.name)) {
        diags_.error(d.loc, "constant '" + d.name + "' already defined");
        return;
    }
    auto v = eval(*d.value);
    if (!v)
        return;
    env_[d.name] = *v;
}

bool
Builder::expandUsageItems(const std::vector<OptItem> &items,
                          Option &option)
{
    for (const auto &item : items) {
        if (const auto *loop = std::get_if<UsageForDecl>(&item)) {
            if (env_.count(loop->var)) {
                diags_.error(loop->loc, "loop variable '" + loop->var +
                                            "' shadows an existing name");
                return false;
            }
            auto lo = eval(*loop->lo);
            auto hi = eval(*loop->hi);
            if (!lo || !hi)
                return false;
            if (*hi - *lo + 1 > kMaxCount) {
                diags_.error(loop->loc, "loop trip count too large");
                return false;
            }
            for (int64_t v = *lo; v <= *hi; ++v) {
                env_[loop->var] = v;
                if (!expandUsageItems(loop->body, option)) {
                    env_.erase(loop->var);
                    return false;
                }
            }
            env_.erase(loop->var);
            continue;
        }
        const auto &u = std::get<UsageDecl>(item);
        auto cls_it = resource_classes_.find(u.resource);
        if (cls_it == resource_classes_.end()) {
            diags_.error(u.loc,
                         "unknown resource '" + u.resource + "'");
            return false;
        }
        const ResourceClass &rc =
            mdes_.resourceClasses()[cls_it->second];
        int64_t index = 0;
        if (u.index) {
            auto v = eval(*u.index);
            if (!v)
                return false;
            index = *v;
        } else if (rc.count > 1) {
            diags_.error(u.loc, "resource '" + u.resource + "' has " +
                                    std::to_string(rc.count) +
                                    " instances; an index is required");
            return false;
        }
        if (index < 0 || index >= int64_t(rc.count)) {
            diags_.error(u.loc, "index " + std::to_string(index) +
                                    " out of range for resource '" +
                                    u.resource + "' (count " +
                                    std::to_string(rc.count) + ")");
            return false;
        }
        auto time = eval(*u.time);
        if (!time)
            return false;
        if (*time < -kMaxUsageTime || *time > kMaxUsageTime) {
            diags_.error(u.loc, "usage time " + std::to_string(*time) +
                                    " out of sane range");
            return false;
        }
        ResourceUsage usage;
        usage.time = int32_t(*time);
        usage.resource = rc.first_instance + uint32_t(index);
        if (std::find(option.usages.begin(), option.usages.end(), usage) !=
            option.usages.end()) {
            diags_.error(u.loc,
                         "duplicate usage of '" +
                             mdes_.resourceName(usage.resource) +
                             "' at time " + std::to_string(usage.time) +
                             " within one option");
            return false;
        }
        option.usages.push_back(usage);
    }
    return true;
}

std::optional<Option>
Builder::buildOption(const OptionDecl &d)
{
    Option option;
    if (!expandUsageItems(d.items, option))
        return std::nullopt;
    if (option.usages.empty()) {
        diags_.error(d.loc, "option has no resource usages");
        return std::nullopt;
    }
    return option;
}

bool
Builder::expandItems(const std::vector<OrItem> &items,
                     std::vector<OptionId> &out)
{
    for (const auto &item : items) {
        if (const auto *opt = std::get_if<OptionDecl>(&item)) {
            auto built = buildOption(*opt);
            if (!built)
                return false;
            out.push_back(mdes_.addOption(std::move(*built)));
        } else {
            const auto &loop = std::get<ForDecl>(item);
            if (env_.count(loop.var)) {
                diags_.error(loop.loc, "loop variable '" + loop.var +
                                           "' shadows an existing name");
                return false;
            }
            auto lo = eval(*loop.lo);
            auto hi = eval(*loop.hi);
            if (!lo || !hi)
                return false;
            if (*hi - *lo + 1 > kMaxCount) {
                diags_.error(loop.loc, "loop trip count too large");
                return false;
            }
            for (int64_t v = *lo; v <= *hi; ++v) {
                env_[loop.var] = v;
                if (!expandItems(loop.body, out)) {
                    env_.erase(loop.var);
                    return false;
                }
            }
            env_.erase(loop.var);
        }
    }
    return true;
}

void
Builder::declareOrTree(const OrTreeDecl &d)
{
    if (or_trees_.count(d.name)) {
        diags_.error(d.loc, "ortree '" + d.name + "' already declared");
        return;
    }
    OrTree tree;
    tree.name = d.name;
    if (!expandItems(d.items, tree.options))
        return;
    if (tree.options.empty()) {
        diags_.error(d.loc, "ortree '" + d.name + "' has no options");
        return;
    }
    or_trees_[d.name] = mdes_.addOrTree(std::move(tree));
}

void
Builder::declareTable(const TableDecl &d)
{
    if (tables_.count(d.name)) {
        diags_.error(d.loc, "table '" + d.name + "' already declared");
        return;
    }
    AndOrTree tree;
    tree.name = d.name;
    for (size_t i = 0; i < d.or_tree_names.size(); ++i) {
        auto it = or_trees_.find(d.or_tree_names[i]);
        if (it == or_trees_.end()) {
            diags_.error(d.or_tree_locs[i], "unknown ortree '" +
                                                d.or_tree_names[i] + "'");
            return;
        }
        tree.or_trees.push_back(it->second);
    }

    // AND subtrees that can touch the same resource instance at the same
    // time make the greedy AND-level evaluation weaker than the full
    // cross-product (the checker stays safe via its pending overlay, but
    // a schedulable combination may be missed). The Section 8 passes
    // assume independence, so they leave such a table as written. Warn
    // the description writer.
    for (size_t i = 0; i < tree.or_trees.size(); ++i) {
        for (size_t j = i + 1; j < tree.or_trees.size(); ++j) {
            if (mdes_.orTreesOverlap(tree.or_trees[i], tree.or_trees[j])) {
                diags_.warning(
                    d.loc,
                    "table '" + d.name + "': AND subtrees '" +
                        mdes_.orTree(tree.or_trees[i]).name + "' and '" +
                        mdes_.orTree(tree.or_trees[j]).name +
                        "' can use the same resource at the same time; "
                        "greedy AND/OR checking may reject combinations "
                        "the expanded OR-tree would accept");
            }
        }
    }
    tables_[d.name] = mdes_.addTree(std::move(tree));
}

void
Builder::declareOperation(const OperationDecl &d)
{
    if (mdes_.findOpClass(d.name) != kInvalidId) {
        diags_.error(d.loc, "operation '" + d.name + "' already declared");
        return;
    }
    OperationClass oc;
    oc.name = d.name;
    if (!d.table) {
        diags_.error(d.loc,
                     "operation '" + d.name + "' is missing a table");
        return;
    }
    auto it = tables_.find(*d.table);
    if (it == tables_.end()) {
        diags_.error(d.table_loc, "unknown table '" + *d.table + "'");
        return;
    }
    oc.tree = it->second;
    if (d.latency) {
        auto v = eval(*d.latency);
        if (!v)
            return;
        if (*v < 0 || *v > kMaxUsageTime) {
            diags_.error(d.loc, "latency out of range");
            return;
        }
        oc.latency = int(*v);
    }
    if (d.cascade) {
        auto cit = tables_.find(*d.cascade);
        if (cit == tables_.end()) {
            diags_.error(d.cascade_loc,
                         "unknown cascade table '" + *d.cascade + "'");
            return;
        }
        oc.cascade_tree = cit->second;
    }
    if (d.note)
        oc.comment = *d.note;
    mdes_.addOpClass(std::move(oc));
}

void
Builder::declareBypass(const BypassDecl &d)
{
    OpClassId from = mdes_.findOpClass(d.from);
    if (from == kInvalidId) {
        diags_.error(d.from_loc,
                     "unknown operation '" + d.from + "' in bypass");
        return;
    }
    OpClassId to = mdes_.findOpClass(d.to);
    if (to == kInvalidId) {
        diags_.error(d.to_loc,
                     "unknown operation '" + d.to + "' in bypass");
        return;
    }
    auto v = eval(*d.latency);
    if (!v)
        return;
    if (*v < 0 || *v > kMaxUsageTime) {
        diags_.error(d.loc, "bypass latency out of range");
        return;
    }
    if (*v >= mdes_.opClass(from).latency) {
        diags_.warning(d.loc,
                       "bypass from '" + d.from + "' to '" + d.to +
                           "' does not improve on the producer's "
                           "nominal latency");
    }
    for (const auto &existing : mdes_.bypasses()) {
        if (existing.from == from && existing.to == to) {
            diags_.error(d.loc, "duplicate bypass from '" + d.from +
                                    "' to '" + d.to + "'");
            return;
        }
    }
    mdes_.addBypass({from, to, int(*v)});
}

std::optional<Mdes>
Builder::run()
{
    for (const auto &decl : machine_.decls) {
        std::visit(
            [this](const auto &d) {
                using T = std::decay_t<decltype(d)>;
                if constexpr (std::is_same_v<T, ResourceDecl>)
                    declareResource(d);
                else if constexpr (std::is_same_v<T, LetDecl>)
                    declareLet(d);
                else if constexpr (std::is_same_v<T, OrTreeDecl>)
                    declareOrTree(d);
                else if constexpr (std::is_same_v<T, TableDecl>)
                    declareTable(d);
                else if constexpr (std::is_same_v<T, OperationDecl>)
                    declareOperation(d);
                else
                    declareBypass(d);
            },
            decl);
    }
    if (mdes_.opClasses().empty()) {
        diags_.error(machine_.loc,
                     "machine declares no operations");
    }
    if (diags_.hasErrors())
        return std::nullopt;
    std::string problem = mdes_.validate();
    if (!problem.empty()) {
        diags_.error(machine_.loc, "internal consistency: " + problem);
        return std::nullopt;
    }
    return std::move(mdes_);
}

} // namespace

std::optional<Mdes>
buildMdes(const MachineDecl &machine, DiagnosticEngine &diags)
{
    Builder builder(machine, diags);
    return builder.run();
}

} // namespace mdes::hmdes

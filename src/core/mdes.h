#ifndef MDES_CORE_MDES_H
#define MDES_CORE_MDES_H

/**
 * @file
 * The structured (mid-level) machine-description model.
 *
 * This is the representation the high-level MDES language is translated
 * into and that all transformations operate on. Resource constraints are
 * modeled exactly as in Gyllenhaal/Hwu/Rau (MICRO-29, 1996):
 *
 *  - A *reservation table option* is a set of resource usages, each a
 *    (time, resource-instance) pair relative to time zero = the first
 *    stage of the execution pipeline (decode stages have negative times).
 *  - An *OR-tree* is a prioritized list of options; an operation may be
 *    scheduled if any option's resources are available.
 *  - An *AND/OR-tree* is an AND of OR-trees: one option from every OR
 *    subtree must be satisfiable simultaneously. The traditional OR-tree
 *    representation is the degenerate AND/OR-tree with one OR subtree.
 *
 * Sharing is expressed at the id level: two AND/OR-trees that reference
 * the same OrTreeId share that subtree (what the description writer
 * specified as shared); structurally identical but distinct-id entities
 * are duplicates until the CSE transformation merges them.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mdes {

/** Index of a resource *instance* (a single decoder, port, unit...). */
using ResourceId = uint32_t;
/** Index of a reservation-table option in the Mdes option pool. */
using OptionId = uint32_t;
/** Index of an OR-tree in the Mdes OR-tree pool. */
using OrTreeId = uint32_t;
/** Index of an AND/OR-tree in the Mdes tree pool. */
using TreeId = uint32_t;
/** Index of an operation class. */
using OpClassId = uint32_t;

/** Sentinel for "no entity". */
constexpr uint32_t kInvalidId = std::numeric_limits<uint32_t>::max();

/**
 * A named group of identical resource instances, e.g. "Decoder" x3.
 * Instances receive dense ResourceIds in declaration order.
 */
struct ResourceClass
{
    std::string name;
    uint32_t count = 1;
    ResourceId first_instance = 0;
};

/** One resource usage: resource instance @c resource busy at @c time. */
struct ResourceUsage
{
    int32_t time = 0;
    ResourceId resource = 0;

    auto operator<=>(const ResourceUsage &) const = default;
};

/**
 * A reservation table option: one particular way an operation may use the
 * processor's resources as it executes. Usage order is significant for
 * the constraint checker (checks short-circuit on the first busy usage);
 * the usage-sorting transformation reorders it.
 */
struct Option
{
    std::vector<ResourceUsage> usages;

    bool operator==(const Option &) const = default;

    /** True if every usage of @p other also appears in this option. */
    bool covers(const Option &other) const;
};

/** A prioritized list of reservation table options (highest first). */
struct OrTree
{
    std::string name;
    std::vector<OptionId> options;
};

/**
 * An AND of OR-trees. All subtrees must simultaneously find an available
 * option for the operation to be schedulable.
 */
struct AndOrTree
{
    std::string name;
    std::vector<OrTreeId> or_trees;
};

/**
 * An operation class: the scheduling-relevant behavior of a group of
 * opcodes (reservation alternatives + latency). The optional cascade
 * tree models features like the SuperSPARC's cascaded IALU: the
 * scheduler selects it, based on incoming dependence distances, when the
 * operation executes in the same cycle as its flow-dependent producer.
 */
struct OperationClass
{
    std::string name;
    TreeId tree = kInvalidId;
    int latency = 1;
    TreeId cascade_tree = kInvalidId;
    /** Human description, used by the option-breakdown benches. */
    std::string comment;
};

/**
 * A forwarding path: when operation class @c to directly consumes the
 * result of class @c from, the effective flow latency is @c latency
 * instead of @c from's nominal latency.
 */
struct Bypass
{
    OpClassId from = kInvalidId;
    OpClassId to = kInvalidId;
    int latency = 0;

    bool operator==(const Bypass &) const = default;
};

/**
 * A complete machine description: resource declarations plus the pools of
 * options, OR-trees, AND/OR-trees, and operation classes.
 *
 * Value semantics: copying an Mdes snapshots it, which the experiment
 * harness uses to compare transformation stages.
 */
class Mdes
{
  public:
    /** Create an empty description for machine @p name. */
    explicit Mdes(std::string name = "unnamed") : name_(std::move(name)) {}

    /** Machine name, e.g. "SuperSPARC". */
    const std::string &name() const { return name_; }

    // --- Construction -----------------------------------------------

    /** Declare @p count instances of resource class @p name. */
    ResourceId addResourceClass(const std::string &name, uint32_t count);

    /** Add an option to the pool (no structural dedup; see CSE pass). */
    OptionId addOption(Option option);

    /** Add an OR-tree referencing existing options. */
    OrTreeId addOrTree(OrTree tree);

    /** Add an AND/OR-tree referencing existing OR-trees. */
    TreeId addTree(AndOrTree tree);

    /** Add an operation class referencing an existing tree. */
    OpClassId addOpClass(OperationClass op);

    /** Declare a forwarding path between two operation classes. */
    void addBypass(Bypass bypass) { bypasses_.push_back(bypass); }

    // --- Access ------------------------------------------------------

    uint32_t numResources() const { return num_resources_; }
    const std::vector<ResourceClass> &resourceClasses() const
    {
        return resource_classes_;
    }

    /** Render a resource instance as "Name" or "Name[i]". */
    std::string resourceName(ResourceId id) const;

    /** Find a resource instance by class name and index; kInvalidId if
     * absent. */
    ResourceId findResource(const std::string &cls, uint32_t index) const;

    const std::vector<Option> &options() const { return options_; }
    const std::vector<OrTree> &orTrees() const { return or_trees_; }
    const std::vector<AndOrTree> &trees() const { return trees_; }
    const std::vector<OperationClass> &opClasses() const
    {
        return op_classes_;
    }
    const std::vector<Bypass> &bypasses() const { return bypasses_; }

    Option &option(OptionId id) { return options_[id]; }
    const Option &option(OptionId id) const { return options_[id]; }
    OrTree &orTree(OrTreeId id) { return or_trees_[id]; }
    const OrTree &orTree(OrTreeId id) const { return or_trees_[id]; }
    AndOrTree &tree(TreeId id) { return trees_[id]; }
    const AndOrTree &tree(TreeId id) const { return trees_[id]; }
    OperationClass &opClass(OpClassId id) { return op_classes_[id]; }
    const OperationClass &opClass(OpClassId id) const
    {
        return op_classes_[id];
    }

    /** Find an operation class by name; kInvalidId if absent. */
    OpClassId findOpClass(const std::string &name) const;

    // --- Structural queries -----------------------------------------

    /**
     * Number of reservation-table options the traditional (flat OR-tree)
     * representation needs for @p tree: the product of the subtree option
     * counts (minus internally conflicting combinations, which the four
     * shipped machines do not have).
     */
    uint64_t expandedOptionCount(TreeId tree) const;

    /** Sum of option counts across @p tree's OR subtrees. */
    uint64_t leafOptionCount(TreeId tree) const;

    /** Earliest usage time in an option / OR-tree / AND-OR tree. */
    int32_t earliestTime(OptionId id) const;
    int32_t earliestTimeOr(OrTreeId id) const;
    int32_t earliestTimeTree(TreeId id) const;

    /**
     * True when some option of @p a and some option of @p b use the same
     * resource instance at the same time, so two AND subtrees holding
     * them can collide with each other.
     */
    bool orTreesOverlap(OrTreeId a, OrTreeId b) const;

    /**
     * True when two of @p tree's AND subtrees overlap (orTreesOverlap).
     * The Section 8 passes assume they never do, and skip such a tree.
     */
    bool subtreesOverlap(TreeId tree) const;

    /**
     * Number of AND/OR-trees (reachable from operation classes) that
     * reference each OR-tree; used by the OR-tree sorting heuristic.
     */
    std::vector<uint32_t> orTreeShareCounts() const;

    // --- Maintenance -------------------------------------------------

    /**
     * Validate internal consistency (all references in range, no empty
     * trees, no duplicate usage in an option). @return a description of
     * the first problem or an empty string when valid.
     */
    std::string validate() const;

    /**
     * Drop options/OR-trees/trees not reachable from any operation class
     * and compact the pools (dead-code removal; also run as part of the
     * redundancy-elimination transformation).
     * @return number of entities removed.
     */
    size_t removeDeadEntities();

  private:
    std::string name_;
    std::vector<ResourceClass> resource_classes_;
    uint32_t num_resources_ = 0;
    std::vector<Option> options_;
    std::vector<OrTree> or_trees_;
    std::vector<AndOrTree> trees_;
    std::vector<OperationClass> op_classes_;
    std::vector<Bypass> bypasses_;
};

} // namespace mdes

#endif // MDES_CORE_MDES_H

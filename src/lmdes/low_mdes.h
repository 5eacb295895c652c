#ifndef MDES_LMDES_LOW_MDES_H
#define MDES_LMDES_LOW_MDES_H

/**
 * @file
 * The low-level machine-description representation.
 *
 * This is what the compiler actually queries: flat, pointer-free arrays
 * tuned for the resource-constraint check loop. Sharing established in
 * the structured model (by the description writer or by the CSE
 * transformation) is preserved: entities with the same core id share one
 * low-level record.
 *
 * Check encoding (Section 6): every check is a (time, resource-set) pair
 * occupying two words. In scalar encoding each resource usage is its own
 * check; with bit-vector packing all of an option's usages in the same
 * cycle merge into a single check word, so one AND against the RU map
 * probes them all.
 *
 * Every LowMdes is one v7 image (see image.h): the POD pools are spans
 * into a refcounted, position-independent byte image that fromImage
 * validated once. lower() writes a fresh image and attaches it, and
 * load() and the artifact store attach the bytes they read, so every
 * description passes the same validation. Only the small text pieces
 * (machine name, resource names, op-class names/comments) are
 * materialized. Copies share the image, and save() writes it unchanged.
 *
 * Memory accounting model (documented in DESIGN.md §2.3): check entries
 * and descriptors are 8 bytes, membership list entries 4 bytes. The
 * absolute bytes differ from the paper's 1996 implementation; reduction
 * percentages and cross-representation ratios are the reproduction
 * target.
 */

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mdes.h"

namespace mdes::lmdes {

/**
 * One resource-constraint probe.
 *
 * `slot` addresses the RU map in *slot* units: a machine with R resource
 * instances packs them into slot_words() = ceil(R/64) words per cycle,
 * and a usage at time t of a resource in word w probes slot
 * t * slot_words + w. For machines with at most 64 instances (all four
 * paper machines) slot_words is 1 and the slot equals the usage time.
 */
struct Check
{
    int32_t slot = 0;
    uint64_t mask = 0;

    bool operator==(const Check &) const = default;
};

/**
 * Per-tree probe summary, computed at lowering time and serialized with
 * the description (since format v6).
 *
 * `min_slot`/`max_slot` bound every check slot reachable from the tree,
 * letting the constraint checker address the RU map with one
 * normalization per scheduling attempt (and take an unchecked
 * direct-index fast path when the whole window is in range).
 *
 * The slice [first_prefilter, first_prefilter + num_prefilter) of
 * prefilter() is the tree's *collision-vector prefilter*: (slot, mask)
 * pairs where the mask bits are reserved by EVERY option of some OR
 * subtree - the forbidden-latency idea of Davidson-style collision
 * vectors applied to AND/OR trees. If any such bit is busy at probe
 * time, no option combination can fit, so the checker rejects the
 * attempt before touching a single option. Entries at the same slot are
 * merged and sorted by slot.
 */
struct TreeSummary
{
    int32_t min_slot = 0;
    int32_t max_slot = 0;
    uint32_t first_prefilter = 0;
    uint32_t num_prefilter = 0;

    bool operator==(const TreeSummary &) const = default;
};

/** A lowered reservation-table option: a slice of the check pool. */
struct LowOption
{
    uint32_t first_check = 0;
    uint16_t num_checks = 0;

    bool operator==(const LowOption &) const = default;
};

/** A lowered OR-tree: a slice of the option-reference pool. */
struct LowOrTree
{
    uint32_t first_option_ref = 0;
    uint16_t num_options = 0;

    bool operator==(const LowOrTree &) const = default;
};

/** A lowered AND/OR-tree: a slice of the OR-tree-reference pool. */
struct LowTree
{
    uint32_t first_or_ref = 0;
    uint16_t num_or_trees = 0;

    bool operator==(const LowTree &) const = default;
};

/** A lowered forwarding path (see core Bypass). */
struct LowBypass
{
    uint32_t from = kInvalidId;
    uint32_t to = kInvalidId;
    int32_t latency = 0;

    bool operator==(const LowBypass &) const = default;
};

/** A lowered operation class. */
struct LowOpClass
{
    std::string name;
    uint32_t tree = kInvalidId;
    uint32_t cascade_tree = kInvalidId;
    int32_t latency = 1;
    std::string comment;

    bool operator==(const LowOpClass &) const = default;
};

/** Byte accounting of the resource-constraint representation. */
struct MemoryBreakdown
{
    size_t check_bytes = 0;
    size_t option_bytes = 0;
    size_t option_ref_bytes = 0;
    size_t or_tree_bytes = 0;
    size_t or_ref_bytes = 0;
    size_t tree_bytes = 0;

    size_t
    total() const
    {
        return check_bytes + option_bytes + option_ref_bytes +
               or_tree_bytes + or_ref_bytes + tree_bytes;
    }
};

/** Lowering controls. */
struct LowerOptions
{
    /** Pack one cycle's usages per option into a single check word. */
    bool pack_bit_vector = false;
    /**
     * Compute per-tree collision-vector prefilters (TreeSummary). On by
     * default - the checker rejects most doomed attempts without walking
     * any option. The paper-reproduction benches lower with this off so
     * their options/checks-per-attempt accounting matches the engine
     * the paper measured (the prefilter changes counts, never
     * decisions).
     */
    bool prefilter = true;
};

/** What LowMdes::fromImage borrows besides the image bytes. */
struct ImageSource
{
    /**
     * Owns the image bytes and keeps them alive for as long as any copy
     * of the resulting LowMdes exists. Required, since fromImage never
     * copies the image.
     */
    std::shared_ptr<const void> backing;
    /**
     * Verify Header::checksum before parsing. The store passes false
     * because the whole-file trailer it just verified already covers
     * the image ("checksum verified once at open"), and lower() passes
     * false for the image it has just written.
     */
    bool verify_checksum = true;
};

/**
 * The packed low-level MDES. Construct via lower(); query from the
 * constraint checker and the scheduler.
 */
class LowMdes
{
  public:
    /** Lower the structured model @p m into a fresh image and attach it.
     * Machines wider than 64 resource instances use several RU-map words
     * per cycle (see Check::slot). Throws MdesError, as fromImage does,
     * when the image fails validation (e.g. more than 64 words). */
    static LowMdes lower(const Mdes &m, const LowerOptions &opts = {});

    const std::string &machineName() const { return machine_name_; }
    uint32_t numResources() const { return num_resources_; }
    /** RU-map words per cycle: ceil(numResources / 64). */
    uint32_t slotWords() const { return slot_words_; }
    bool packed() const { return packed_; }

    /** Name of resource instance @p r ("Name" or "Name[i]" in
     * declaration order); "r<id>" when names are absent. */
    std::string resourceName(uint32_t r) const;

    std::span<const Check> checks() const { return checks_; }
    std::span<const LowOption> options() const { return options_; }
    std::span<const uint32_t> optionRefs() const { return option_refs_; }
    std::span<const LowOrTree> orTrees() const { return or_trees_; }
    std::span<const uint32_t> orRefs() const { return or_refs_; }
    std::span<const LowTree> trees() const { return trees_; }
    /** Per-tree probe summaries, parallel to trees(). */
    std::span<const TreeSummary> treeSummaries() const
    {
        return tree_summaries_;
    }
    /** Collision-vector prefilter pool (see TreeSummary). */
    std::span<const Check> prefilter() const { return prefilter_; }
    /** Operation classes (materialized: they carry strings). */
    const std::vector<LowOpClass> &opClasses() const { return op_classes_; }
    std::span<const LowBypass> bypasses() const { return bypasses_; }

    /** The v7 image every pool above lies in; empty only for a
     * default-constructed LowMdes. */
    std::span<const char> image() const { return image_; }

    /**
     * Effective flow latency when @p consumer directly consumes
     * @p producer's result: the bypass latency when a forwarding path is
     * declared, else the producer's nominal latency.
     */
    int32_t flowLatency(uint32_t producer, uint32_t consumer) const;

    /** Find an operation class by name; kInvalidId if absent. */
    uint32_t findOpClass(const std::string &name) const;

    /** Number of options the flat OR-tree form of @p tree would have
     * (product of subtree option counts). */
    uint64_t expandedOptionCount(uint32_t tree) const;

    /** Sum of option counts across @p tree's OR subtrees. */
    uint64_t leafOptionCount(uint32_t tree) const;

    /** Byte accounting under the documented model. */
    MemoryBreakdown memory() const;

    /** Write image() unchanged. */
    void save(std::ostream &os) const;

    /**
     * Read a v7 image from @p is into a heap buffer and attach it; throws
     * MdesError on malformed input and MdesVersionError (see image.h) on
     * a version this build does not speak.
     */
    static LowMdes load(std::istream &is);

    /**
     * Attach the v7 image of @p size bytes at @p base, which must be at
     * least 8-byte aligned (a uint64_t-backed buffer qualifies) and
     * owned by @p src.backing. The image is bounds- and
     * cross-reference-validated before any span is published; throws
     * MdesError / MdesVersionError like load(). The result borrows the
     * image zero-copy and holds the backing.
     */
    static LowMdes fromImage(const void *base, size_t size,
                             const ImageSource &src);

    /** Content equality: the scalars, the text and every pool, field by
     * field (padding bytes do not count). */
    bool operator==(const LowMdes &other) const;

  private:
    std::string machine_name_;
    uint32_t num_resources_ = 0;
    uint32_t slot_words_ = 1;
    bool packed_ = false;
    std::vector<std::string> resource_names_;
    std::vector<LowOpClass> op_classes_;
    /** Owns the bytes image_ and every pool span point into. */
    std::shared_ptr<const void> backing_;
    std::span<const char> image_;
    std::span<const Check> checks_;
    std::span<const LowOption> options_;
    std::span<const uint32_t> option_refs_;
    std::span<const LowOrTree> or_trees_;
    std::span<const uint32_t> or_refs_;
    std::span<const LowTree> trees_;
    std::span<const TreeSummary> tree_summaries_;
    std::span<const Check> prefilter_;
    std::span<const LowBypass> bypasses_;
};

} // namespace mdes::lmdes

#endif // MDES_LMDES_LOW_MDES_H

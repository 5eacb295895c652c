#ifndef MDES_CORE_TRANSFORMS_H
#define MDES_CORE_TRANSFORMS_H

/**
 * @file
 * The MDES transformation suite.
 *
 * These are the paper's bridge between the easy-to-maintain high-level
 * description and the efficient low-level representation:
 *
 *  - Section 5: common-subexpression elimination + copy propagation +
 *    dead-code removal adapted to the MDES domain, plus the MDES-specific
 *    redundant-option removal (an option identical to, or a superset of,
 *    a higher-priority option can never be selected).
 *  - Section 7: per-resource usage-time shifting (concentrate usages at
 *    time zero) and usage-check sorting (check time zero first), justified
 *    by collision-vector theory (see core/collision.h).
 *  - Section 8: OR-subtree sorting inside AND/OR-trees and common-usage
 *    hoisting, both aimed at detecting resource conflicts earlier.
 *
 * Every transformation preserves scheduling semantics exactly: the same
 * scheduler input produces the identical schedule before and after (the
 * paper's Section 4 invariant, enforced by the property tests).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/mdes.h"

namespace mdes {

/** Which way the list scheduler walks cycles; selects shift constants and
 * usage-check sort order (Section 7). */
enum class SchedDirection { Forward, Backward };

/** Effect counters returned by eliminateRedundantInfo(). */
struct CseStats
{
    size_t merged_options = 0;
    size_t merged_or_trees = 0;
    size_t merged_trees = 0;
    size_t removed_dead = 0;
};

/**
 * MDES-domain CSE + copy propagation + dead-code removal: structurally
 * identical options (same usage list, same order), OR-trees (same option
 * list), and AND/OR-trees (same subtree list) are merged so every
 * reference points at one copy, then unreferenced entities are removed.
 * Idempotent.
 */
CseStats eliminateRedundantInfo(Mdes &m);

/**
 * Remove every reservation-table option whose usages are identical to or
 * a superset of a higher-priority option in the same OR-tree: the
 * higher-priority option is always selected when such an option would be
 * available. Catches duplicated options left behind as descriptions
 * evolve (the paper's PA7100 memory-operation case, Table 8).
 * @return number of options removed from OR-trees.
 */
size_t removeRedundantOptions(Mdes &m);

/**
 * Subtract a per-resource constant from all usage times so usages
 * concentrate in as few time slots as possible: for a forward scheduler
 * each resource's earliest usage time becomes zero; for a backward
 * scheduler its latest becomes zero. Collision vectors - hence schedules
 * - are unchanged.
 * @return the constant subtracted for each resource instance.
 */
std::vector<int32_t> shiftUsageTimes(Mdes &m,
                                     SchedDirection direction =
                                         SchedDirection::Forward);

/**
 * Reorder each option's usage checks so the conflict-prone time-zero
 * usages are probed first (ascending time for a forward scheduler,
 * descending for backward; ties by resource id). Run after
 * shiftUsageTimes().
 */
void sortUsageChecks(Mdes &m,
                     SchedDirection direction = SchedDirection::Forward);

/**
 * Sort the OR subtrees of every AND/OR-tree so the subtree most likely to
 * reveal a resource conflict is checked first. Heuristic keys, in order
 * (Section 8): earliest usage time in the subtree; fewest options; shared
 * by the most AND/OR-trees; original position. A tree whose subtrees
 * overlap (Mdes::subtreesOverlap) keeps its order, and counts in
 * @p skipped_overlapping when given.
 * @return number of AND/OR-trees whose subtree order changed.
 */
size_t sortOrSubtrees(Mdes &m, size_t *skipped_overlapping = nullptr);

/**
 * Hoist resource usages common to all options of an OR subtree into a
 * one-option OR-tree of the same AND/OR-tree, so a conflict on the common
 * resource is detected once instead of per option. Application heuristics
 * (Section 8): (1) hoist into an existing one-option subtree that already
 * has a usage at the same time (free under bit-vector packing); else
 * (2) hoist into a new one-option subtree when the common usage is the
 * only usage at its time in every option. Entities shared with other
 * trees are cloned before modification (run eliminateRedundantInfo()
 * afterwards to re-merge). A tree whose subtrees overlap
 * (Mdes::subtreesOverlap) is left as written, and counts in
 * @p skipped_overlapping when given.
 * @return number of usages hoisted.
 */
size_t hoistCommonUsages(Mdes &m, size_t *skipped_overlapping = nullptr);

/** Which transformations to run, in the paper's order. */
struct PipelineConfig
{
    bool cse = false;
    bool redundant_options = false;
    /** Related-work baseline (off in all()): Eichenberger/Davidson-style
     * per-option usage minimization (see core/minimize.h). */
    bool minimize = false;
    bool time_shift = false;
    bool sort_usages = false;
    bool hoist = false;
    bool sort_or_trees = false;
    SchedDirection direction = SchedDirection::Forward;

    /** All transformations on (the paper's fully optimized setting). */
    static PipelineConfig all();

    /** No transformations (the paper's "original" setting). */
    static PipelineConfig none() { return {}; }
};

/** Counters aggregated over one pipeline run. */
struct PipelineStats
{
    CseStats cse;
    size_t redundant_options_removed = 0;
    size_t trees_reordered = 0;
    size_t usages_hoisted = 0;
    /** AND/OR-trees that hoisting and subtree sorting each left as
     * written because their subtrees overlap. */
    size_t hoist_skipped_overlapping = 0;
    size_t sort_skipped_overlapping = 0;
    /** Resource instances the time-shift pass actually moved (nonzero
     * shift constants returned by shiftUsageTimes()). */
    size_t resources_shifted = 0;
};

/**
 * Run the selected transformations on @p m in the canonical order.
 *
 * @p cancel, when provided, is polled between passes; if it returns true
 * the pipeline throws CancelledError so a caller whose deadline expired
 * releases its worker without finishing the compile. Faultsim's
 * compile/pass-throw site is probed at the same checkpoints.
 */
PipelineStats runPipeline(Mdes &m, const PipelineConfig &config,
                          const std::function<bool()> &cancel = {});

} // namespace mdes

#endif // MDES_CORE_TRANSFORMS_H

#ifndef MDES_EXACT_EXACT_SCHEDULER_H
#define MDES_EXACT_EXACT_SCHEDULER_H

/**
 * @file
 * Branch-and-bound optimal block scheduling over the MDES constraints.
 *
 * The search enumerates *canonical* schedules: issue decisions are made
 * cycle by cycle, and within a cycle in ascending instruction index.
 * Because dependence edges always point from a lower to a higher source
 * index and have non-negative distances, every feasible set of issue
 * cycles has a canonical realization, so restricting the search to the
 * canonical order prunes all permutations of the same cycle assignment
 * (the dominance pruning on symmetric issue orders) without losing
 * optimality. "Feasible" means the greedy checker replay in canonical
 * (cycle, index) order succeeds - the same constraint model used by
 * schedule validation and by the brute-force test reference; for
 * machines whose AND subtrees are resource-disjoint (all four shipped
 * machines) the greedy replay model is exact.
 *
 * Pruning combines three lower bounds, all derived from the machine
 * description rather than hard-coded machine knowledge:
 *
 *  - critical path: the longest remaining dependence chain below any
 *    unplaced operation (cascade-relaxable edges count as zero);
 *  - earliest start: a forward pass propagating placed issue cycles
 *    through the remaining dependences;
 *  - resource height: for every *mandatory resource group* - a set of
 *    instances plus a window of usage offsets - the remaining demand
 *    divided by the group's per-cycle capacity, less the window's span.
 *
 * The candidate groups are each OR subtree's instances over its whole
 * offset spread, and the instances it uses at each single offset. An
 * op's demand on a group is the sum, over its tree's OR subtrees, of the
 * fewest distinct (instance, offset) usages any of the subtree's options
 * places inside the group. The demands add up because the checker never
 * lets two options chosen in one attempt share a slot, and no two ops
 * share one either. Groups no op class demands, and groups another group
 * dominates (no wider, and no smaller demand per instance for any
 * class), are dropped.
 *
 * At the root only, an energetic test raises the bound: an op issues
 * between its release (longest relaxed path from the block entry) and
 * its deadline (length - 1 - its tail), so the ops whose whole interval
 * lies inside a window must fit their demand on each group into the
 * window's cycles. A list schedule that meets this bound is proven
 * optimal without a search node.
 *
 * The earliest-start estimate is sharpened with the checker's pure
 * wouldFit() probe: within one search subtree the RU map only grows, so
 * an operation that does not fit at cycle c now can never fit at c
 * deeper in the subtree, making probe-based es-bumping a sound monotone
 * propagator.
 *
 * The caller supplies the incumbent (normally the list schedule it
 * already has) and the search runs under a node and wall-time budget
 * with cooperative cancellation, so callers (the service's exact and
 * portfolio modes) always get the best schedule found so far - never
 * worse than the incumbent - plus a proven lower bound for the
 * optimality gap.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"

namespace mdes::exact {

/** Search limits and the incumbent for one block. */
struct ExactOptions
{
    /** Search-node budget; 0 = unbounded. */
    uint64_t max_nodes = 1u << 20;
    /** Wall-time budget per block in microseconds; 0 = unbounded. */
    int64_t time_budget_us = 50000;
    /** Cooperative cancellation, polled every 1024 nodes the way the
     * transform passes poll between passes; when it returns true the
     * search stops with ExactResult::cancelled set and returns the best
     * schedule found so far. Empty = never cancelled. */
    std::function<bool()> cancel;
    /** Required: a schedule of the block (normally the list schedule),
     * one cycle per instruction. The search only looks for a strictly
     * shorter one, and returns this one when it finds none. */
    const sched::BlockSchedule *incumbent = nullptr;
};

/** Outcome of one exact-scheduling attempt. */
struct ExactResult
{
    /** Best schedule found: the search's best canonical schedule, or
     * the (list) incumbent when the search could not improve on it. */
    sched::BlockSchedule schedule;
    /** The certificate of schedule (see sched::Certificate) when the
     * search found it (improved); empty when schedule is the incumbent,
     * whose certificate its caller holds. */
    std::vector<uint32_t> options;
    /** The returned length is proven minimal (search exhausted, or the
     * incumbent already met the proven lower bound). */
    bool proven_optimal = false;
    /** The search found a schedule strictly shorter than the incumbent. */
    bool improved = false;
    /** Proven lower bound on the block's schedule length: the root
     * bound (the static bounds and the energetic test), or the optimum
     * itself when the search completed. */
    int32_t lower_bound = 0;

    /** Search nodes expanded. */
    uint64_t nodes = 0;
    /** Subtrees cut by the lower bounds (futile placements included). */
    uint64_t bound_prunes = 0;
    /** Ready candidates skipped by the canonical-order dominance rule. */
    uint64_t dominance_prunes = 0;
    /** Pure wouldFit() propagation probes issued. */
    uint64_t probes = 0;

    /** Node or time budget ran out before the search space was
     * exhausted (the result may still be proven via the root bound). */
    bool budget_exhausted = false;
    /** The cancel predicate fired mid-search. */
    bool cancelled = false;

    /** Length - lower_bound, the reportable optimality gap. */
    int32_t
    gap() const
    {
        return schedule.length - lower_bound;
    }
};

/** Branch-and-bound exact scheduler for one machine description. */
class ExactScheduler
{
  public:
    explicit ExactScheduler(const lmdes::LowMdes &low);

    /**
     * Find a minimum-length schedule for @p block under the budgets in
     * @p opts. @p stats accumulates every probe the search makes
     * (CheckStats), while ops_scheduled and total_schedule_length
     * reflect only the returned schedule, so the stats describe the
     * delivered result plus the work spent on it.
     *
     * @throws std::invalid_argument when opts.incumbent is null or does
     * not hold one cycle per instruction of @p block.
     */
    ExactResult scheduleBlock(const sched::Block &block,
                              sched::SchedStats &stats,
                              const ExactOptions &opts = {});

  private:
    /** One mandatory resource group (see file comment): a set of
     * instances and a window of usage offsets. */
    struct Group
    {
        /** Instances in the group (per-cycle capacity). */
        int32_t size = 0;
        /** The window's span (last offset - first offset), widening the
         * cycle range its usages may occupy. */
        int32_t width = 0;
    };

    /** Per-op-class demand vectors against the machine's groups. */
    struct ClassDemand
    {
        /** Demand via the normal tree, indexed by group. */
        std::vector<uint32_t> normal;
        /** Guaranteed demand whichever of normal/cascade tree is used
         * (elementwise min); equals normal when there is no cascade
         * tree. */
        std::vector<uint32_t> either;
    };

    void buildGroups();
    int32_t energeticBound();

    bool dfs(int32_t cycle, uint32_t floor);
    int32_t computeBound(int32_t cycle);
    bool wouldFitEither(uint32_t u, int32_t cycle);
    void place(uint32_t u, int32_t cycle, bool cascade);
    void unplace(uint32_t u, int32_t restore_len,
                 const std::vector<rumap::Reservation> &reserved);
    int32_t readyCycle(uint32_t u, int32_t &normal_ready) const;

    const lmdes::LowMdes &low_;
    rumap::Checker checker_;

    // Machine-level precompute (constructor).
    std::vector<Group> groups_;
    std::vector<ClassDemand> class_demand_;

    // Per-block state.
    sched::DepGraph graph_;
    rumap::RuMap ru_;
    uint32_t n_ = 0;
    std::vector<int32_t> h_;       ///< height-to-sink by relaxed dist
    std::vector<int32_t> est_;     ///< earliest-start scratch
    std::vector<int32_t> cycles_;  ///< issue cycle, -1 = unplaced
    std::vector<uint8_t> casc_;    ///< placed with cascade tree
    std::vector<uint8_t> can_casc_;
    std::vector<uint32_t> block_instr_class_;
    std::vector<uint32_t> pending_preds_;
    std::vector<uint32_t> order_;  ///< placement stack (canonical order)
    std::vector<uint64_t> rem_demand_;  ///< per group
    std::vector<const std::vector<uint32_t> *> op_demand_;
    std::vector<uint32_t> by_tail_;   ///< ops by descending h_
    std::vector<int32_t> releases_;   ///< distinct root earliest starts
    std::vector<std::vector<rumap::Reservation>> reserved_pool_;
    /** The options chosen at each placement depth. */
    std::vector<std::vector<uint32_t>> chosen_pool_;
    int32_t cur_len_ = 0;
    uint32_t placed_ = 0;

    // Incumbent / budget state for the current search.
    int32_t best_len_ = 0;
    int32_t root_lb_ = 0;
    std::vector<int32_t> best_cycles_;
    std::vector<uint8_t> best_casc_;
    std::vector<uint32_t> best_order_;
    std::vector<uint32_t> best_options_;
    bool have_best_ = false;  ///< the search itself recorded a schedule
    bool done_ = false;       ///< best_len_ hit the root bound: stop
    uint64_t node_limit_ = 0;
    int64_t deadline_us_ = 0;  ///< monotonic deadline, 0 = none
    const std::function<bool()> *cancel_ = nullptr;
    ExactResult *result_ = nullptr;
    sched::SchedStats *stats_ = nullptr;
};

} // namespace mdes::exact

#endif // MDES_EXACT_EXACT_SCHEDULER_H

#ifndef MDES_EXACT_EXACT_SCHEDULER_H
#define MDES_EXACT_EXACT_SCHEDULER_H

/**
 * @file
 * Branch-and-bound optimal block scheduling over the MDES constraints.
 *
 * The search enumerates *canonical* schedules: issue decisions are made
 * cycle by cycle, and within a cycle in ascending instruction index.
 * Restricting the search to that order prunes every permutation of the
 * same cycle assignment (the dominance pruning on symmetric issue
 * orders). A schedule is feasible here when the greedy checker replay in
 * canonical (cycle, index) order succeeds, the model the brute-force
 * test reference shares.
 *
 * That model is narrower than the machine's. Each OR subtree takes its
 * first option that fits, so the options an op gets depend on which ops
 * reserved before it, and a legal set of issue cycles need not replay in
 * canonical order. This happens on a paper machine: on Pentium (seed 1,
 * 2,000 ops, block 17) the backward list scheduler finds a 6-cycle
 * schedule that its certificate verifies, while the search exhausts
 * every canonical schedule shorter than the 7-cycle list schedule. So a
 * search that completes proves its result optimal among canonical
 * schedules only.
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
 * optimal without a search node. The root bound reads only dependences
 * and resource demand, so it holds for every legal schedule, canonical
 * or not: a root proof is a proof.
 *
 * The earliest-start estimate is sharpened with the checker's pure
 * eachSubtreeFits() probe: an op cannot issue at cycle c while one of
 * its tree's OR subtrees has no option that fits the map on its own.
 * Within one search subtree the RU map only grows, and a fuller map
 * never turns that answer from false to true, so bumping the op's
 * earliest start past c is sound below the node. The greedy AND check
 * of tryReserve() would not be: on a table whose subtrees overlap, one
 * subtree's first fitting option can block another on an empty cycle
 * and leave room once that option is busy. On disjoint tables the two
 * agree. On the empty map at the root every subtree fits, so the root
 * bound bumps nothing.
 *
 * The search has two halves. rootBound() prepares a block and computes
 * its root bound; search() then looks for a schedule shorter than a
 * given incumbent under a node and wall-time budget with cooperative
 * cancellation, so callers always get the best schedule found so far -
 * never worse than the incumbent - plus a proven lower bound for the
 * optimality gap. scheduleBlock() runs the two in sequence from one
 * incumbent. The service's portfolio runs them apart: it races its other
 * candidates only when the root bound leaves the list schedule unproven,
 * and starts the search from the best of them.
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
    /** Required: a schedule of the block (the list schedule, or the
     * best candidate a portfolio holds), one cycle per instruction. The
     * search only looks for a strictly shorter one. */
    const sched::BlockSchedule *incumbent = nullptr;
};

/** Outcome of one exact-scheduling attempt. */
struct ExactResult
{
    /** The search's best canonical schedule when it improved on the
     * incumbent. Otherwise search() leaves it empty, since its caller
     * holds the incumbent, and scheduleBlock() copies the incumbent
     * here. */
    sched::BlockSchedule schedule;
    /** The certificate of schedule (see sched::Certificate) when the
     * search found it (improved); empty otherwise. */
    std::vector<uint32_t> options;
    /** The delivered length is minimal. From the root bound (no search
     * node) that holds over every legal schedule. From a completed
     * search it holds over canonical schedules only (see the file
     * comment): on some blocks a legal non-canonical schedule is
     * shorter. */
    bool proven_optimal = false;
    /** The search found a schedule strictly shorter than the incumbent. */
    bool improved = false;
    /** Lower bound on the block's schedule length: the root bound (the
     * static bounds and the energetic test), which holds over every
     * legal schedule; or, when proven_optimal, the delivered length,
     * which a completed search proves over canonical schedules only. */
    int32_t lower_bound = 0;

    /** Search nodes expanded. */
    uint64_t nodes = 0;
    /** Subtrees cut by the lower bounds (futile placements included). */
    uint64_t bound_prunes = 0;
    /** Ready candidates skipped by the canonical-order dominance rule. */
    uint64_t dominance_prunes = 0;
    /** Pure eachSubtreeFits() propagation probes issued. */
    uint64_t probes = 0;

    /** Node or time budget ran out before the search space was
     * exhausted (the result may still be proven via the root bound). */
    bool budget_exhausted = false;
    /** The cancel predicate fired mid-search. */
    bool cancelled = false;

    /** Length - lower_bound, the reportable optimality gap (of a
     * scheduleBlock() result, whose schedule is always set). */
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
     * @p opts: rootBound() capped by the incumbent's length, then, unless
     * that proves the incumbent optimal, search() from it. The result's
     * schedule is the incumbent when the search found nothing shorter.
     * @p stats accumulates every probe the search makes (CheckStats),
     * while ops_scheduled and total_schedule_length reflect only the
     * returned schedule, so the stats describe the delivered result
     * plus the work spent on it.
     *
     * @throws std::invalid_argument when opts.incumbent is null or does
     * not hold one cycle per instruction of @p block.
     */
    ExactResult scheduleBlock(const sched::Block &block,
                              sched::SchedStats &stats,
                              const ExactOptions &opts = {});

    /**
     * The first half of scheduleBlock(): prepare @p block for search()
     * and compute its root lower bound. The bound stops rising once it
     * reaches @p cap, the length of the longest incumbent the search
     * will start from (normally the list schedule's). The result holds
     * the bound, capped, and the probes spent; no search node is
     * expanded. proven_optimal is set when the bound reaches @p cap: a
     * schedule of @p cap cycles is then optimal over every legal
     * schedule.
     */
    ExactResult rootBound(const sched::Block &block,
                          sched::SchedStats &stats, int32_t cap);

    /**
     * The second half: search the block the last rootBound() call
     * prepared for a schedule strictly shorter than opts.incumbent,
     * under the budgets in @p opts, and update @p res, that call's
     * result. res.schedule and res.options are set only when the search
     * improved on the incumbent. @p stats accumulates every probe; its
     * ops_scheduled and total_schedule_length are left alone.
     *
     * @throws std::invalid_argument when opts.incumbent is null or does
     * not hold one cycle per instruction of the prepared block.
     */
    void search(ExactResult &res, sched::SchedStats &stats,
                const ExactOptions &opts);

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
    bool mayIssueAt(uint32_t u, int32_t cycle);
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

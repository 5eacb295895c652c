#ifndef MDES_SCHED_MODULO_SCHEDULER_H
#define MDES_SCHED_MODULO_SCHEDULER_H

/**
 * @file
 * Iterative modulo scheduling (software pipelining) driven by the MDES.
 *
 * This is the paper's reference [12] (Rau, MICRO-27 1994), cited twice:
 * as the advanced scheduling technique that significantly *increases*
 * scheduling attempts per operation - making efficient constraint
 * checking even more important - and as the consumer of the
 * "unscheduling" capability that is straightforward with reservation
 * tables but unclear with finite-state automata (Section 10).
 *
 * The implementation follows Rau's algorithm: compute the minimum
 * initiation interval (the larger of the resource-bound ResMII and the
 * recurrence-bound RecMII), then, for each candidate II, run
 * budget-limited list scheduling against a *modulo reservation table*
 * (an RU map indexed modulo II). An operation that cannot be placed in
 * any of the II slots of its window is force-placed, displacing
 * (unscheduling) the operations it conflicts with; when the budget runs
 * out the II is increased and scheduling restarts.
 */

#include <cstdint>
#include <vector>

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"

namespace mdes::sched {

/** Result of modulo-scheduling one loop body. */
struct ModuloSchedule
{
    bool success = false;
    /** Achieved initiation interval. */
    int32_t ii = 0;
    /** The lower bounds that constrained it. */
    int32_t res_mii = 0;
    int32_t rec_mii = 0;
    /** Issue time of each operation (within the flat schedule). */
    std::vector<int32_t> times;
    /** The option chosen for each OR subtree of each operation's tree,
     * operations in order: the modulo reservation table's certificate
     * (see Certificate), which Verifier::verify() checks at the II. A
     * forced placement takes each subtree's first option. */
    std::vector<uint32_t> options;
    /** Operations displaced (unscheduled) during the search. */
    uint64_t evictions = 0;
};

/** Budget-limited iterative modulo scheduler. */
class ModuloScheduler
{
  public:
    explicit ModuloScheduler(const lmdes::LowMdes &low)
        : low_(low), checker_(low)
    {
    }

    /** Resource-bound lower limit on II for @p body. */
    int32_t resMii(const Block &body) const;

    /** Recurrence-bound lower limit on II for @p body, at most
     * @p max_ii. Builds the body's loop dependence graph. */
    int32_t recMii(const Block &body, int32_t max_ii = 256);

    /**
     * Modulo-schedule @p body. Scheduling attempts, option and resource
     * checks accumulate into @p stats, exactly as for the list
     * schedulers. @p budget_ratio bounds the operations tried per II to
     * ratio * |body|.
     */
    ModuloSchedule schedule(const Block &body, SchedStats &stats,
                            int32_t max_ii = 128, int budget_ratio = 8);

  private:
    bool relaxHeights(size_t n, int32_t ii);

    const lmdes::LowMdes &low_;
    rumap::Checker checker_;
    /** The loop dependence graph of the body at hand (recMii). */
    DepGraph graph_;
    /** Longest path from each op under one II (relaxHeights). */
    std::vector<int64_t> height_;
};

} // namespace mdes::sched

#endif // MDES_SCHED_MODULO_SCHEDULER_H

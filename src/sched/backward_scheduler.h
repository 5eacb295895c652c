#ifndef MDES_SCHED_BACKWARD_SCHEDULER_H
#define MDES_SCHED_BACKWARD_SCHEDULER_H

/**
 * @file
 * Backward (bottom-up) list scheduler: the list scheduler's loop
 * (ListLoop) walking from the block's exit toward its entry.
 *
 * An operation becomes ready once all of its *successors* are placed,
 * and is tried at the latest cycle its outgoing dependences allow,
 * walking earlier one cycle at a time on resource conflicts. Useful
 * when the consumers' timing is what matters (e.g. scheduling toward a
 * branch). Returned cycles are shifted so the earliest operation issues
 * at cycle 0.
 *
 * This is the scheduler flavor Section 7 of the paper parameterizes
 * differently: the usage-time shift should make each resource's *latest*
 * usage time zero and the usage checks should be probed
 * latest-time-first (SchedDirection::Backward), since for a backward
 * scheduler the conflicts concentrate at the latest usage times. The
 * direction-tuning ablation bench measures exactly this effect.
 *
 * Cascade reservation tables are not used when scheduling backward (the
 * producer is not yet placed when the consumer is scheduled).
 */

#include "sched/list_scheduler.h"

namespace mdes::sched {

/** Bottom-up cycle-driven list scheduler. */
class BackwardListScheduler : public ListScheduler
{
  public:
    explicit BackwardListScheduler(const lmdes::LowMdes &low)
        : ListScheduler(low, SchedDirection::Backward)
    {
    }
};

} // namespace mdes::sched

#endif // MDES_SCHED_BACKWARD_SCHEDULER_H

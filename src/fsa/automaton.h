#ifndef MDES_FSA_AUTOMATON_H
#define MDES_FSA_AUTOMATON_H

/**
 * @file
 * Finite-state-automaton scheduling baseline (paper Section 10).
 *
 * Proebsting & Fraser (POPL'94), Mueller (MICRO-26), and Bala & Rubin
 * (MICRO-28) replace per-attempt reservation-table checking with an
 * automaton whose states encode the processor's outstanding resource
 * commitments: one table lookup decides whether an operation can issue
 * and yields the successor state. This module implements that baseline
 * so the paper's comparison can be reproduced:
 *
 *  - a state is the forward window of reserved resource words relative
 *    to the current cycle (all usage times must be >= 0, i.e. the
 *    Section 7 time shift must have run);
 *  - transitions are built lazily and memoized, as in Bala & Rubin's
 *    on-the-fly construction, so only reachable states materialize;
 *  - issue transitions choose exactly the same greedy highest-priority
 *    options as the reservation-table checker, so the FSA-driven list
 *    scheduler produces the identical schedule.
 *
 * What the paper observes still holds here by construction: lookups per
 * attempt drop to one, but the state/transition tables grow with the
 * machine's flexibility, and there is no way to *release* resources -
 * unscheduling (needed by iterative modulo scheduling) has no automaton
 * analogue.
 */

#include <cstdint>
#include <map>
#include <vector>

#include "lmdes/low_mdes.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"

namespace mdes::fsa {

/** Size/usage statistics of a (lazily built) scheduler automaton. */
struct FsaStats
{
    size_t states = 0;
    size_t window = 0;
    /** Bytes for state words plus transition tables. */
    size_t memory_bytes = 0;
    uint64_t issue_lookups = 0;
    /** Lookups that had to construct the transition (cold). */
    uint64_t transitions_built = 0;
};

/**
 * On-the-fly deterministic automaton over scheduler resource states.
 *
 * States are interned windows of future RU words; state 0 is the empty
 * machine. issue() and advanceCycle() build memoized transitions.
 */
class SchedulerAutomaton
{
  public:
    /** Transition result meaning "the operation cannot issue here". */
    static constexpr uint32_t kFail = 0xFFFFFFFF;

    /**
     * Build over @p low. Requires every check time in [0, window);
     * throws MdesError if any usage time is negative (run the usage-time
     * transformation first) or if @p max_states is exceeded later.
     */
    explicit SchedulerAutomaton(const lmdes::LowMdes &low,
                                size_t max_states = 1u << 20);

    /** The empty-machine state. */
    uint32_t initialState() const { return 0; }

    /**
     * Issue an operation using AND/OR-tree @p tree in the current cycle
     * of @p state. @return the successor state, or kFail.
     */
    uint32_t issue(uint32_t state, uint32_t tree);

    /** Move to the next cycle (shift the commitment window). */
    uint32_t advanceCycle(uint32_t state);

    FsaStats stats() const;

  private:
    using Window = std::vector<uint64_t>;

    uint32_t intern(const Window &window);

    const lmdes::LowMdes &low_;
    size_t max_states_;
    int32_t window_ = 1;

    std::vector<Window> state_windows_;
    std::map<Window, uint32_t> state_ids_;
    /** Per state: one issue transition per tree + one advance. Built
     * lazily; kUnbuilt marks absent entries. */
    static constexpr uint32_t kUnbuilt = 0xFFFFFFFE;
    std::vector<std::vector<uint32_t>> issue_transitions_;
    std::vector<uint32_t> advance_transitions_;

    mutable FsaStats stats_;
};

/**
 * The FSA-driven forward list scheduler: the list scheduler's own loop
 * (sched::ListLoop), with resource feasibility a single automaton lookup
 * per attempt instead of a reservation-table check. Produces
 * bit-identical schedules.
 */
class FsaListScheduler
{
  public:
    explicit FsaListScheduler(const lmdes::LowMdes &low,
                              SchedulerAutomaton &automaton)
        : fsa_(automaton), loop_(low)
    {
    }

    sched::BlockSchedule scheduleBlock(const sched::Block &block,
                                       sched::SchedStats &stats);

    std::vector<sched::BlockSchedule>
    scheduleProgram(const sched::Program &program,
                    sched::SchedStats &stats);

  private:
    SchedulerAutomaton &fsa_;
    sched::ListLoop loop_;
};

} // namespace mdes::fsa

#endif // MDES_FSA_AUTOMATON_H

#ifndef MDES_SCHED_VERIFY_H
#define MDES_SCHED_VERIFY_H

/**
 * @file
 * Independent schedule validation: replays a block schedule against the
 * dependence graph and a fresh RU map, proving (a) every dependence
 * distance is honored (cascaded operations may shrink relaxable RAW
 * edges to zero) and (b) the machine's resource constraints admit the
 * schedule. The service runs it on every request that asks for
 * verification and on each portfolio modulo candidate; `mdesc
 * schedule` runs it on every block it prints; the tests and the
 * property suite use it to show that every representation/
 * transformation combination produced a legal schedule.
 *
 * A Verifier is built once per (request, description) and checks any
 * number of blocks: its checker, dependence graph, RU map and replay
 * scratch are reused, so a block's check allocates nothing once the
 * scratch has grown. verifyScheduleEx() is the one-shot form over a
 * fresh Verifier and returns the same typed verdict, so callers can
 * branch on the failure class (the exact/portfolio paths distinguish a
 * resource replay mismatch from a dependence bug); verifySchedule()
 * keeps the original string contract - empty means valid.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "rumap/ru_map.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"

namespace mdes::sched {

/** The first violation class a schedule replay hit. */
enum class VerifyFault : uint8_t
{
    None = 0,
    /** cycles/used_cascade arrays do not match the block size. */
    SizeMismatch,
    /** An instruction has no issue cycle. */
    Unscheduled,
    /** A dependence edge's minimum distance is violated. */
    DependenceViolated,
    /** issue_order is present but not a permutation of the block. */
    BadIssueOrder,
    /** used_cascade set for a class without a cascade table. */
    MissingCascadeTree,
    /** The RU-map replay could not re-reserve an instruction. */
    ResourceConflict,
};

/** Stable lowercase name for @p fault (metrics / CLI output). */
const char *verifyFaultName(VerifyFault fault);

/** Typed verdict of one schedule validation. */
struct VerifyResult
{
    VerifyFault fault = VerifyFault::None;
    /** Offending instruction, kInvalidId when not instruction-specific. */
    uint32_t instr = kInvalidId;
    /** Human-readable description; empty when the schedule is valid. */
    std::string message;

    bool ok() const { return fault == VerifyFault::None; }
};

/**
 * Reusable schedule validator for one description. Not thread-safe:
 * like the Checker it holds, it is per-request, worker-local state.
 */
class Verifier
{
  public:
    explicit Verifier(const lmdes::LowMdes &low) : low_(low), checker_(low)
    {
    }

    /**
     * Validate @p sched for @p block. The resource replay follows the
     * schedule's recorded issue_order when present (the exact search
     * issues out of (cycle, priority) order), else (cycle,
     * critical-path priority, index) order. Nothing carries over from
     * earlier calls, failed ones included.
     */
    VerifyResult verify(const Block &block, const BlockSchedule &sched);

  private:
    const lmdes::LowMdes &low_;
    rumap::Checker checker_;
    DepGraph graph_;
    rumap::RuMap ru_;
    /** Replay attempts are not reported; this absorbs their counts. */
    rumap::CheckStats scratch_;
    std::vector<uint32_t> order_;
    std::vector<uint8_t> seen_;
};

/** One-shot verification: Verifier(@p low).verify(@p block, @p sched). */
VerifyResult verifyScheduleEx(const Block &block, const BlockSchedule &sched,
                              const lmdes::LowMdes &low);

/**
 * Validate @p sched for @p block under @p low.
 * @return an empty string when valid, else a description of the first
 *         violation found.
 */
std::string verifySchedule(const Block &block, const BlockSchedule &sched,
                           const lmdes::LowMdes &low);

} // namespace mdes::sched

#endif // MDES_SCHED_VERIFY_H

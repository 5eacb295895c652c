#ifndef MDES_SCHED_VERIFY_H
#define MDES_SCHED_VERIFY_H

/**
 * @file
 * Independent schedule validation (DESIGN.md §2.8). A block schedule is
 * legal when (a) every dependence distance is honored (a cascaded
 * consumer may issue with its single-cycle producer) and (b) the
 * machine's resource constraints admit it. Two checks prove it:
 *
 *  - Verifier::verify() checks a *certificate*: the option the
 *    scheduler chose for each OR subtree of each operation's AND/OR-tree
 *    (sched::Certificate, or a modulo schedule's own, at its II).
 *    Dependences come straight from register defs and uses, each
 *    certified option must belong to its subtree, and the options'
 *    usages, ORed into a plain RU map at each operation's cycle, must
 *    never overlap. There is no dependence graph, no checker, no search
 *    and no order, so a bug in a scheduler's machinery cannot hide from
 *    it. The service runs it on every request that asks for verification
 *    and on each portfolio modulo candidate; `mdesc schedule` on every
 *    block it prints.
 *  - verifyScheduleEx() is the greedy replay: the same dependence check,
 *    then a fresh checker re-reserves every operation in the schedule's
 *    issue_order. It needs no certificate, so it checks a schedule made
 *    for one description against another, where option ids differ
 *    (perfbench's oracle replays on the unoptimized description). It is
 *    the only replay.
 *
 * A Verifier is built once per (request, description) and checks any
 * number of blocks: its register table and RU map are reused, so a
 * block's check allocates nothing once they have grown. Both checks
 * return a typed verdict, so callers can branch on the failure class.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lmdes/low_mdes.h"
#include "sched/ir.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"

namespace mdes::sched {

/** The first violation class a schedule check hit. */
enum class VerifyFault : uint8_t
{
    None = 0,
    /** cycles/used_cascade arrays do not match the block size. */
    SizeMismatch,
    /** An instruction has no issue cycle. */
    Unscheduled,
    /** A dependence's minimum distance is violated. */
    DependenceViolated,
    /** The replay's issue_order is not a permutation of the block. */
    BadIssueOrder,
    /** used_cascade set for a class without a cascade table. */
    MissingCascadeTree,
    /** An instruction's certified options overlap earlier usages, or
     * the replay could not re-reserve it. */
    ResourceConflict,
    /** A certified option id names no option of the description. */
    UnknownOption,
    /** A certified option is not one of its OR subtree's options. */
    OptionNotInSubtree,
    /** The certificate holds fewer or more option ids than the block's
     * trees have OR subtrees. */
    CertificateLength,
    /** A modulo schedule's II is below its own ResMII or RecMII. */
    IIBelowBound,
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
 * Reusable certificate checker for one description. Not thread-safe:
 * it is per-request, worker-local state.
 */
class Verifier
{
  public:
    explicit Verifier(const lmdes::LowMdes &low);

    /**
     * Validate @p sched for @p block against its certificate
     * @p options: the block's slice of a sched::Certificate. Checks run
     * in instruction order, so the first violation reported is the one
     * at the lowest instruction. Nothing carries over from earlier
     * calls, failed ones included.
     */
    VerifyResult verify(const Block &block, const BlockSchedule &sched,
                        std::span<const uint32_t> options);

    /** Validate modulo schedule @p sched of loop body @p body against
     * sched.options at sched.ii: verify() over two iterations (op n + i
     * is op i of the next), without the control rule, on an RU map II
     * cycles wide. A failed schedule (Unscheduled) or an II below its
     * own ResMII or RecMII (IIBelowBound) fails first. */
    VerifyResult verify(const Block &body, const ModuloSchedule &sched);

    /** Sizes, issue cycles and dependences only: verify() without the
     * certificate. verifyScheduleEx() runs it before its replay. */
    VerifyResult verifyDependences(const Block &block,
                                   const BlockSchedule &sched);

  private:
    /** One register's defs and uses so far in the block at hand. */
    struct RegUse
    {
        /** The block this entry belongs to (see stamp_). */
        uint32_t stamp = 0;
        int32_t reg = 0;
        /** The last writer, or kInvalidId. */
        uint32_t writer = kInvalidId;
        /** The latest-issuing read since that write, or kInvalidId. */
        uint32_t reader = kInvalidId;
    };

    RegUse &regUse(int32_t reg);

    /** verify()'s certificate half over @p block's ops (a loop body's
     * first iteration), on an RU map folded mod @p ii unless it is 0. */
    VerifyResult resources(const Block &block, const BlockSchedule &sched,
                           std::span<const uint32_t> options, int32_t ii);

    const lmdes::LowMdes &low_;
    /** Open-addressed by register number; entries of earlier blocks
     * are dead by stamp, so a block starts with one increment. */
    std::vector<RegUse> regs_;
    uint32_t stamp_ = 0;
    /** The description's lowest and highest check slots. */
    int32_t slot_lo_ = 0;
    int32_t slot_hi_ = 0;
    /** A plain RU map over one block's slot window, or over II cycles. */
    std::vector<uint64_t> ru_;
    /** A loop body twice (its operand spans are read only within
     * verify()), and its two iterations' schedule. */
    std::vector<Instr> twice_;
    BlockSchedule loop_;
};

/**
 * The greedy replay: Verifier::verifyDependences(), then a fresh
 * checker re-reserves each instruction in @p sched's issue_order on a
 * fresh RU map. It reads no certificate, so @p low may be another
 * description than the one @p sched was made for.
 */
VerifyResult verifyScheduleEx(const Block &block, const BlockSchedule &sched,
                              const lmdes::LowMdes &low);

} // namespace mdes::sched

#endif // MDES_SCHED_VERIFY_H

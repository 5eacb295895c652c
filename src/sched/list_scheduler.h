#ifndef MDES_SCHED_LIST_SCHEDULER_H
#define MDES_SCHED_LIST_SCHEDULER_H

/**
 * @file
 * The MDES-driven, multi-platform list scheduler.
 *
 * The scheduler never hard-codes machine behavior: all execution
 * constraints come from the low-level MDES via the constraint checker,
 * which is exactly the paper's experimental setup (a generic list
 * scheduler driven by per-machine descriptions). Each TrySchedule of one
 * operation at one cycle is one *scheduling attempt*; the checker
 * tallies attempts, options checked, and resource checks.
 *
 * One loop, ListLoop, serves every list scheduler. It is parameterized
 * by the walk direction and by the resource model: ListScheduler drives
 * it with the reservation-table checker and an RU map (forward, or
 * backward via BackwardListScheduler), and fsa::FsaListScheduler drives
 * the same loop with a scheduler automaton (paper Section 10).
 */

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/transforms.h"
#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/dep_graph.h"
#include "sched/ir.h"
#include "support/diagnostics.h"
#include "support/histogram.h"
#include "support/trace.h"

namespace mdes::sched {

/** The schedule of one basic block. */
struct BlockSchedule
{
    /** Issue cycle per instruction. */
    std::vector<int32_t> cycles;
    /** Whether each instruction used its cascade reservation table. */
    std::vector<uint8_t> used_cascade;
    /** Schedule length (one past the last issue cycle). */
    int32_t length = 0;
    /**
     * Instructions in the order their reservations were made. The
     * greedy replay (verifyScheduleEx) reserves in this order so the
     * checker's option choices match the scheduler's; it rejects a
     * schedule without one.
     */
    std::vector<uint32_t> issue_order;

    bool operator==(const BlockSchedule &) const = default;
};

/** FNV-1a hash of each block's length, issue cycles and cascade use,
 * in block order: equal for identical scheduling decisions, so the perf
 * gate and the service can assert bit-identical schedules. */
uint64_t scheduleFingerprint(const std::vector<BlockSchedule> &schedules);

/**
 * The certificate of a run of block schedules (DESIGN.md §2.8): for
 * every scheduled operation, in block and operation order, the option
 * id the scheduler chose for each OR subtree of the AND/OR-tree it
 * issued with (its cascade tree when it cascaded), in subtree order.
 * Verifier::verify() checks a block's schedule against its slice. It
 * lives beside the schedules, not in BlockSchedule: it is not
 * fingerprinted, serialized or returned.
 */
struct Certificate
{
    /** Every block's option ids, back to back. */
    std::vector<uint32_t> options;
    /** Where each block's ids start in options, then where they end. */
    std::vector<size_t> starts{0};

    /** Close the block whose ids were appended since the last close. */
    void endBlock() { starts.push_back(options.size()); }

    /** The option ids of closed block @p b. */
    std::span<const uint32_t>
    block(size_t b) const
    {
        return std::span(options).subspan(starts[b],
                                          starts[b + 1] - starts[b]);
    }
};

/** Aggregated scheduling results and statistics. */
struct SchedStats
{
    uint64_t ops_scheduled = 0;
    uint64_t total_schedule_length = 0;
    rumap::CheckStats checks;
    /** Scheduling attempts each operation needed before it was placed.
     * Filled by the schedulers' probe hooks only while a trace span is
     * active (tracing enabled), so the hot loop pays nothing when off. */
    Histogram attempts_per_op;

    double
    avgAttemptsPerOp() const
    {
        return ops_scheduled
                   ? double(checks.attempts) / double(ops_scheduled)
                   : 0;
    }
};

/**
 * The cycle-driven list-scheduling loop, for either walk direction and
 * any resource model.
 *
 * Forward, an operation is ready once its predecessors are placed and is
 * tried from the earliest cycle its incoming dependences allow, one
 * cycle later per resource conflict; the critical-path height orders
 * the ready list and a cascadable consumer may issue early on its
 * cascade reservation table. Backward is the same loop over the
 * mirrored block: successors gate readiness, walk time t issues at
 * cycle -t, depth (longest path from the block entry) replaces height
 * as the priority, and there is no cascading (the producer is not yet
 * placed when the consumer is). One uniform shift then puts the
 * earliest issue at cycle 0.
 */
class ListLoop
{
  public:
    explicit ListLoop(const lmdes::LowMdes &low) : low_(low) {}

    /**
     * Schedule @p block walking in direction @p Dir, accumulating
     * statistics into @p stats. @p reserve is the resource model:
     * `reserve(tree, cycle)` is one scheduling attempt of AND/OR-tree
     * @p tree at issue cycle @p cycle; it commits the reservation and
     * returns true when the operation fits. Attempt counters belong to
     * the resource model; the loop adds ops and schedule length.
     *
     * @throws MdesError when some operation can never issue.
     */
    template <SchedDirection Dir, class Reserve>
    BlockSchedule run(const Block &block, SchedStats &stats,
                      Reserve &&reserve);

  private:
    const lmdes::LowMdes &low_;

    // Per-block scratch, reused across run() calls: blocks are a
    // handful of operations, so allocation (dep graph adjacency, ready
    // list) costs more than the scheduling itself.
    DepGraph graph_;
    std::vector<int32_t> depth_;
    std::vector<uint32_t> ready_;
    /** Unplaced neighbours that gate each operation's readiness. */
    std::vector<uint32_t> waiting_;
    std::vector<uint32_t> op_attempts_;
};

/** List scheduler over the reservation-table checker and an RU map;
 * walks forward (BackwardListScheduler walks backward). */
class ListScheduler
{
  public:
    explicit ListScheduler(const lmdes::LowMdes &low)
        : ListScheduler(low, SchedDirection::Forward)
    {
    }

    /**
     * Schedule one basic block with a fresh RU map, accumulating
     * statistics into @p stats. When @p options is non-null, the
     * block's certificate (see Certificate) is appended to it.
     */
    BlockSchedule scheduleBlock(const Block &block, SchedStats &stats,
                                std::vector<uint32_t> *options = nullptr);

    /** Schedule every block of @p program; returns per-block schedules.
     * When @p certificate is non-null, each block's certificate is
     * appended to it as one closed block. */
    std::vector<BlockSchedule>
    scheduleProgram(const Program &program, SchedStats &stats,
                    Certificate *certificate = nullptr);

  protected:
    ListScheduler(const lmdes::LowMdes &low, SchedDirection direction)
        : direction_(direction), checker_(low), loop_(low)
    {
    }

  private:
    SchedDirection direction_;
    rumap::Checker checker_;
    rumap::RuMap ru_;
    ListLoop loop_;
    // Certificate scratch: the options of one attempt; every placed
    // op's options in issue order, and where each op's begin there;
    // each op's place in the issue order.
    std::vector<uint32_t> chosen_;
    std::vector<uint32_t> picked_;
    std::vector<uint32_t> picked_at_;
    std::vector<uint32_t> issued_as_;
};

template <SchedDirection Dir, class Reserve>
BlockSchedule
ListLoop::run(const Block &block, SchedStats &stats, Reserve &&reserve)
{
    constexpr bool kForward = Dir == SchedDirection::Forward;
    const size_t n = block.instrs.size();
    BlockSchedule sched;
    // Walk times until the backward shift below; -1 marks unplaced.
    sched.cycles.assign(n, -1);
    sched.used_cascade.assign(n, 0);
    if (n == 0)
        return sched;

    // Probe hook: per-op attempt counts, collected only under a live
    // span so the untraced loop pays a flag test and nothing more.
    TRACE_SPAN_F(span, "sched/block");
    if (span.active())
        op_attempts_.assign(n, 0);
    const uint64_t attempts_before = stats.checks.attempts;
    const uint64_t prefilter_before = stats.checks.prefilter_hits;

    graph_.rebuild(block, low_);
    // Edges into an operation gate it; edges out of it release others.
    // `first` is the end the walk places first, `then` the other end.
    auto gates = [&](uint32_t u) {
        if constexpr (kForward)
            return graph_.preds(u);
        else
            return graph_.succs(u);
    };
    auto releases = [&](uint32_t u) {
        if constexpr (kForward)
            return graph_.succs(u);
        else
            return graph_.preds(u);
    };
    auto first = [](const DepEdge &e) { return kForward ? e.pred : e.succ; };
    auto then = [](const DepEdge &e) { return kForward ? e.succ : e.pred; };

    if constexpr (!kForward) {
        depth_.assign(n, 0);
        for (uint32_t u = 0; u < n; ++u) {
            for (const DepEdge &e : graph_.preds(u))
                depth_[u] = std::max(depth_[u], depth_[e.pred] + e.min_dist);
        }
    }
    // Ready-list order: priority first, then source order (deterministic
    // across representations/transforms). A total order, so the in-place
    // sort needs no stable-sort buffer.
    const std::vector<int32_t> &prio =
        kForward ? graph_.priorities() : depth_;
    ready_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        ready_[i] = i;
    std::sort(ready_.begin(), ready_.end(), [&](uint32_t a, uint32_t b) {
        return prio[a] != prio[b] ? prio[a] > prio[b] : a < b;
    });
    sched.issue_order.reserve(n);

    waiting_.resize(n);
    for (uint32_t u = 0; u < n; ++u)
        waiting_[u] = uint32_t(gates(u).size());

    size_t remaining = n;
    // Generous safety bound: every op needs at least one cycle, plus
    // dependence spans bounded by per-op latency sums.
    int64_t cycle_bound = 64;
    for (const auto &in : block.instrs)
        cycle_bound += 2 + low_.opClasses()[in.op_class].latency;

    for (int32_t t = 0; remaining > 0; ++t) {
        if (t > cycle_bound) {
            throw MdesError(
                "list scheduler exceeded cycle bound; the machine "
                "description cannot issue some operation");
        }
        // One pass over the ready list, compacting out the operations
        // placed this cycle (order-preserving, so priority ties keep
        // resolving by source order).
        size_t w = 0;
        for (size_t i = 0; i < ready_.size(); ++i) {
            uint32_t u = ready_[i];
            ready_[w++] = u;
            if (waiting_[u] > 0)
                continue;
            const Instr &in = block.instrs[u];
            const lmdes::LowOpClass &cls = low_.opClasses()[in.op_class];

            // Earliest time with all gating dependences honored, and the
            // earlier time reachable by cascading relaxable RAW edges.
            int32_t normal_ready = 0;
            int32_t cascade_ready = 0;
            for (const DepEdge &e : gates(u)) {
                int32_t from = sched.cycles[first(e)];
                int32_t at = from + e.min_dist;
                normal_ready = std::max(normal_ready, at);
                cascade_ready =
                    std::max(cascade_ready, e.cascade_relax ? from : at);
            }

            bool can_cascade = kForward && in.cascadable &&
                               cls.cascade_tree != kInvalidId;
            if (t < (can_cascade ? cascade_ready : normal_ready))
                continue;
            bool use_cascade = can_cascade && t < normal_ready;
            uint32_t tree = use_cascade ? cls.cascade_tree : cls.tree;

            if (span.active())
                ++op_attempts_[u];
            if (reserve(tree, kForward ? t : -t)) {
                sched.cycles[u] = t;
                sched.used_cascade[u] = use_cascade ? 1 : 0;
                sched.length = std::max(sched.length, t + 1);
                sched.issue_order.push_back(u);
                --remaining;
                for (const DepEdge &e : releases(u))
                    --waiting_[then(e)];
                --w; // drop u from the ready list
            }
        }
        ready_.resize(w);
    }

    if constexpr (!kForward) {
        // Time t issued at cycle -t; one uniform shift puts the earliest
        // issue (the largest t) on cycle 0. issue_order deliberately
        // stays in true reservation order (latest cycles first):
        // replaying in any other order could make different greedy
        // option choices, while a uniform shift reproduces the same ones.
        const int32_t t_max = sched.length - 1;
        const int32_t t_min = *std::min_element(sched.cycles.begin(),
                                                sched.cycles.end());
        for (int32_t &c : sched.cycles)
            c = t_max - c;
        sched.length = t_max - t_min + 1;
    }

    stats.ops_scheduled += n;
    stats.total_schedule_length += uint64_t(sched.length);
    if (span.active()) {
        for (uint32_t a : op_attempts_)
            stats.attempts_per_op.add(a);
        span.counter("ops", n);
        span.counter("length", uint64_t(sched.length));
        span.counter("attempts", stats.checks.attempts - attempts_before);
        span.counter("prefilter_hits",
                     stats.checks.prefilter_hits - prefilter_before);
    }
    return sched;
}

} // namespace mdes::sched

#endif // MDES_SCHED_LIST_SCHEDULER_H

#include "sched/list_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "support/diagnostics.h"
#include "support/trace.h"

namespace mdes::sched {

BlockSchedule
ListScheduler::scheduleBlock(const Block &block, SchedStats &stats)
{
    const size_t n = block.instrs.size();
    BlockSchedule sched;
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

    stats.checks.sizeFor(low_);
    graph_.rebuild(block, low_);
    ru_.clear();

    // Instruction order for the ready list: critical path first, then
    // source order (deterministic across representations/transforms).
    // A total order, so the in-place sort needs no stable-sort buffer.
    ready_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        ready_[i] = i;
    const std::vector<int32_t> &prio = graph_.priorities();
    std::sort(ready_.begin(), ready_.end(), [&](uint32_t a, uint32_t b) {
        return prio[a] != prio[b] ? prio[a] > prio[b] : a < b;
    });
    sched.issue_order.reserve(n);

    unscheduled_preds_.assign(n, 0);
    for (const auto &e : graph_.edges())
        ++unscheduled_preds_[e.succ];

    size_t remaining = n;
    // Generous safety bound: every op needs at least one cycle, plus
    // dependence spans bounded by per-op latency sums.
    int64_t cycle_bound = 64;
    for (const auto &in : block.instrs)
        cycle_bound += 2 + low_.opClasses()[in.op_class].latency;

    for (int32_t cycle = 0; remaining > 0; ++cycle) {
        if (cycle > cycle_bound) {
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
            if (unscheduled_preds_[u] > 0)
                continue;
            const Instr &in = block.instrs[u];
            const lmdes::LowOpClass &cls = low_.opClasses()[in.op_class];

            // Earliest cycle with all dependences honored, and the
            // earlier cycle reachable by cascading relaxable RAW edges.
            int32_t normal_ready = 0;
            int32_t cascade_ready = 0;
            for (uint32_t e : graph_.predEdges()[u]) {
                const DepEdge &edge = graph_.edges()[e];
                int32_t at = sched.cycles[edge.pred] + edge.min_dist;
                normal_ready = std::max(normal_ready, at);
                int32_t relaxed = edge.cascade_relax
                                      ? sched.cycles[edge.pred]
                                      : at;
                cascade_ready = std::max(cascade_ready, relaxed);
            }

            bool can_cascade = in.cascadable &&
                               cls.cascade_tree != kInvalidId;
            if (cycle < (can_cascade ? cascade_ready : normal_ready))
                continue;
            bool use_cascade = can_cascade && cycle < normal_ready;
            uint32_t tree = use_cascade ? cls.cascade_tree : cls.tree;

            if (span.active())
                ++op_attempts_[u];
            if (checker_.tryReserve(tree, cycle, ru_, stats.checks)) {
                sched.cycles[u] = cycle;
                sched.used_cascade[u] = use_cascade ? 1 : 0;
                sched.length = std::max(sched.length, cycle + 1);
                sched.issue_order.push_back(u);
                --remaining;
                for (uint32_t e : graph_.succEdges()[u])
                    --unscheduled_preds_[graph_.edges()[e].succ];
                --w; // drop u from the ready list
            }
        }
        ready_.resize(w);
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

std::vector<BlockSchedule>
ListScheduler::scheduleProgram(const Program &program, SchedStats &stats)
{
    std::vector<BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks)
        schedules.push_back(scheduleBlock(block, stats));
    return schedules;
}

} // namespace mdes::sched

#include "sched/backward_scheduler.h"

#include <algorithm>

#include "support/diagnostics.h"
#include "support/trace.h"

namespace mdes::sched {

BlockSchedule
BackwardListScheduler::scheduleBlock(const Block &block, SchedStats &stats)
{
    const size_t n = block.instrs.size();
    BlockSchedule sched;
    sched.cycles.assign(n, 1); // sentinel: backward cycles are <= 0
    sched.used_cascade.assign(n, 0);
    if (n == 0)
        return sched;

    TRACE_SPAN_F(span, "sched/block");
    if (span.active())
        op_attempts_.assign(n, 0);
    const uint64_t attempts_before = stats.checks.attempts;
    const uint64_t prefilter_before = stats.checks.prefilter_hits;

    stats.checks.sizeFor(low_);
    graph_.rebuild(block, low_);
    ru_.clear();

    // Depth = latency-weighted longest path from the block entry; ops
    // deepest in the block schedule first when walking backward.
    depth_.assign(n, 0);
    for (uint32_t u = 0; u < n; ++u) {
        for (uint32_t e : graph_.predEdges()[u]) {
            const DepEdge &edge = graph_.edges()[e];
            depth_[u] = std::max(depth_[u],
                                 depth_[edge.pred] + edge.min_dist);
        }
    }
    // Ties keep source order; a total order, so the in-place sort needs
    // no stable-sort buffer.
    ready_.resize(n);
    for (uint32_t i = 0; i < n; ++i)
        ready_[i] = i;
    std::sort(ready_.begin(), ready_.end(), [&](uint32_t a, uint32_t b) {
        return depth_[a] != depth_[b] ? depth_[a] > depth_[b] : a < b;
    });
    sched.issue_order.reserve(n);

    unscheduled_succs_.assign(n, 0);
    for (const auto &e : graph_.edges())
        ++unscheduled_succs_[e.pred];

    size_t remaining = n;
    int64_t cycle_bound = 64;
    for (const auto &in : block.instrs)
        cycle_bound += 2 + low_.opClasses()[in.op_class].latency;

    for (int32_t cycle = 0; remaining > 0; --cycle) {
        if (-int64_t(cycle) > cycle_bound) {
            throw MdesError(
                "backward list scheduler exceeded cycle bound; the "
                "machine description cannot issue some operation");
        }
        // One compacting pass over the ready list (order-preserving, as
        // in the forward scheduler).
        size_t w = 0;
        for (size_t i = 0; i < ready_.size(); ++i) {
            uint32_t u = ready_[i];
            ready_[w++] = u;
            if (unscheduled_succs_[u] > 0)
                continue;
            const Instr &in = block.instrs[u];
            const lmdes::LowOpClass &cls = low_.opClasses()[in.op_class];

            // The latest cycle all outgoing dependences allow.
            int32_t latest = 0;
            for (uint32_t e : graph_.succEdges()[u]) {
                const DepEdge &edge = graph_.edges()[e];
                latest = std::min(latest, sched.cycles[edge.succ] -
                                              edge.min_dist);
            }
            if (cycle > latest)
                continue;

            if (span.active())
                ++op_attempts_[u];
            if (checker_.tryReserve(cls.tree, cycle, ru_,
                                    stats.checks)) {
                sched.cycles[u] = cycle;
                sched.issue_order.push_back(u);
                --remaining;
                for (uint32_t e : graph_.predEdges()[u])
                    --unscheduled_succs_[graph_.edges()[e].pred];
                --w; // drop u from the ready list
            }
        }
        ready_.resize(w);
    }

    // Normalize so the earliest issue cycle becomes 0.
    int32_t min_cycle = *std::min_element(sched.cycles.begin(),
                                          sched.cycles.end());
    for (auto &c : sched.cycles)
        c -= min_cycle;
    sched.length = *std::max_element(sched.cycles.begin(),
                                     sched.cycles.end()) +
                   1;
    // issue_order deliberately stays in true reservation order (latest
    // cycles first): replaying in any other order could make different
    // greedy option choices. Cycle normalization is a uniform shift, so
    // replaying the shifted cycles reproduces the same choices.

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
BackwardListScheduler::scheduleProgram(const Program &program,
                                       SchedStats &stats)
{
    std::vector<BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks)
        schedules.push_back(scheduleBlock(block, stats));
    return schedules;
}

} // namespace mdes::sched

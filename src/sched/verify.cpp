#include "sched/verify.h"

#include <algorithm>
#include <span>
#include <sstream>

namespace mdes::sched {

const char *
verifyFaultName(VerifyFault fault)
{
    switch (fault) {
    case VerifyFault::None:
        return "none";
    case VerifyFault::SizeMismatch:
        return "size_mismatch";
    case VerifyFault::Unscheduled:
        return "unscheduled";
    case VerifyFault::DependenceViolated:
        return "dependence_violated";
    case VerifyFault::BadIssueOrder:
        return "bad_issue_order";
    case VerifyFault::MissingCascadeTree:
        return "missing_cascade_tree";
    case VerifyFault::ResourceConflict:
        return "resource_conflict";
    }
    return "unknown";
}

namespace {

VerifyResult
fail(VerifyFault fault, uint32_t instr, std::string message)
{
    VerifyResult r;
    r.fault = fault;
    r.instr = instr;
    r.message = std::move(message);
    return r;
}

} // namespace

VerifyResult
Verifier::verify(const Block &block, const BlockSchedule &sched)
{
    const size_t n = block.instrs.size();
    if (sched.cycles.size() != n || sched.used_cascade.size() != n)
        return fail(VerifyFault::SizeMismatch, kInvalidId,
                    "schedule size does not match block size");

    for (size_t i = 0; i < n; ++i) {
        if (sched.cycles[i] < 0) {
            std::ostringstream os;
            os << "instruction " << i << " was never scheduled";
            return fail(VerifyFault::Unscheduled, uint32_t(i), os.str());
        }
    }

    // Dependence distances.
    graph_.rebuild(block, low_);
    for (const auto &edge : graph_.edges()) {
        int32_t dist = edge.min_dist;
        if (edge.cascade_relax && sched.used_cascade[edge.succ])
            dist = 0;
        if (sched.cycles[edge.succ] - sched.cycles[edge.pred] < dist) {
            std::ostringstream os;
            os << "dependence violated: instruction " << edge.succ
               << " at cycle " << sched.cycles[edge.succ]
               << " is closer than " << dist << " to instruction "
               << edge.pred << " at cycle " << sched.cycles[edge.pred];
            return fail(VerifyFault::DependenceViolated, edge.succ,
                        os.str());
        }
    }

    // Resource feasibility: replay placements in the order the scheduler
    // made its reservations, so the checker's greedy option choices
    // coincide with the original ones. Without a recorded issue order,
    // fall back to (cycle, critical-path priority) - the forward
    // scheduler's attempt order - with source order breaking ties.
    std::span<const uint32_t> order;
    if (sched.issue_order.size() == n) {
        order = sched.issue_order;
        seen_.assign(n, 0);
        for (uint32_t u : order) {
            if (u >= n || seen_[u])
                return fail(VerifyFault::BadIssueOrder, u,
                            "issue order is not a permutation of the "
                            "block");
            seen_[u] = 1;
        }
    } else {
        order_.resize(n);
        for (uint32_t i = 0; i < n; ++i)
            order_[i] = i;
        const std::vector<int32_t> &prio = graph_.priorities();
        std::sort(order_.begin(), order_.end(),
                  [&](uint32_t a, uint32_t b) {
                      if (sched.cycles[a] != sched.cycles[b])
                          return sched.cycles[a] < sched.cycles[b];
                      if (prio[a] != prio[b])
                          return prio[a] > prio[b];
                      return a < b;
                  });
        order = order_;
    }

    ru_.clear();
    for (uint32_t u : order) {
        const auto &cls = low_.opClasses()[block.instrs[u].op_class];
        uint32_t tree =
            sched.used_cascade[u] ? cls.cascade_tree : cls.tree;
        if (tree == kInvalidId) {
            std::ostringstream os;
            os << "instruction " << u
               << " claims cascade but has no cascade tree";
            return fail(VerifyFault::MissingCascadeTree, u, os.str());
        }
        if (!checker_.tryReserve(tree, sched.cycles[u], ru_, scratch_)) {
            std::ostringstream os;
            os << "resource conflict replaying instruction " << u
               << " at cycle " << sched.cycles[u];
            return fail(VerifyFault::ResourceConflict, u, os.str());
        }
    }
    return {};
}

VerifyResult
verifyScheduleEx(const Block &block, const BlockSchedule &sched,
                 const lmdes::LowMdes &low)
{
    return Verifier(low).verify(block, sched);
}

std::string
verifySchedule(const Block &block, const BlockSchedule &sched,
               const lmdes::LowMdes &low)
{
    return verifyScheduleEx(block, sched, low).message;
}

} // namespace mdes::sched

/**
 * @file
 * Scheduler substrate tests: dependence-graph construction (RAW/WAR/WAW,
 * cascade relaxation, branch ordering, priorities), list scheduling
 * against the MDES, cascade selection, and schedule verification - each
 * fault class, and a reused Verifier in lockstep with one-shot
 * verification across the paper machines' list, backward and exact
 * schedules and their corruptions.
 */

#include <array>

#include <gtest/gtest.h>

#include "exact/exact_scheduler.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/backward_scheduler.h"
#include "sched/dep_graph.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using sched::Block;
using sched::BlockSchedule;
using sched::DepGraph;
using sched::Instr;
using sched::ListScheduler;
using sched::SchedStats;

/** A 2-wide machine: 2 slots, ops take one slot; ADD cascades on S[1]. */
LowMdes
twoWide()
{
    static const char *src = R"(
machine "two-wide" {
    resource S[2];
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    ortree S1 { option { use S[1] at 0; } }
    table Any = AnyS;
    table Casc = S1;
    operation ADD { table Any; latency 1; cascade Casc; }
    operation LOAD { table Any; latency 3; }
    operation BR { table Any; latency 1; }
}
)";
    Mdes m = hmdes::compileOrThrow(src);
    return LowMdes::lower(m, {});
}

Instr
instr(uint32_t cls, std::vector<int32_t> srcs, std::vector<int32_t> dsts,
      bool cascadable = false, bool is_branch = false)
{
    Instr in;
    in.op_class = cls;
    in.srcs = std::move(srcs);
    in.dsts = std::move(dsts);
    in.cascadable = cascadable;
    in.is_branch = is_branch;
    return in;
}

// --------------------------------------------------------------- DepGraph

TEST(DepGraph, RawWarWawEdges)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(LOAD, {1}, {2}), // 0: r2 = load r1
        instr(ADD, {2}, {3}),  // 1: r3 = r2 + ...   RAW 0->1 dist 3
        instr(ADD, {9}, {2}),  // 2: r2 = ...        WAW 0->2, WAR 1->2
    };
    DepGraph g = DepGraph::build(b, low);

    bool raw = false, waw = false, war = false;
    for (const auto &e : g.edges()) {
        if (e.pred == 0 && e.succ == 1) {
            raw = true;
            EXPECT_EQ(e.min_dist, 3);
        }
        if (e.pred == 0 && e.succ == 2) {
            waw = true;
            EXPECT_EQ(e.min_dist, 1);
        }
        if (e.pred == 1 && e.succ == 2) {
            war = true;
            EXPECT_EQ(e.min_dist, 0);
        }
    }
    EXPECT_TRUE(raw && waw && war);
}

TEST(DepGraph, CascadeRelaxOnlyForSingleCycleProducers)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(ADD, {1}, {2}),              // 0
        instr(ADD, {2}, {3}, true),        // 1: cascadable consumer
        instr(LOAD, {9}, {4}),             // 2
        instr(ADD, {4}, {5}, true),        // 3: load-fed: no relax
    };
    DepGraph g = DepGraph::build(b, low);
    for (const auto &e : g.edges()) {
        if (e.pred == 0 && e.succ == 1)
            EXPECT_TRUE(e.cascade_relax);
        if (e.pred == 2 && e.succ == 3)
            EXPECT_FALSE(e.cascade_relax);
    }
}

TEST(DepGraph, NoSelfEdges)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    // Reads and writes the same register, plus a double write.
    b.instrs = {instr(ADD, {1}, {1}), instr(ADD, {2}, {3, 3})};
    DepGraph g = DepGraph::build(b, low);
    for (const auto &e : g.edges())
        EXPECT_NE(e.pred, e.succ);
}

TEST(DepGraph, BranchOrderedLast)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t BR = low.findOpClass("BR");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {3}, {4}),
                instr(BR, {}, {}, false, true)};
    DepGraph g = DepGraph::build(b, low);
    int edges_to_branch = 0;
    for (const auto &e : g.edges())
        edges_to_branch += e.succ == 2;
    EXPECT_EQ(edges_to_branch, 2);
}

TEST(DepGraph, PrioritiesAreCriticalPath)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {
        instr(LOAD, {1}, {2}), // 0: feeds the chain, lat 3
        instr(ADD, {2}, {3}),  // 1
        instr(ADD, {3}, {4}),  // 2
        instr(ADD, {9}, {8}),  // 3: independent
    };
    DepGraph g = DepGraph::build(b, low);
    // height(2) = 1, height(1) = 1 + 1, height(0) = 3 + 2.
    EXPECT_EQ(g.priorities()[0], 5);
    EXPECT_EQ(g.priorities()[1], 2);
    EXPECT_EQ(g.priorities()[2], 1);
    EXPECT_EQ(g.priorities()[3], 1);
}

// ---------------------------------------------------------- ListScheduler

TEST(Scheduler, PacksIndependentOpsByWidth)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    for (int i = 0; i < 4; ++i)
        b.instrs.push_back(instr(ADD, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // 4 independent single-slot ops on a 2-wide machine: 2 cycles.
    EXPECT_EQ(sched.length, 2);
    EXPECT_EQ(stats.ops_scheduled, 4u);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.cycles[2], 1);
    EXPECT_EQ(sched.cycles[3], 1);
}

TEST(Scheduler, HonorsLatency)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 3);
}

TEST(Scheduler, CascadeExecutesSameCycle)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, true)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // The flow-dependent consumer cascades into the same cycle using
    // the dedicated cascade slot.
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.used_cascade[1], 1);
    EXPECT_EQ(sched.length, 1);
}

TEST(Scheduler, NonCascadableWaitsFullLatency)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, false)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[1], 1);
    EXPECT_EQ(sched.used_cascade[1], 0);
}

TEST(Scheduler, CountsAttemptsPerTree)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    for (int i = 0; i < 3; ++i)
        b.instrs.push_back(instr(ADD, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    s.scheduleBlock(b, stats);
    // 2 fit in cycle 0, third fails once then lands in cycle 1: four
    // attempts total on the ADD tree.
    EXPECT_EQ(stats.checks.attempts, 4u);
    uint32_t add_tree = low.opClasses()[ADD].tree;
    EXPECT_EQ(stats.checks.attempts_per_tree[add_tree], 4u);
}

TEST(Scheduler, EmptyBlock)
{
    LowMdes low = twoWide();
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock({}, stats);
    EXPECT_EQ(sched.length, 0);
    EXPECT_EQ(stats.ops_scheduled, 0u);
}

// ----------------------------------------------------------------- Verify

TEST(Verify, AcceptsSchedulerOutput)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3}, true),
                instr(ADD, {3}, {4}, true), instr(ADD, {9}, {5})};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched::verifySchedule(b, sched, low), "");
}

TEST(Verify, RejectsDependenceViolation)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})};
    BlockSchedule bad;
    bad.cycles = {0, 1}; // needs distance 3
    bad.used_cascade = {0, 0};
    bad.length = 2;
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("dependence"),
              std::string::npos);
}

TEST(Verify, RejectsResourceOversubscription)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {3}, {4}),
                instr(ADD, {5}, {6})};
    BlockSchedule bad;
    bad.cycles = {0, 0, 0}; // 3 ops on a 2-wide machine
    bad.used_cascade = {0, 0, 0};
    bad.length = 1;
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("resource"),
              std::string::npos);
}

TEST(Verify, RejectsUnscheduledAndSizeMismatch)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2})};
    BlockSchedule bad;
    bad.cycles = {-1};
    bad.used_cascade = {0};
    EXPECT_NE(sched::verifySchedule(b, bad, low).find("never scheduled"),
              std::string::npos);
    BlockSchedule wrong;
    EXPECT_NE(sched::verifySchedule(b, wrong, low).find("size"),
              std::string::npos);
}

TEST(Verify, RejectsBadIssueOrder)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(ADD, {3}, {4})};
    BlockSchedule bad;
    bad.cycles = {0, 0};
    bad.used_cascade = {0, 0};
    bad.length = 1;

    bad.issue_order = {1, 1}; // repeats an instruction
    sched::VerifyResult v = sched::verifyScheduleEx(b, bad, low);
    EXPECT_EQ(v.fault, sched::VerifyFault::BadIssueOrder);
    EXPECT_EQ(v.instr, 1u);
    EXPECT_EQ(v.message, "issue order is not a permutation of the block");

    bad.issue_order = {0, 2}; // names an instruction outside the block
    v = sched::verifyScheduleEx(b, bad, low);
    EXPECT_EQ(v.fault, sched::VerifyFault::BadIssueOrder);
    EXPECT_EQ(v.instr, 2u);

    bad.issue_order = {1, 0};
    EXPECT_TRUE(sched::verifyScheduleEx(b, bad, low).ok());
}

TEST(Verify, RejectsMissingCascadeTree)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    Block b;
    b.instrs = {instr(ADD, {1}, {2}), instr(LOAD, {3}, {4})};
    BlockSchedule bad;
    bad.cycles = {0, 0};
    bad.used_cascade = {1, 1}; // ADD has a cascade table, LOAD has none
    bad.length = 1;
    sched::VerifyResult v = sched::verifyScheduleEx(b, bad, low);
    EXPECT_EQ(v.fault, sched::VerifyFault::MissingCascadeTree);
    EXPECT_EQ(v.instr, 1u);
    EXPECT_EQ(v.message,
              "instruction 1 claims cascade but has no cascade tree");
}

// ------------------------------------------- Verifier reuse (lockstep)

constexpr std::array<sched::VerifyFault, 6> kFaults = {
    sched::VerifyFault::SizeMismatch,
    sched::VerifyFault::Unscheduled,
    sched::VerifyFault::DependenceViolated,
    sched::VerifyFault::BadIssueOrder,
    sched::VerifyFault::MissingCascadeTree,
    sched::VerifyFault::ResourceConflict,
};

/**
 * Corrupt the valid schedule @p s of @p block so that verification
 * fails with @p fault; false when this block cannot show that fault. A
 * resource conflict is placed mid-replay: instructions before it are
 * already reserved in the RU map and later ones are never replayed.
 */
bool
corrupt(BlockSchedule &s, sched::VerifyFault fault, const Block &block,
        const LowMdes &low)
{
    using sched::VerifyFault;
    const size_t n = block.instrs.size();
    const bool ordered = n >= 3 && s.issue_order.size() == n;
    switch (fault) {
    case VerifyFault::None:
        return false;
    case VerifyFault::SizeMismatch:
        s.used_cascade.push_back(0);
        return true;
    case VerifyFault::Unscheduled:
        s.cycles[n / 2] = -1;
        return true;
    case VerifyFault::DependenceViolated: {
        DepGraph g = DepGraph::build(block, low);
        for (const sched::DepEdge &e : g.edges()) {
            if (e.min_dist > 0 &&
                !(e.cascade_relax && s.used_cascade[e.succ])) {
                s.cycles[e.succ] = s.cycles[e.pred] + e.min_dist - 1;
                return true;
            }
        }
        return false;
    }
    case VerifyFault::BadIssueOrder:
        if (!ordered)
            return false;
        s.issue_order[n - 1] = s.issue_order[0];
        return true;
    case VerifyFault::MissingCascadeTree:
        for (size_t i = 0; i < n; ++i) {
            const auto &cls = low.opClasses()[block.instrs[i].op_class];
            if (cls.cascade_tree == kInvalidId) {
                s.used_cascade[i] = 1;
                return true;
            }
        }
        return false;
    case VerifyFault::ResourceConflict:
        if (!ordered)
            return false;
        for (size_t at = 1; at + 1 < n; ++at) {
            const uint32_t u = s.issue_order[at];
            for (int32_t c = 0; c < s.length; ++c) {
                BlockSchedule t = s;
                t.cycles[u] = c;
                sched::VerifyResult v =
                    sched::verifyScheduleEx(block, t, low);
                if (v.fault == VerifyFault::ResourceConflict &&
                    v.instr == u) {
                    s = std::move(t);
                    return true;
                }
            }
        }
        return false;
    }
    return false;
}

/** Check @p s with the reused @p verifier and with a fresh one-shot
 * verification; the verdicts must agree field for field. */
sched::VerifyResult
verifyInLockstep(sched::Verifier &verifier, const Block &block,
                 const BlockSchedule &s, const LowMdes &low)
{
    sched::VerifyResult reused = verifier.verify(block, s);
    sched::VerifyResult fresh = sched::verifyScheduleEx(block, s, low);
    EXPECT_EQ(reused.fault, fresh.fault)
        << sched::verifyFaultName(reused.fault) << " vs "
        << sched::verifyFaultName(fresh.fault);
    EXPECT_EQ(reused.instr, fresh.instr);
    EXPECT_EQ(reused.message, fresh.message);
    return reused;
}

TEST(Verifier, ReuseMatchesFreshVerificationOnPaperMachines)
{
    std::array<int, kFaults.size()> hits{};
    size_t turn = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        Mdes m = hmdes::compileOrThrow(info->source);
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        LowMdes low = LowMdes::lower(m, lopts);

        sched::Verifier verifier(low);
        ListScheduler list(low);
        sched::BackwardListScheduler backward(low);
        exact::ExactScheduler search(low);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 150;
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            spec.seed = seed;
            sched::Program program = workload::generate(spec, low);
            for (const Block &block : program.blocks) {
                SchedStats stats;
                BlockSchedule ls = list.scheduleBlock(block, stats);
                exact::ExactOptions eopts;
                eopts.time_budget_us = 0; // node budget only: deterministic
                eopts.max_nodes = 2000;
                eopts.incumbent = &ls;
                const BlockSchedule schedules[] = {
                    ls, backward.scheduleBlock(block, stats),
                    search.scheduleBlock(block, stats, eopts).schedule};
                for (const BlockSchedule &s : schedules) {
                    EXPECT_TRUE(
                        verifyInLockstep(verifier, block, s, low).ok())
                        << info->name;
                    // Without an issue order the replay falls back to
                    // (cycle, priority, index) order.
                    BlockSchedule unordered = s;
                    unordered.issue_order.clear();
                    verifyInLockstep(verifier, block, unordered, low);

                    // Interleave one corruption, rotating through the
                    // fault classes this block can show.
                    for (size_t k = 0; k < kFaults.size(); ++k) {
                        const size_t f = turn++ % kFaults.size();
                        BlockSchedule bad = s;
                        if (!corrupt(bad, kFaults[f], block, low))
                            continue;
                        EXPECT_EQ(
                            verifyInLockstep(verifier, block, bad, low)
                                .fault,
                            kFaults[f])
                            << info->name << " "
                            << sched::verifyFaultName(kFaults[f]);
                        ++hits[f];
                        break;
                    }
                }
            }
        }
    }
    for (size_t f = 0; f < kFaults.size(); ++f)
        EXPECT_GT(hits[f], 0) << sched::verifyFaultName(kFaults[f]);
}

// -------------------------------------------------- SuperSPARC integration

TEST(Scheduler, SuperSparcCascadePairsIssueTogether)
{
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    LowMdes low = LowMdes::lower(m, {});
    uint32_t ADD_I = low.findOpClass("ADD_I");

    Block b;
    b.instrs = {instr(ADD_I, {1}, {2}, true),
                instr(ADD_I, {2}, {3}, true)};
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 0);
    EXPECT_EQ(sched.used_cascade[1], 1);
    EXPECT_EQ(sched::verifySchedule(b, sched, low), "");
}

TEST(Scheduler, SuperSparcIssueWidthIsThree)
{
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    LowMdes low = LowMdes::lower(m, {});
    uint32_t ADD_I = low.findOpClass("ADD_I");
    Block b;
    for (int i = 0; i < 6; ++i)
        b.instrs.push_back(instr(ADD_I, {10 + i}, {20 + i}));
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // Six independent IALU ops: 3 decoders but only 2 IALUs and 2 write
    // ports per cycle, so 2 per cycle -> 3 cycles.
    EXPECT_EQ(sched.length, 3);
}

} // namespace
} // namespace mdes

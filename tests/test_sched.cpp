/**
 * @file
 * Scheduler substrate tests: dependence-graph construction (RAW/WAR/WAW,
 * cascade relaxation, branch ordering, priorities), list scheduling
 * against the MDES, cascade selection, the list-scheduling loop in
 * lockstep with a naive reference scheduler (both directions, random
 * and paper machines) and its cycle-bound failure, and schedule
 * verification - each fault class, and a reused Verifier in lockstep
 * with one-shot verification across the paper machines' list, backward
 * and exact schedules and their corruptions.
 */

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/expand.h"
#include "core/transforms.h"
#include "exact/exact_scheduler.h"
#include "fsa/automaton.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "rumap/checker.h"
#include "sched/backward_scheduler.h"
#include "sched/dep_graph.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "test_program.h"
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
using testing::instr;
using testing::oneBlock;

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

// --------------------------------------------------------------- DepGraph

TEST(DepGraph, RawWarWawEdges)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    sched::Program prog = oneBlock({
        instr(LOAD, {1}, {2}), // 0: r2 = load r1
        instr(ADD, {2}, {3}),  // 1: r3 = r2 + ...   RAW 0->1 dist 3
        instr(ADD, {9}, {2}),  // 2: r2 = ...        WAW 0->2, WAR 1->2
    });
    const Block &b = prog.blocks[0];
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
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {2}),              // 0
        instr(ADD, {2}, {3}, true),        // 1: cascadable consumer
        instr(LOAD, {9}, {4}),             // 2
        instr(ADD, {4}, {5}, true),        // 3: load-fed: no relax
    });
    const Block &b = prog.blocks[0];
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
    // Reads and writes the same register, plus a double write.
    sched::Program prog =
        oneBlock({instr(ADD, {1}, {1}), instr(ADD, {2}, {3, 3})});
    const Block &b = prog.blocks[0];
    DepGraph g = DepGraph::build(b, low);
    for (const auto &e : g.edges())
        EXPECT_NE(e.pred, e.succ);
}

TEST(DepGraph, BranchOrderedLast)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t BR = low.findOpClass("BR");
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {2}),
        instr(ADD, {3}, {4}),
        instr(BR, {}, {}, false, true),
    });
    const Block &b = prog.blocks[0];
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
    sched::Program prog = oneBlock({
        instr(LOAD, {1}, {2}), // 0: feeds the chain, lat 3
        instr(ADD, {2}, {3}),  // 1
        instr(ADD, {3}, {4}),  // 2
        instr(ADD, {9}, {8}),  // 3: independent
    });
    const Block &b = prog.blocks[0];
    DepGraph g = DepGraph::build(b, low);
    // height(2) = 1, height(1) = 1 + 1, height(0) = 3 + 2.
    EXPECT_EQ(g.priorities()[0], 5);
    EXPECT_EQ(g.priorities()[1], 2);
    EXPECT_EQ(g.priorities()[2], 1);
    EXPECT_EQ(g.priorities()[3], 1);
}

TEST(DepGraph, CsrListsEveryEdgeOnceAtEachEnd)
{
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        LowMdes low =
            LowMdes::lower(hmdes::compileOrThrow(info->source), {});
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 1500;
        for (sched::DepScope scope :
             {sched::DepScope::Block, sched::DepScope::Loop}) {
            sched::Program program =
                scope == sched::DepScope::Block
                    ? workload::generate(spec, low)
                    : workload::generateLoops(spec, low);
            DepGraph g; // rebuilt per block, as the schedulers do
            for (const Block &block : program.blocks) {
                g.rebuild(block, low, scope);
                const std::vector<sched::DepEdge> &edges = g.edges();
                std::vector<int> in(edges.size()), out(edges.size());
                for (uint32_t u = 0; u < block.instrs.size(); ++u) {
                    for (const sched::DepEdge &e : g.preds(u)) {
                        ASSERT_EQ(e.succ, u);
                        ++in[size_t(&e - edges.data())];
                    }
                    for (const sched::DepEdge &e : g.succs(u)) {
                        ASSERT_EQ(e.pred, u);
                        ++out[size_t(&e - edges.data())];
                    }
                }
                EXPECT_EQ(in, std::vector<int>(edges.size(), 1));
                EXPECT_EQ(out, std::vector<int>(edges.size(), 1));
                std::set<std::tuple<uint32_t, uint32_t, int>> keys;
                for (const sched::DepEdge &e : edges)
                    EXPECT_TRUE(keys.emplace(e.pred, e.succ, e.omega).second)
                        << "duplicate edge " << e.pred << "->" << e.succ;
                EXPECT_TRUE(
                    std::ranges::is_sorted(edges, {}, &sched::DepEdge::succ));
            }
        }
    }
}

// ---------------------------------------------------------- ListScheduler

TEST(Scheduler, PacksIndependentOpsByWidth)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    std::vector<testing::Op> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(instr(ADD, {10 + i}, {20 + i}));
    sched::Program prog = oneBlock(ops);
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})});
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, true)});
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(ADD, {1}, {2}), instr(ADD, {2}, {3}, false)});
    const Block &b = prog.blocks[0];
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
    std::vector<testing::Op> ops;
    for (int i = 0; i < 3; ++i)
        ops.push_back(instr(ADD, {10 + i}, {20 + i}));
    sched::Program prog = oneBlock(ops);
    const Block &b = prog.blocks[0];
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

// ------------------------------------- List loop vs. a reference oracle

/** One scheduling attempt as the resource model saw it. */
struct Attempt
{
    uint32_t tree = 0;
    int32_t cycle = 0;
    bool fit = false;

    bool operator==(const Attempt &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Attempt &a)
{
    return os << "{tree " << a.tree << ", cycle " << a.cycle
              << (a.fit ? ", fit}" : ", conflict}");
}

/**
 * The block's dependence edges, derived pair by pair from the
 * definitions and sharing no code with DepGraph. For each earlier
 * operation p and later operation c:
 *  - RAW: c reads a register whose last writer before c is p, at
 *    flowLatency(p, c); relaxable when c is cascadable and that is 1;
 *  - WAW: c writes a register whose last writer before c is p, at 1;
 *  - WAR: c writes a register p reads with no write to it from p up to
 *    c, at 0;
 *  - control: c is the block's terminating branch, at 0.
 * The strongest of these is the edge (relaxable only if every
 * strongest one is); an operation never depends on itself.
 */
std::vector<sched::DepEdge>
referenceEdges(const Block &block, const LowMdes &low)
{
    const auto &ins = block.instrs;
    auto has = [](std::span<const int32_t> regs, int32_t r) {
        return std::ranges::find(regs, r) != regs.end();
    };
    // Whether an operation in [from, to) writes r.
    auto written = [&](size_t from, size_t to, int32_t r) {
        for (size_t i = from; i < to; ++i) {
            if (has(ins[i].dsts, r))
                return true;
        }
        return false;
    };
    std::vector<sched::DepEdge> edges;
    for (uint32_t c = 0; c < ins.size(); ++c) {
        for (uint32_t p = 0; p < c; ++p) {
            std::optional<sched::DepEdge> edge;
            auto add = [&](int32_t dist, bool relax) {
                if (!edge || dist > edge->min_dist)
                    edge = sched::DepEdge{p, c, dist, relax};
                else if (dist == edge->min_dist)
                    edge->cascade_relax = edge->cascade_relax && relax;
            };
            for (int32_t r : ins[c].srcs) {
                if (has(ins[p].dsts, r) && !written(p + 1, c, r)) {
                    const int32_t lat =
                        low.flowLatency(ins[p].op_class, ins[c].op_class);
                    add(lat, ins[c].cascadable && lat == 1);
                }
            }
            for (int32_t r : ins[c].dsts) {
                if (has(ins[p].dsts, r) && !written(p + 1, c, r))
                    add(1, false);
                if (has(ins[p].srcs, r) && !written(p, c, r))
                    add(0, false);
            }
            if (c + 1 == ins.size() && ins[c].is_branch)
                add(0, false);
            if (edge)
                edges.push_back(*edge);
        }
    }
    return edges;
}

/**
 * Naive reference list scheduler, written from the definition rather
 * than from ListLoop. Walk time t runs 0, 1, 2, ...; forward it is cycle
 * t, backward cycle -t. Every time step it scans all unplaced operations
 * in (priority desc, index asc) order and, from referenceEdges()
 * alone, decides readiness (every operation the walk must place first
 * is placed) and the earliest legal time. Forward, the priority is the
 * critical-path height and a cascadable operation with a cascade table
 * may issue before its full RAW latency on that table; backward, the
 * priority is the depth from the block entry and nothing cascades. Its
 * own checker and RU map decide fits; every attempt is logged.
 * Backward cycles are finally shifted so the earliest issue is cycle 0.
 */
BlockSchedule
referenceSchedule(const Block &block, const LowMdes &low,
                  SchedDirection dir, std::vector<Attempt> &log)
{
    const bool forward = dir == SchedDirection::Forward;
    const size_t n = block.instrs.size();
    BlockSchedule s;
    if (n == 0)
        return s;
    const std::vector<sched::DepEdge> edges = referenceEdges(block, low);
    // The end of an edge the walk places first, and the other end.
    auto first = [&](const sched::DepEdge &e) {
        return forward ? e.pred : e.succ;
    };
    auto then = [&](const sched::DepEdge &e) {
        return forward ? e.succ : e.pred;
    };

    // Height: max(own latency, distance + successor's height). Depth:
    // max(0, predecessor's depth + distance). Relax to a fixed point.
    std::vector<int32_t> prio(n, 0);
    for (size_t u = 0; forward && u < n; ++u)
        prio[u] = low.opClasses()[block.instrs[u].op_class].latency;
    for (bool changed = true; changed;) {
        changed = false;
        for (const sched::DepEdge &e : edges) {
            const int32_t via = prio[then(e)] + e.min_dist;
            if (via > prio[first(e)]) {
                prio[first(e)] = via;
                changed = true;
            }
        }
    }
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return prio[a] > prio[b];
                     });

    rumap::Checker checker(low);
    rumap::RuMap ru;
    rumap::CheckStats stats;
    std::vector<int32_t> time(n, 0);
    std::vector<bool> placed(n, false);
    s.cycles.assign(n, 0);
    s.used_cascade.assign(n, 0);
    for (int32_t t = 0, left = int32_t(n); left > 0; ++t) {
        if (t > 100000) {
            ADD_FAILURE() << "reference scheduler found no schedule";
            return s;
        }
        for (uint32_t u : order) {
            if (placed[u])
                continue;
            bool ready = true;
            int32_t earliest = 0;
            int32_t cascade_earliest = 0;
            for (const sched::DepEdge &e : edges) {
                if (then(e) != u)
                    continue;
                if (!placed[first(e)]) {
                    ready = false;
                    break;
                }
                const int32_t at = time[first(e)];
                earliest = std::max(earliest, at + e.min_dist);
                cascade_earliest = std::max(
                    cascade_earliest, e.cascade_relax ? at : at + e.min_dist);
            }
            if (!ready)
                continue;
            const Instr &in = block.instrs[u];
            const auto &cls = low.opClasses()[in.op_class];
            const bool cascade = forward && in.cascadable &&
                                 cls.cascade_tree != kInvalidId &&
                                 cascade_earliest <= t && t < earliest;
            if (t < earliest && !cascade)
                continue;
            const uint32_t tree = cascade ? cls.cascade_tree : cls.tree;
            const int32_t cycle = forward ? t : -t;
            const bool fit = checker.tryReserve(tree, cycle, ru, stats);
            log.push_back({tree, cycle, fit});
            if (!fit)
                continue;
            placed[u] = true;
            time[u] = t;
            s.cycles[u] = cycle;
            s.used_cascade[u] = cascade ? 1 : 0;
            s.issue_order.push_back(u);
            --left;
        }
    }
    const int32_t shift =
        forward ? 0 : *std::min_element(s.cycles.begin(), s.cycles.end());
    for (int32_t &c : s.cycles)
        c -= shift;
    s.length = *std::max_element(s.cycles.begin(), s.cycles.end()) + 1;
    return s;
}

/**
 * Schedule every block of @p program with the production ListLoop,
 * whose resource model is a checker that records each attempt, and with
 * the reference scheduler; the attempt logs and every BlockSchedule
 * field must agree. The ListScheduler for @p dir must agree too.
 * @return the number of attempts compared.
 */
size_t
expectLoopMatchesReference(const LowMdes &low,
                           const sched::Program &program,
                           SchedDirection dir)
{
    sched::ListLoop loop(low);
    rumap::Checker checker(low);
    rumap::RuMap ru;
    ListScheduler forward(low);
    sched::BackwardListScheduler backward(low);
    ListScheduler &scheduler =
        dir == SchedDirection::Forward ? forward : backward;
    SchedStats stats;
    size_t compared = 0;
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        const Block &block = program.blocks[b];
        std::vector<Attempt> got;
        ru.clear();
        auto reserve = [&](uint32_t tree, int32_t cycle) {
            bool fit = checker.tryReserve(tree, cycle, ru, stats.checks);
            got.push_back({tree, cycle, fit});
            return fit;
        };
        BlockSchedule s =
            dir == SchedDirection::Forward
                ? loop.run<SchedDirection::Forward>(block, stats, reserve)
                : loop.run<SchedDirection::Backward>(block, stats,
                                                     reserve);
        std::vector<Attempt> want;
        BlockSchedule ref = referenceSchedule(block, low, dir, want);
        EXPECT_EQ(got, want);
        EXPECT_EQ(s.cycles, ref.cycles);
        EXPECT_EQ(s.used_cascade, ref.used_cascade);
        EXPECT_EQ(s.length, ref.length);
        EXPECT_EQ(s.issue_order, ref.issue_order);
        EXPECT_EQ(scheduler.scheduleBlock(block, stats), ref);
        if (::testing::Test::HasFailure())
            return compared;
        compared += got.size();
    }
    return compared;
}

/** Lower @p base for every {forward, backward} x {OR, AND/OR} x
 * {no transforms, all (tuned to the walk direction)} configuration and
 * run the lockstep check on @p program in each. @return the number of
 * attempts compared. */
size_t
expectLoopMatchesReferenceEverywhere(const Mdes &base,
                                     const sched::Program &program)
{
    size_t compared = 0;
    for (SchedDirection dir :
         {SchedDirection::Forward, SchedDirection::Backward}) {
        for (bool or_form : {false, true}) {
            for (bool optimized : {false, true}) {
                SCOPED_TRACE(
                    std::string(dir == SchedDirection::Forward
                                    ? "forward"
                                    : "backward") +
                    (or_form ? " OR" : " AND/OR") +
                    (optimized ? " all()" : " none()"));
                Mdes model = or_form ? expandToOrForm(base) : base;
                PipelineConfig config = optimized ? PipelineConfig::all()
                                                  : PipelineConfig::none();
                config.direction = dir;
                runPipeline(model, config);
                lmdes::LowerOptions lopts;
                lopts.pack_bit_vector = optimized;
                LowMdes low = LowMdes::lower(model, lopts);
                compared += expectLoopMatchesReference(low, program, dir);
            }
        }
    }
    return compared;
}

TEST(ListLoop, MatchesReferenceOnRandomMachines)
{
    Rng rng(0x0AC1E);
    size_t compared = 0;
    for (int trial = 0; trial < 12; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        Mdes base = mdes::testing::randomMdes(rng);
        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x5EED + uint64_t(trial), 200);
        sched::Program program =
            workload::generate(spec, LowMdes::lower(base, {}));
        compared += expectLoopMatchesReferenceEverywhere(base, program);
    }
    EXPECT_GT(compared, 10000u);
}

TEST(ListLoop, MatchesReferenceOnPaperMachines)
{
    size_t compared = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes base = hmdes::compileOrThrow(info->source);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 300;
        // Cascadable operations stay in the backward runs, as the
        // service leaves them: the backward walk must ignore them.
        sched::Program program =
            workload::generate(spec, LowMdes::lower(base, {}));
        compared += expectLoopMatchesReferenceEverywhere(base, program);
    }
    EXPECT_GT(compared, 10000u);
}

TEST(ListLoop, ThrowsWhenAnOperationCanNeverIssue)
{
    // Both OR subtrees need the single R instance at time 0, so STUCK
    // fits no cycle: every walk runs into its cycle bound.
    static const char *src = R"(
machine "stuck" {
    resource R[1];
    ortree A { option { use R[0] at 0; } }
    ortree B { option { use R[0] at 0; } }
    table Both = and(A, B);
    operation STUCK { table Both; latency 1; }
}
)";
    LowMdes low = LowMdes::lower(hmdes::compileOrThrow(src), {});
    sched::Program prog = oneBlock({instr(low.findOpClass("STUCK"), {1}, {2})});
    const Block &b = prog.blocks[0];
    auto expectCycleBound = [&](auto &&scheduler) {
        SchedStats stats;
        try {
            scheduler.scheduleBlock(b, stats);
            ADD_FAILURE() << "scheduled an operation that cannot issue";
        } catch (const MdesError &e) {
            EXPECT_NE(std::string(e.what()).find("exceeded cycle bound"),
                      std::string::npos)
                << e.what();
        }
    };
    expectCycleBound(ListScheduler(low));
    expectCycleBound(sched::BackwardListScheduler(low));
    fsa::SchedulerAutomaton automaton(low);
    expectCycleBound(fsa::FsaListScheduler(low, automaton));
}

// ----------------------------------------------------------------- Verify

TEST(Verify, AcceptsSchedulerOutput)
{
    LowMdes low = twoWide();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    sched::Program prog = oneBlock({
        instr(LOAD, {1}, {2}),
        instr(ADD, {2}, {3}, true),
        instr(ADD, {3}, {4}, true),
        instr(ADD, {9}, {5}),
    });
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(LOAD, {1}, {2}), instr(ADD, {2}, {3})});
    const Block &b = prog.blocks[0];
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
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {2}),
        instr(ADD, {3}, {4}),
        instr(ADD, {5}, {6}),
    });
    const Block &b = prog.blocks[0];
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
    sched::Program prog = oneBlock({instr(ADD, {1}, {2})});
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(ADD, {1}, {2}), instr(ADD, {3}, {4})});
    const Block &b = prog.blocks[0];
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
    sched::Program prog =
        oneBlock({instr(ADD, {1}, {2}), instr(LOAD, {3}, {4})});
    const Block &b = prog.blocks[0];
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

    sched::Program prog =
        oneBlock({instr(ADD_I, {1}, {2}, true), instr(ADD_I, {2}, {3}, true)});
    const Block &b = prog.blocks[0];
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
    std::vector<testing::Op> ops;
    for (int i = 0; i < 6; ++i)
        ops.push_back(instr(ADD_I, {10 + i}, {20 + i}));
    sched::Program prog = oneBlock(ops);
    const Block &b = prog.blocks[0];
    ListScheduler s(low);
    SchedStats stats;
    BlockSchedule sched = s.scheduleBlock(b, stats);
    // Six independent IALU ops: 3 decoders but only 2 IALUs and 2 write
    // ports per cycle, so 2 per cycle -> 3 cycles.
    EXPECT_EQ(sched.length, 3);
}

} // namespace
} // namespace mdes

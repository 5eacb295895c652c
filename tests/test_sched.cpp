/**
 * @file
 * Scheduler substrate tests: dependence-graph construction (RAW/WAR/WAW,
 * cascade relaxation, branch ordering, priorities), list scheduling
 * against the MDES, cascade selection, the list-scheduling loop in
 * lockstep with a naive reference scheduler (both directions, random
 * and paper machines) and its cycle-bound failure, and schedule
 * verification - each fault class of the certificate check and of the
 * greedy replay, the def/use dependence check in lockstep with the
 * graph-based reference on single-op mutants, and a reused Verifier in
 * lockstep with a fresh one across the paper machines' list, backward
 * and exact schedules and their corruptions.
 */

#include <algorithm>
#include <array>
#include <map>
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
        if (e.pred == 0 && e.succ == 1) {
            EXPECT_TRUE(e.cascade_relax);
        }
        if (e.pred == 2 && e.succ == 3) {
            EXPECT_FALSE(e.cascade_relax);
        }
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

/** The id of option @p k of OR subtree @p s of AND/OR-tree @p tree. */
uint32_t
optionOf(const LowMdes &low, uint32_t tree, uint32_t s, uint32_t k)
{
    const lmdes::LowTree &t = low.trees()[tree];
    const lmdes::LowOrTree &ot =
        low.orTrees()[low.orRefs()[t.first_or_ref + s]];
    return low.optionRefs()[ot.first_option_ref + k];
}

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
    std::vector<uint32_t> options;
    BlockSchedule sched = s.scheduleBlock(b, stats, &options);
    EXPECT_EQ(sched::verifyScheduleEx(b, sched, low).message, "");
    EXPECT_TRUE(sched::Verifier(low).verify(b, sched, options).ok());
    EXPECT_EQ(options.size(), 4u); // one OR subtree per operation
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
    EXPECT_EQ(sched::verifyScheduleEx(b, bad, low).fault,
              sched::VerifyFault::DependenceViolated);
    sched::VerifyResult v = sched::Verifier(low).verify(b, bad, {});
    EXPECT_EQ(v.fault, sched::VerifyFault::DependenceViolated);
    EXPECT_EQ(v.instr, 1u);
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
    bad.issue_order = {0, 1, 2};
    EXPECT_EQ(sched::verifyScheduleEx(b, bad, low).fault,
              sched::VerifyFault::ResourceConflict);

    // Whichever slots a certificate names, two operations share one.
    const uint32_t tree = low.opClasses()[ADD].tree;
    const uint32_t s0 = optionOf(low, tree, 0, 0);
    const uint32_t s1 = optionOf(low, tree, 0, 1);
    sched::Verifier verifier(low);
    sched::VerifyResult v = verifier.verify(b, bad, std::vector{s0, s1, s0});
    EXPECT_EQ(v.fault, sched::VerifyFault::ResourceConflict);
    EXPECT_EQ(v.instr, 2u);
    v = verifier.verify(b, bad, std::vector{s1, s1, s0});
    EXPECT_EQ(v.fault, sched::VerifyFault::ResourceConflict);
    EXPECT_EQ(v.instr, 1u);
    EXPECT_EQ(v.message,
              "resource conflict: instruction 1 at cycle 0 overlaps an "
              "earlier usage");
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
    EXPECT_EQ(sched::verifyScheduleEx(b, bad, low).fault,
              sched::VerifyFault::Unscheduled);
    BlockSchedule wrong;
    EXPECT_EQ(sched::verifyScheduleEx(b, wrong, low).fault,
              sched::VerifyFault::SizeMismatch);
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

    // The greedy replay is meaningless without the producer's order.
    bad.issue_order.clear();
    v = sched::verifyScheduleEx(b, bad, low);
    EXPECT_EQ(v.fault, sched::VerifyFault::BadIssueOrder);
    EXPECT_EQ(v.instr, kInvalidId);

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
    const uint32_t casc = low.opClasses()[ADD].cascade_tree;
    sched::VerifyResult c = sched::Verifier(low).verify(
        b, bad, std::vector{optionOf(low, casc, 0, 0)});
    EXPECT_EQ(c.fault, v.fault);
    EXPECT_EQ(c.instr, v.instr);
    EXPECT_EQ(c.message, v.message);
}

TEST(Verify, ChecksEachCertifiedOption)
{
    // LOAD reserves an ALU slot and the memory port (two OR subtrees),
    // ADD an ALU slot.
    static const char *src = R"(
machine "certified" {
    resource S[2];
    resource M;
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    ortree Mem { option { use M at 0; } }
    table Alu = AnyS;
    table Ld = and(AnyS, Mem);
    operation ADD { table Alu; latency 1; }
    operation LOAD { table Ld; latency 2; }
}
)";
    LowMdes low = LowMdes::lower(hmdes::compileOrThrow(src), {});
    const uint32_t ADD = low.findOpClass("ADD");
    const uint32_t LOAD = low.findOpClass("LOAD");
    const uint32_t ld = low.opClasses()[LOAD].tree;
    ASSERT_EQ(low.trees()[ld].num_or_trees, 2u);
    const uint32_t s0 = optionOf(low, ld, 0, 0);
    const uint32_t s1 = optionOf(low, ld, 0, 1);
    const uint32_t m = optionOf(low, ld, 1, 0);
    sched::Program prog =
        oneBlock({instr(LOAD, {1}, {2}), instr(ADD, {3}, {4})});
    const Block &b = prog.blocks[0];
    BlockSchedule s;
    s.cycles = {0, 0};
    s.used_cascade = {0, 0};
    s.length = 1;

    sched::Verifier verifier(low);
    auto check = [&](std::vector<uint32_t> options, sched::VerifyFault fault,
                     uint32_t instr) {
        sched::VerifyResult v = verifier.verify(b, s, options);
        EXPECT_EQ(v.fault, fault) << sched::verifyFaultName(v.fault);
        EXPECT_EQ(v.instr, instr);
        EXPECT_EQ(v.ok(), v.message.empty());
    };
    using F = sched::VerifyFault;
    check({s0, m, s1}, F::None, kInvalidId);
    check({s1, m, s0}, F::None, kInvalidId);
    check({s0, m, s0}, F::ResourceConflict, 1);
    check({s0, m, m}, F::OptionNotInSubtree, 1); // M is not an ALU slot
    check({m, m, s1}, F::OptionNotInSubtree, 0);
    check({s0, s1, s1}, F::OptionNotInSubtree, 0); // subtree 1 is Mem
    check({s0, uint32_t(low.options().size()), s1}, F::UnknownOption, 0);
    check({s0, m}, F::CertificateLength, 1);
    check({s0}, F::CertificateLength, 0);
    check({s0, m, s1, s1}, F::CertificateLength, 1);
    check({}, F::CertificateLength, 0);
}

// ------------------------------------------------ Dependence reference

/**
 * The graph-based dependence check the verifier used to run, kept as a
 * reference for its def/use check: rebuild @p graph for @p block and
 * return the successor of the first edge whose distance @p s breaks
 * (a relaxable edge shrinks to zero when its successor cascaded), or
 * kInvalidId when every edge holds.
 */
uint32_t
graphDependenceViolation(DepGraph &graph, const Block &block,
                         const BlockSchedule &s, const LowMdes &low)
{
    graph.rebuild(block, low);
    for (const sched::DepEdge &edge : graph.edges()) {
        int32_t dist = edge.min_dist;
        if (edge.cascade_relax && s.used_cascade[edge.succ])
            dist = 0;
        if (s.cycles[edge.succ] - s.cycles[edge.pred] < dist)
            return edge.succ;
    }
    return kInvalidId;
}

TEST(Verifier, DependenceCheckMatchesTheGraphReference)
{
    size_t mutants = 0, violated = 0, disagreements = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        SCOPED_TRACE(info->name);
        LowMdes low =
            LowMdes::lower(hmdes::compileOrThrow(info->source), {});
        sched::Verifier verifier(low);
        DepGraph graph;
        ListScheduler list(low);
        sched::BackwardListScheduler backward(low);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 3000;
        spec.seed = 20;
        sched::Program program = workload::generate(spec, low);

        // Both must report the same first violated instruction.
        auto compare = [&](const Block &block, const BlockSchedule &s) {
            const uint32_t want =
                graphDependenceViolation(graph, block, s, low);
            const sched::VerifyResult got =
                verifier.verifyDependences(block, s);
            const bool agree =
                want == kInvalidId
                    ? got.ok()
                    : got.fault == sched::VerifyFault::DependenceViolated &&
                          got.instr == want;
            violated += want != kInvalidId;
            if (!agree && ++disagreements <= 5)
                ADD_FAILURE() << "graph says " << want << ", def/use says "
                              << sched::verifyFaultName(got.fault) << " at "
                              << got.instr << ": " << got.message;
        };
        for (const Block &block : program.blocks) {
            SchedStats stats;
            for (const BlockSchedule &s :
                 {list.scheduleBlock(block, stats),
                  backward.scheduleBlock(block, stats)}) {
                compare(block, s);
                for (uint32_t u = 0; u < block.instrs.size(); ++u) {
                    for (int32_t d : {-3, -2, -1, 1, 2, 3}) {
                        if (s.cycles[u] + d < 0)
                            continue;
                        BlockSchedule t = s;
                        t.cycles[u] += d;
                        compare(block, t);
                        ++mutants;
                    }
                }
            }
        }
    }
    EXPECT_EQ(disagreements, 0u);
    EXPECT_GT(mutants, 100000u);
    EXPECT_GT(violated, mutants / 10);
}

// ------------------------------------------- Verifier reuse (lockstep)

/** One way to break a valid schedule or its certificate. */
enum class Corruption
{
    // The schedule: the certificate check and the replay agree.
    Size,
    Unscheduled,
    Dependence,
    CascadeTree,
    // What only the replay reads: its issue order and greedy choices.
    IssueOrder,
    ReplayConflict,
    // The certificate, which only the certificate check reads.
    SharedSlot,
    ForeignOption,
    OtherSubtree,
    ShortCertificate,
    LongCertificate,
};

constexpr std::array<Corruption, 11> kCorruptions = {
    Corruption::Size,         Corruption::Unscheduled,
    Corruption::Dependence,   Corruption::CascadeTree,
    Corruption::IssueOrder,   Corruption::ReplayConflict,
    Corruption::SharedSlot,   Corruption::ForeignOption,
    Corruption::OtherSubtree, Corruption::ShortCertificate,
    Corruption::LongCertificate,
};

/** A check's expected fault and instruction. */
struct Verdict
{
    sched::VerifyFault fault = sched::VerifyFault::None;
    uint32_t instr = kInvalidId;
};

/** What each check must say about a corruption; nullopt when the
 * corruption does not decide it. */
struct Expected
{
    std::optional<Verdict> certificate;
    std::optional<Verdict> replay;
};

/** The tree instruction @p u of @p s issued with. */
uint32_t
issueTree(const Block &block, const BlockSchedule &s, const LowMdes &low,
          uint32_t u)
{
    const auto &cls = low.opClasses()[block.instrs[u].op_class];
    return s.used_cascade[u] ? cls.cascade_tree : cls.tree;
}

/** Where instruction @p u's options start in a block's certificate. */
size_t
optionsStart(const Block &block, const BlockSchedule &s, const LowMdes &low,
             uint32_t u)
{
    size_t at = 0;
    for (uint32_t v = 0; v < u; ++v)
        at += low.trees()[issueTree(block, s, low, v)].num_or_trees;
    return at;
}

/**
 * A naive resource model: every certified option's usages, by absolute
 * RU-map slot, in instruction order. @return the first instruction
 * whose usages meet an earlier one's (or its own), kInvalidId if none.
 */
uint32_t
firstOverlap(const Block &block, const BlockSchedule &s,
             const std::vector<uint32_t> &options, const LowMdes &low)
{
    std::map<int32_t, uint64_t> used;
    size_t next = 0;
    for (uint32_t u = 0; u < block.instrs.size(); ++u) {
        const uint32_t tree = issueTree(block, s, low, u);
        for (uint32_t k = 0; k < low.trees()[tree].num_or_trees; ++k) {
            const lmdes::LowOption &opt = low.options()[options[next++]];
            for (uint32_t c = 0; c < opt.num_checks; ++c) {
                const lmdes::Check &check = low.checks()[opt.first_check + c];
                uint64_t &word =
                    used[s.cycles[u] * int32_t(low.slotWords()) + check.slot];
                if (word & check.mask)
                    return u;
                word |= check.mask;
            }
        }
    }
    return kInvalidId;
}

/**
 * Apply @p kind to the valid schedule @p s of @p block and its
 * certificate @p options; false when this block cannot show it.
 * @p want receives what each check must then report.
 */
bool
corrupt(Corruption kind, BlockSchedule &s, std::vector<uint32_t> &options,
        const Block &block, const LowMdes &low, Expected &want)
{
    using sched::VerifyFault;
    const uint32_t n = uint32_t(block.instrs.size());
    const bool ordered = n >= 3 && s.issue_order.size() == n;
    auto both = [&](VerifyFault fault, uint32_t instr) {
        want = {Verdict{fault, instr}, Verdict{fault, instr}};
        return true;
    };
    auto certificateOnly = [&](VerifyFault fault, uint32_t instr) {
        want = {Verdict{fault, instr}, Verdict{}};
        return true;
    };
    switch (kind) {
    case Corruption::Size:
        s.used_cascade.push_back(0);
        return both(VerifyFault::SizeMismatch, kInvalidId);
    case Corruption::Unscheduled:
        s.cycles[n / 2] = -1;
        return both(VerifyFault::Unscheduled, n / 2);
    case Corruption::Dependence: {
        // Pulling an op earlier can only break the edges into it.
        DepGraph g = DepGraph::build(block, low);
        for (const sched::DepEdge &e : g.edges()) {
            if (e.min_dist > 0 &&
                !(e.cascade_relax && s.used_cascade[e.succ])) {
                s.cycles[e.succ] = s.cycles[e.pred] + e.min_dist - 1;
                return both(VerifyFault::DependenceViolated, e.succ);
            }
        }
        return false;
    }
    case Corruption::CascadeTree:
        for (uint32_t i = 0; i < n; ++i) {
            const auto &cls = low.opClasses()[block.instrs[i].op_class];
            if (cls.cascade_tree == kInvalidId) {
                s.used_cascade[i] = 1;
                return both(VerifyFault::MissingCascadeTree, i);
            }
        }
        return false;
    case Corruption::IssueOrder:
        if (!ordered)
            return false;
        s.issue_order[n - 1] = s.issue_order[0];
        want = {Verdict{},
                Verdict{VerifyFault::BadIssueOrder, s.issue_order[0]}};
        return true;
    case Corruption::ReplayConflict:
        // Mid-replay: instructions before it are already reserved in
        // the RU map and later ones are never replayed. The certificate
        // may still fit.
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
                    want = {std::nullopt,
                            Verdict{VerifyFault::ResourceConflict, u}};
                    return true;
                }
            }
        }
        return false;
    case Corruption::SharedSlot: {
        // One op moved onto another's cycle, keeping its options, with
        // every dependence intact. The replay may pick other options.
        DepGraph g;
        for (uint32_t u = 0; u < n; ++u) {
            for (uint32_t v = 0; v < n; ++v) {
                if (s.cycles[v] == s.cycles[u])
                    continue;
                BlockSchedule t = s;
                t.cycles[u] = s.cycles[v];
                if (graphDependenceViolation(g, block, t, low) != kInvalidId)
                    continue;
                const uint32_t first = firstOverlap(block, t, options, low);
                if (first == kInvalidId)
                    continue;
                s = std::move(t);
                want = {Verdict{VerifyFault::ResourceConflict, first},
                        std::nullopt};
                return true;
            }
        }
        return false;
    }
    case Corruption::ForeignOption:
        options[optionsStart(block, s, low, n / 2)] =
            uint32_t(low.options().size());
        return certificateOnly(VerifyFault::UnknownOption, n / 2);
    case Corruption::OtherSubtree: {
        // The first option of another OR subtree that op n / 2's first
        // subtree does not list.
        const uint32_t u = n / 2;
        const lmdes::LowTree &t = low.trees()[issueTree(block, s, low, u)];
        const uint32_t own_id = low.orRefs()[t.first_or_ref];
        const lmdes::LowOrTree &own = low.orTrees()[own_id];
        const auto listed = low.optionRefs().subspan(own.first_option_ref,
                                                     own.num_options);
        for (uint32_t o = 0; o < low.orTrees().size(); ++o) {
            const lmdes::LowOrTree &other = low.orTrees()[o];
            for (uint32_t k = 0; o != own_id && k < other.num_options;
                 ++k) {
                const uint32_t id =
                    low.optionRefs()[other.first_option_ref + k];
                if (std::find(listed.begin(), listed.end(), id) !=
                    listed.end())
                    continue;
                options[optionsStart(block, s, low, u)] = id;
                return certificateOnly(VerifyFault::OptionNotInSubtree, u);
            }
        }
        return false;
    }
    case Corruption::ShortCertificate:
        options.pop_back();
        return certificateOnly(VerifyFault::CertificateLength, n - 1);
    case Corruption::LongCertificate:
        options.push_back(options.front());
        return certificateOnly(VerifyFault::CertificateLength, n - 1);
    }
    return false;
}

/** Check @p s against @p options with the reused @p verifier and with
 * a fresh one; the verdicts must agree field for field. */
sched::VerifyResult
verifyInLockstep(sched::Verifier &verifier, const Block &block,
                 const BlockSchedule &s, const std::vector<uint32_t> &options,
                 const LowMdes &low)
{
    sched::VerifyResult reused = verifier.verify(block, s, options);
    sched::VerifyResult fresh = sched::Verifier(low).verify(block, s, options);
    EXPECT_EQ(reused.fault, fresh.fault)
        << sched::verifyFaultName(reused.fault) << " vs "
        << sched::verifyFaultName(fresh.fault);
    EXPECT_EQ(reused.instr, fresh.instr);
    EXPECT_EQ(reused.message, fresh.message);
    return reused;
}

/** @p got must match @p want, when the corruption decides it. */
void
expectVerdict(const sched::VerifyResult &got,
              const std::optional<Verdict> &want, const char *check)
{
    if (!want)
        return;
    EXPECT_EQ(got.fault, want->fault)
        << check << ": " << sched::verifyFaultName(got.fault) << " vs "
        << sched::verifyFaultName(want->fault) << ": " << got.message;
    EXPECT_EQ(got.instr, want->instr) << check << ": " << got.message;
}

TEST(Verifier, CatchesEveryCorruptionOnPaperMachines)
{
    std::array<int, kCorruptions.size()> hits{};
    size_t turn = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        SCOPED_TRACE(info->name);
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
                std::vector<uint32_t> list_options, backward_options;
                BlockSchedule ls =
                    list.scheduleBlock(block, stats, &list_options);
                BlockSchedule bs =
                    backward.scheduleBlock(block, stats, &backward_options);
                exact::ExactOptions eopts;
                eopts.time_budget_us = 0; // node budget only: deterministic
                eopts.max_nodes = 2000;
                eopts.incumbent = &ls;
                exact::ExactResult er =
                    search.scheduleBlock(block, stats, eopts);
                if (!er.improved)
                    er.options = list_options;
                const std::pair<const BlockSchedule &,
                                const std::vector<uint32_t> &>
                    certified[] = {{ls, list_options},
                                   {bs, backward_options},
                                   {er.schedule, er.options}};
                for (const auto &[s, options] : certified) {
                    EXPECT_TRUE(
                        verifyInLockstep(verifier, block, s, options, low)
                            .ok());
                    EXPECT_TRUE(sched::verifyScheduleEx(block, s, low).ok());

                    // Interleave one corruption, rotating through the
                    // ones this block can show.
                    for (size_t k = 0; k < kCorruptions.size(); ++k) {
                        const size_t c = turn++ % kCorruptions.size();
                        BlockSchedule bad = s;
                        std::vector<uint32_t> bad_options = options;
                        Expected want;
                        if (!corrupt(kCorruptions[c], bad, bad_options,
                                     block, low, want))
                            continue;
                        SCOPED_TRACE("corruption " + std::to_string(c));
                        expectVerdict(verifyInLockstep(verifier, block, bad,
                                                       bad_options, low),
                                      want.certificate, "certificate");
                        expectVerdict(sched::verifyScheduleEx(block, bad, low),
                                      want.replay, "replay");
                        ++hits[c];
                        break;
                    }
                }
            }
        }
    }
    for (size_t c = 0; c < kCorruptions.size(); ++c)
        EXPECT_GT(hits[c], 0) << "corruption " << c;
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
    EXPECT_EQ(sched::verifyScheduleEx(b, sched, low).message, "");
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

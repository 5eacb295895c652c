/**
 * @file
 * Iterative-modulo-scheduling tests: modulo RU-map behavior, the loop
 * scope of the dependence graph, MII lower bounds, schedule validity,
 * unscheduling, results pinned by content hash, and the paper's
 * prediction that modulo scheduling raises attempts per operation
 * (amplifying the value of efficient constraint checking).
 */

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/transforms.h"
#include "exp/runner.h"
#include "hmdes/compile.h"
#include "machines/machines.h"
#include "rumap/ru_map.h"
#include "sched/modulo_scheduler.h"
#include "sched/verify.h"
#include "test_program.h"
#include "workload/sasm.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using rumap::RuMap;
using sched::Block;
using sched::DepGraph;
using sched::DepScope;
using sched::ModuloSchedule;
using sched::ModuloScheduler;
using sched::SchedStats;
using testing::instr;
using testing::oneBlock;

// ----------------------------------------------------------- Modulo RuMap

TEST(ModuloRuMap, WrapsModuloII)
{
    RuMap ru(4);
    ru.reserve(1, 0b1);
    EXPECT_FALSE(ru.available(1, 0b1));
    EXPECT_FALSE(ru.available(5, 0b1));  // 5 mod 4 == 1
    EXPECT_FALSE(ru.available(-3, 0b1)); // -3 mod 4 == 1
    EXPECT_TRUE(ru.available(2, 0b1));
    EXPECT_EQ(ru.initiationInterval(), 4);
}

TEST(ModuloRuMap, ReleaseUndoesReserve)
{
    RuMap ru(3);
    ru.reserve(7, 0b110); // slot 1
    EXPECT_FALSE(ru.available(1, 0b010));
    ru.release(4, 0b010); // slot 1 again
    EXPECT_TRUE(ru.available(1, 0b010));
    EXPECT_FALSE(ru.available(1, 0b100)); // other bit still held
}

TEST(ModuloRuMap, LinearMapUnchangedByRelease)
{
    RuMap ru;
    ru.reserve(5, 0b1);
    ru.release(5, 0b1);
    EXPECT_TRUE(ru.available(5, 0b1));
    EXPECT_EQ(ru.normalize(12345), 12345);
}

// ------------------------------------------------------- Loop dep graph

LowMdes
pipeMachine()
{
    static const char *src = R"(
machine "pipe" {
    resource S[2];
    resource M;
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    ortree MemU { option { use M at 0; } }
    table Alu = AnyS;
    table Mem = and(MemU, AnyS);
    operation ADD { table Alu; latency 1; }
    operation MULT { table Alu; latency 3; }
    operation LOAD { table Mem; latency 2; }
}
)";
    return LowMdes::lower(hmdes::compileOrThrow(src), {});
}

TEST(DepGraphLoop, FindsLoopCarriedRaw)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    // r1 = r1 + r2 : classic accumulator recurrence.
    sched::Program prog = oneBlock({instr(ADD, {1, 2}, {1})});
    const Block &body = prog.blocks[0];
    DepGraph g = DepGraph::build(body, low, DepScope::Loop);
    bool carried_raw = false;
    for (const auto &e : g.edges())
        carried_raw |= e.omega == 1 && e.min_dist >= 1;
    EXPECT_TRUE(carried_raw);
}

TEST(DepGraphLoop, IndependentIterationsHaveNoCarriedRaw)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    // Reads and writes touch disjoint registers per iteration.
    sched::Program prog =
        oneBlock({instr(ADD, {1, 2}, {3}), instr(ADD, {3, 4}, {5})});
    const Block &body = prog.blocks[0];
    DepGraph g = DepGraph::build(body, low, DepScope::Loop);
    for (const auto &e : g.edges()) {
        if (e.omega == 1) {
            EXPECT_LE(e.min_dist, 1); // WAR/WAW bookkeeping only
        }
    }
}

TEST(DepGraphLoop, CarriedEdgesFollowTheThreeRules)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t MULT = low.findOpClass("MULT");
    uint32_t LOAD = low.findOpClass("LOAD");
    // r1's first writer f is 1 and its last writer l is 3.
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {5}),  // 0: reads r1 before f
        instr(MULT, {9}, {1}), // 1: f
        instr(ADD, {1}, {6}),  // 2: reads r1 between f and l
        instr(LOAD, {1}, {1}), // 3: l, reads r1 too
        instr(ADD, {1}, {7}),  // 4: reads r1 after l
    });
    const Block &body = prog.blocks[0];
    DepGraph g = DepGraph::build(body, low, DepScope::Loop);
    std::map<std::pair<uint32_t, uint32_t>, int32_t> carried;
    for (const auto &e : g.edges()) {
        if (e.omega == 1) {
            EXPECT_TRUE(
                carried.emplace(std::pair(e.pred, e.succ), e.min_dist)
                    .second)
                << "duplicate carried edge " << e.pred << "->" << e.succ;
        }
    }
    const std::map<std::pair<uint32_t, uint32_t>, int32_t> want = {
        {{3, 0}, 2}, // RAW l -> read before f, at LOAD's latency
        {{3, 2}, 2}, // RAW l -> read between f and l (conservative)
        {{3, 3}, 2}, // RAW l -> its own read
        {{3, 1}, 1}, // WAW l -> f, outweighing the WAR of l's read
        {{4, 1}, 0}, // WAR read after l -> f
        {{0, 0}, 1}, // WAW of r5, r6 and r7: each has one writer
        {{2, 2}, 1},
        {{4, 4}, 1},
    };
    EXPECT_EQ(carried, want);
}

TEST(DepGraphLoop, AddsNoControlEdges)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    sched::Program prog = oneBlock({
        instr(ADD, {1}, {2}),
        instr(ADD, {3}, {4}),
        instr(ADD, {}, {}, false, true),
    });
    const Block &body = prog.blocks[0];
    EXPECT_EQ(DepGraph::build(body, low).edges().size(), 2u);
    DepGraph loop = DepGraph::build(body, low, DepScope::Loop);
    for (const auto &e : loop.edges())
        EXPECT_NE(e.succ, 2u);
}

// -------------------------------------------------------------------- MII

TEST(ModuloScheduler, ResMiiBoundsBottleneckResource)
{
    LowMdes low = pipeMachine();
    uint32_t LOAD = low.findOpClass("LOAD");
    ModuloScheduler ms(low);
    // Three loads per iteration through the single memory port.
    std::vector<testing::Op> ops;
    for (int i = 0; i < 3; ++i)
        ops.push_back(instr(LOAD, {1}, {10 + i}));
    sched::Program prog = oneBlock(ops);
    const Block &body = prog.blocks[0];
    EXPECT_GE(ms.resMii(body), 3);
}

TEST(ModuloScheduler, RecMiiBoundsRecurrence)
{
    LowMdes low = pipeMachine();
    uint32_t MULT = low.findOpClass("MULT");
    ModuloScheduler ms(low);
    // r1 = r1 * r2 with 3-cycle latency: RecMII = 3/1 = 3.
    sched::Program prog = oneBlock({instr(MULT, {1, 2}, {1})});
    const Block &body = prog.blocks[0];
    EXPECT_EQ(ms.recMii(body), 3);
}

TEST(ModuloScheduler, RecMiiOneForParallelLoops)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    ModuloScheduler ms(low);
    sched::Program prog = oneBlock({instr(ADD, {1, 2}, {3})});
    const Block &body = prog.blocks[0];
    EXPECT_EQ(ms.recMii(body), 1);
}

// --------------------------------------------------------------- Schedule

TEST(ModuloScheduler, AchievesMiiOnSimpleLoop)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    // load; add; add : 2-wide machine, one memory port -> MII 2
    // (3 ops / 2 slots).
    sched::Program prog = oneBlock({
        instr(LOAD, {1}, {2}),
        instr(ADD, {2, 3}, {4}),
        instr(ADD, {4, 5}, {6}),
    });
    const Block &body = prog.blocks[0];
    ModuloScheduler ms(low);
    SchedStats stats;
    ModuloSchedule sched = ms.schedule(body, stats);
    ASSERT_TRUE(sched.success);
    EXPECT_EQ(sched.ii, 2);
    EXPECT_EQ(sched::Verifier(low).verify(body, sched).message, "");
}

TEST(ModuloScheduler, RecurrenceLimitedLoop)
{
    LowMdes low = pipeMachine();
    uint32_t MULT = low.findOpClass("MULT");
    uint32_t ADD = low.findOpClass("ADD");
    // acc = acc * x (3-cycle recurrence) + independent adds.
    sched::Program prog = oneBlock({
        instr(MULT, {1, 2}, {1}),
        instr(ADD, {3, 4}, {5}),
        instr(ADD, {5, 6}, {7}),
    });
    const Block &body = prog.blocks[0];
    ModuloScheduler ms(low);
    SchedStats stats;
    ModuloSchedule sched = ms.schedule(body, stats);
    ASSERT_TRUE(sched.success);
    EXPECT_EQ(sched.ii, 3); // RecMII dominates
    EXPECT_EQ(sched::Verifier(low).verify(body, sched).message, "");
}

TEST(ModuloScheduler, VerifierCatchesEachViolation)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    uint32_t LOAD = low.findOpClass("LOAD");
    sched::Program prog = oneBlock({
        instr(LOAD, {1}, {2}),
        instr(ADD, {2, 3}, {4}),
        instr(ADD, {4, 5}, {6}),
    });
    const Block &body = prog.blocks[0];
    ModuloScheduler ms(low);
    SchedStats stats;
    const ModuloSchedule good = ms.schedule(body, stats);
    sched::Verifier verifier(low);
    ASSERT_EQ(verifier.verify(body, good).message, "");
    auto expect = [&](const ModuloSchedule &s, sched::VerifyFault fault,
                      uint32_t instr) {
        sched::VerifyResult v = verifier.verify(body, s);
        EXPECT_EQ(v.fault, fault) << v.message;
        EXPECT_EQ(v.instr, instr) << v.message;
    };

    ModuloSchedule s = good;
    s.ii = std::max(s.res_mii, s.rec_mii) - 1;
    expect(s, sched::VerifyFault::IIBelowBound, kInvalidId);
    s = good;
    s.times[1] = s.times[0]; // the load's result is not ready yet
    expect(s, sched::VerifyFault::DependenceViolated, 1);
    // Op 2 certifies op 1's ALU slot one II later: the same modulo slot.
    // The LOAD certifies two options, and each ADD one.
    s = good;
    ASSERT_EQ(s.options.size(), 4u);
    s.options[3] = s.options[2];
    s.times[2] = s.times[1] + s.ii;
    expect(s, sched::VerifyFault::ResourceConflict, 2);
}

TEST(ModuloScheduler, EmptyBody)
{
    LowMdes low = pipeMachine();
    ModuloScheduler ms(low);
    SchedStats stats;
    ModuloSchedule sched = ms.schedule({}, stats);
    EXPECT_TRUE(sched.success);
}

TEST(ModuloScheduler, RealMachineLoopsScheduleAndValidate)
{
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        runPipeline(m, PipelineConfig::all());
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        LowMdes low = LowMdes::lower(m, lopts);

        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 600;
        spec.min_block_size = 4;
        spec.max_block_size = 10;
        sched::Program loops = workload::generateLoops(spec, low);

        ModuloScheduler ms(low);
        SchedStats stats;
        size_t scheduled = 0;
        for (const auto &body : loops.blocks) {
            ModuloSchedule sched = ms.schedule(body, stats);
            ASSERT_TRUE(sched.success);
            ASSERT_EQ(sched::Verifier(low).verify(body, sched).message, "");
            ++scheduled;
        }
        EXPECT_GT(scheduled, 0u);
    }
}

TEST(ModuloScheduler, OptionsCertifyTheFlatSchedule)
{
    // A flat collision is also a same-slot collision mod II, so a legal
    // modulo schedule's options certify its flat issue times too.
    size_t certified = 0;
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        runPipeline(m, PipelineConfig::all());
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        LowMdes low = LowMdes::lower(m, lopts);

        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 2000;
        sched::Program loops = workload::generateLoops(spec, low);
        ModuloScheduler ms(low);
        sched::Verifier verifier(low);
        SchedStats stats;
        for (const auto &body : loops.blocks) {
            ModuloSchedule sched = ms.schedule(body, stats);
            ASSERT_TRUE(sched.success);
            sched::BlockSchedule flat;
            flat.cycles = sched.times;
            flat.used_cascade.assign(body.instrs.size(), 0);
            sched::VerifyResult v = verifier.verify(body, flat, sched.options);
            EXPECT_TRUE(v.ok()) << v.message;
            ++certified;
        }
    }
    EXPECT_GT(certified, 500u);
}

TEST(ModuloScheduler, MoreAttemptsPerOpThanListScheduling)
{
    // The paper (Section 4): "the number of scheduling attempts required
    // per operation can increase significantly with the use of more
    // advanced scheduling techniques such as iterative modulo
    // scheduling" - which is exactly why the transformations matter.
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    runPipeline(m, PipelineConfig::all());
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, lopts);

    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 3000;
    spec.min_block_size = 5;
    spec.max_block_size = 12;

    sched::Program loops = workload::generateLoops(spec, low);
    ModuloScheduler ms(low);
    SchedStats modulo_stats;
    for (const auto &body : loops.blocks)
        ms.schedule(body, modulo_stats);

    exp::RunConfig list_config =
        exp::optimizedConfig(machines::superSparc(), exp::Rep::AndOrTree);
    list_config.num_ops_override = 3000;
    exp::RunResult list_run = exp::run(list_config);

    EXPECT_GT(modulo_stats.avgAttemptsPerOp(),
              list_run.stats.avgAttemptsPerOp());
}

TEST(ModuloScheduler, IdenticalIIAcrossRepresentations)
{
    // Modulo scheduling is checker-driven; both representations must
    // yield the same IIs and schedules.
    const auto &info = machines::superSparc();
    std::vector<int32_t> iis[2];
    int idx = 0;
    for (auto rep : {exp::Rep::OrTree, exp::Rep::AndOrTree}) {
        exp::RunConfig config = exp::optimizedConfig(info, rep);
        config.schedule = false;
        exp::RunResult built = exp::run(config);

        workload::WorkloadSpec spec = info.workload;
        spec.num_ops = 800;
        sched::Program loops = workload::generateLoops(spec, built.low);
        ModuloScheduler ms(built.low);
        SchedStats stats;
        for (const auto &body : loops.blocks) {
            ModuloSchedule sched = ms.schedule(body, stats);
            iis[idx].push_back(sched.success ? sched.ii : -1);
        }
        ++idx;
    }
    EXPECT_EQ(iis[0], iis[1]);
}


// -------------------------------------------------------- Modulo verifier

/** An optimized description, as the service schedules against. */
LowMdes
optimizedLow(const machines::MachineInfo &info)
{
    Mdes m = hmdes::compileOrThrow(info.source);
    runPipeline(m, PipelineConfig::all());
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    return LowMdes::lower(m, lopts);
}

/** What one dependence of a loop body is. */
enum class Dep
{
    Raw,
    War,
    Waw,
    // From one iteration into the next.
    CarriedRaw,
    CarriedWar,
    CarriedWaw,
};

/** t_succ - t_pred >= dist, with t_succ one II later when carried. */
struct Constraint
{
    Dep kind;
    uint32_t pred;
    uint32_t succ;
    int32_t dist;
};

/**
 * The exact dependences of loop body @p body, by a plain scan per
 * register: within one iteration RAW, WAR and WAW as in a flat block;
 * into the next, with first writer f and last writer l, RAW l -> each
 * read at or before f, WAR each read after l -> f, and WAW l -> f.
 */
std::vector<Constraint>
loopConstraints(const Block &body, const LowMdes &low)
{
    const auto &ins = body.instrs;
    std::set<int32_t> regs;
    for (const sched::Instr &in : ins) {
        regs.insert(in.srcs.begin(), in.srcs.end());
        regs.insert(in.dsts.begin(), in.dsts.end());
    }
    auto latency = [&](uint32_t pred, uint32_t succ) {
        return low.flowLatency(ins[pred].op_class, ins[succ].op_class);
    };
    std::vector<Constraint> deps;
    for (int32_t r : regs) {
        uint32_t first = kInvalidId, last = kInvalidId;
        std::vector<uint32_t> before_first, since_last;
        for (uint32_t i = 0; i < ins.size(); ++i) {
            if (std::ranges::count(ins[i].srcs, r)) {
                if (last == kInvalidId)
                    before_first.push_back(i);
                else
                    deps.push_back({Dep::Raw, last, i, latency(last, i)});
                since_last.push_back(i);
            }
            if (std::ranges::count(ins[i].dsts, r)) {
                if (last == kInvalidId)
                    first = i;
                else
                    deps.push_back({Dep::Waw, last, i, 1});
                for (uint32_t reader : since_last)
                    deps.push_back({Dep::War, reader, i, 0});
                last = i;
                since_last.clear();
            }
        }
        if (first == kInvalidId)
            continue;
        for (uint32_t i : before_first)
            deps.push_back({Dep::CarriedRaw, last, i, latency(last, i)});
        for (uint32_t i : since_last)
            deps.push_back({Dep::CarriedWar, i, first, 0});
        deps.push_back({Dep::CarriedWaw, last, first, 1});
    }
    return deps;
}

/** The dependences in @p deps that @p s breaks. */
std::vector<Constraint>
broken(const std::vector<Constraint> &deps, const ModuloSchedule &s)
{
    std::vector<Constraint> out;
    for (const Constraint &c : deps) {
        const int64_t next = c.kind >= Dep::CarriedRaw ? s.ii : 0;
        if (s.times[c.succ] + next - s.times[c.pred] < c.dist)
            out.push_back(c);
    }
    return out;
}

/** Whether some read of @p body falls after a write of its register
 * and at or before another: DepGraph's carried RAW binds such a read,
 * the exact rule does not. */
bool
readsBetweenWriters(const Block &body)
{
    const auto &ins = body.instrs;
    for (uint32_t i = 0; i < ins.size(); ++i) {
        for (int32_t r : ins[i].srcs) {
            bool before = false, after = false;
            for (uint32_t j = 0; j < ins.size(); ++j) {
                if (std::ranges::count(ins[j].dsts, r))
                    (j < i ? before : after) = true;
            }
            if (before && after)
                return true;
        }
    }
    return false;
}

TEST(ModuloVerifier, DependenceCheckMatchesTheGraphReference)
{
    // The reference: every edge of the body's loop-scope DepGraph,
    // t_succ - t_pred >= min_dist - II * omega.
    size_t mutants = 0, violated = 0, disagreements = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        SCOPED_TRACE(info->name);
        LowMdes low = optimizedLow(*info);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 2000;
        sched::Program loops = workload::generateLoops(spec, low);
        ModuloScheduler ms(low);
        sched::Verifier verifier(low);
        SchedStats stats;
        for (const Block &body : loops.blocks) {
            const ModuloSchedule s = ms.schedule(body, stats);
            ASSERT_TRUE(s.success);
            const DepGraph graph = DepGraph::build(body, low, DepScope::Loop);
            // Elsewhere the graph may only be stricter.
            const bool same_rules = !readsBetweenWriters(body);
            auto compare = [&](const ModuloSchedule &t) {
                bool graph_ok = true;
                for (const sched::DepEdge &e : graph.edges())
                    graph_ok &= t.times[e.succ] - t.times[e.pred] >=
                                e.min_dist - t.ii * e.omega;
                const sched::VerifyResult got = verifier.verify(body, t);
                const bool ok =
                    got.fault != sched::VerifyFault::DependenceViolated;
                violated += !graph_ok;
                if (((graph_ok && !ok) || (same_rules && graph_ok != ok)) &&
                    ++disagreements <= 5)
                    ADD_FAILURE() << "graph says " << graph_ok
                                  << ", def/use says " << got.message;
            };
            compare(s);
            for (uint32_t u = 0; u < body.instrs.size(); ++u) {
                for (int32_t d : {-3, -2, -1, 1, 2, 3}) {
                    if (s.times[u] + d < 0)
                        continue;
                    ModuloSchedule t = s;
                    t.times[u] += d;
                    compare(t);
                    ++mutants;
                }
            }
        }
    }
    EXPECT_EQ(disagreements, 0u);
    EXPECT_GT(mutants, 30000u);
    EXPECT_GT(violated, mutants / 10);
}

/** One way to break a valid modulo schedule or its certificate. */
enum class ModuloCorruption
{
    Unsuccessful,
    Size,
    IIBelowBound,
    CarriedRaw,
    CarriedWar,
    CarriedWaw,
    UnknownOption,
    OtherSubtree,
    CollisionModII,
    ShortCertificate,
    LongCertificate,
};

constexpr std::array<ModuloCorruption, 11> kModuloCorruptions = {
    ModuloCorruption::Unsuccessful,     ModuloCorruption::Size,
    ModuloCorruption::IIBelowBound,     ModuloCorruption::CarriedRaw,
    ModuloCorruption::CarriedWar,       ModuloCorruption::CarriedWaw,
    ModuloCorruption::UnknownOption,    ModuloCorruption::OtherSubtree,
    ModuloCorruption::CollisionModII,   ModuloCorruption::ShortCertificate,
    ModuloCorruption::LongCertificate,
};

/** A check's expected fault and instruction. */
struct Verdict
{
    sched::VerifyFault fault = sched::VerifyFault::None;
    uint32_t instr = kInvalidId;
};

/** Where op @p u's options start in a modulo certificate. */
size_t
optionsStart(const Block &body, const LowMdes &low, uint32_t u)
{
    size_t at = 0;
    for (uint32_t v = 0; v < u; ++v) {
        const auto &cls = low.opClasses()[body.instrs[v].op_class];
        at += low.trees()[cls.tree].num_or_trees;
    }
    return at;
}

/**
 * A naive resource model: every certified option's usages by RU-map
 * slot, folded mod @p period words unless it is 0, in op order.
 * @return the first op whose usages meet an earlier one's (or its
 * own), kInvalidId if none.
 */
uint32_t
firstOverlap(const Block &body, const ModuloSchedule &s, const LowMdes &low,
             int64_t period)
{
    std::map<int64_t, uint64_t> used;
    size_t next = 0;
    for (uint32_t u = 0; u < body.instrs.size(); ++u) {
        const auto &cls = low.opClasses()[body.instrs[u].op_class];
        for (uint32_t k = 0; k < low.trees()[cls.tree].num_or_trees; ++k) {
            const lmdes::LowOption &opt = low.options()[s.options[next++]];
            for (uint32_t c = 0; c < opt.num_checks; ++c) {
                const lmdes::Check &check = low.checks()[opt.first_check + c];
                int64_t slot = int64_t(s.times[u]) * low.slotWords() +
                               check.slot;
                if (period)
                    slot = (slot % period + period) % period;
                uint64_t &word = used[slot];
                if (word & check.mask)
                    return u;
                word |= check.mask;
            }
        }
    }
    return kInvalidId;
}

/**
 * Apply @p kind to the valid modulo schedule @p s of @p body, whose
 * exact dependences are @p deps; false when this body cannot show it.
 * @p want receives what the verifier must then report.
 */
bool
corruptModulo(ModuloCorruption kind, ModuloSchedule &s, const Block &body,
              const LowMdes &low, const std::vector<Constraint> &deps,
              Verdict &want)
{
    using sched::VerifyFault;
    const uint32_t n = uint32_t(body.instrs.size());
    if (n == 0)
        return false;
    auto expect = [&](VerifyFault fault, uint32_t instr) {
        want = {fault, instr};
        return true;
    };
    // One op moved by up to II + 3 cycles either way, so that every
    // dependence it breaks is of kind @p dep: the verifier must name
    // the earliest op such a dependence enters, in the next iteration
    // (op n + i).
    auto breakOnly = [&](Dep dep) {
        for (uint32_t u = 0; u < n; ++u) {
            for (int32_t d = -s.ii - 3; d <= s.ii + 3; ++d) {
                if (d == 0 || s.times[u] + d < 0)
                    continue;
                ModuloSchedule t = s;
                t.times[u] += d;
                const std::vector<Constraint> b = broken(deps, t);
                if (b.empty() || std::ranges::any_of(b, [&](auto &c) {
                        return c.kind != dep;
                    }))
                    continue;
                s = std::move(t);
                return expect(VerifyFault::DependenceViolated,
                              n + std::ranges::min(b, {}, &Constraint::succ)
                                      .succ);
            }
        }
        return false;
    };
    switch (kind) {
    case ModuloCorruption::Unsuccessful:
        s.success = false;
        return expect(VerifyFault::Unscheduled, kInvalidId);
    case ModuloCorruption::Size:
        s.times.push_back(0);
        return expect(VerifyFault::SizeMismatch, kInvalidId);
    case ModuloCorruption::IIBelowBound:
        s.ii = std::max(s.res_mii, s.rec_mii) - 1;
        return expect(VerifyFault::IIBelowBound, kInvalidId);
    case ModuloCorruption::CarriedRaw:
        return breakOnly(Dep::CarriedRaw);
    case ModuloCorruption::CarriedWar:
        return breakOnly(Dep::CarriedWar);
    case ModuloCorruption::CarriedWaw:
        return breakOnly(Dep::CarriedWaw);
    case ModuloCorruption::UnknownOption:
        s.options[optionsStart(body, low, n / 2)] =
            uint32_t(low.options().size());
        return expect(VerifyFault::UnknownOption, n / 2);
    case ModuloCorruption::OtherSubtree: {
        // The first option of another OR subtree that op n / 2's first
        // subtree does not list.
        const uint32_t u = n / 2;
        const auto &cls = low.opClasses()[body.instrs[u].op_class];
        const uint32_t own_id =
            low.orRefs()[low.trees()[cls.tree].first_or_ref];
        const lmdes::LowOrTree &own = low.orTrees()[own_id];
        const auto listed = low.optionRefs().subspan(own.first_option_ref,
                                                     own.num_options);
        for (uint32_t o = 0; o < low.orTrees().size(); ++o) {
            const lmdes::LowOrTree &other = low.orTrees()[o];
            for (uint32_t k = 0; o != own_id && k < other.num_options;
                 ++k) {
                const uint32_t id =
                    low.optionRefs()[other.first_option_ref + k];
                if (std::ranges::count(listed, id))
                    continue;
                s.options[optionsStart(body, low, u)] = id;
                return expect(VerifyFault::OptionNotInSubtree, u);
            }
        }
        return false;
    }
    case ModuloCorruption::CollisionModII: {
        // One op moved, every dependence intact, onto usages that
        // overlap only once the slots fold mod II.
        const int64_t period = int64_t(s.ii) * low.slotWords();
        for (uint32_t u = 0; u < n; ++u) {
            for (int32_t d = 1; d < 2 * s.ii; ++d) {
                ModuloSchedule t = s;
                t.times[u] += d;
                if (!broken(deps, t).empty() ||
                    firstOverlap(body, t, low, 0) != kInvalidId)
                    continue;
                const uint32_t first = firstOverlap(body, t, low, period);
                if (first == kInvalidId)
                    continue;
                s = std::move(t);
                return expect(VerifyFault::ResourceConflict, first);
            }
        }
        return false;
    }
    case ModuloCorruption::ShortCertificate:
        s.options.pop_back();
        return expect(VerifyFault::CertificateLength, n - 1);
    case ModuloCorruption::LongCertificate:
        s.options.push_back(s.options.front());
        return expect(VerifyFault::CertificateLength, n - 1);
    }
    return false;
}

TEST(ModuloVerifier, CatchesEveryCorruptionOnPaperMachines)
{
    std::array<int, kModuloCorruptions.size()> hits{};
    size_t turn = 0;
    for (const machines::MachineInfo *info : machines::all()) {
        SCOPED_TRACE(info->name);
        LowMdes low = optimizedLow(*info);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 600;
        sched::Program loops = workload::generateLoops(spec, low);
        ModuloScheduler ms(low);
        sched::Verifier verifier(low);
        SchedStats stats;
        // A reused verifier and a fresh one must agree field for field.
        auto verify = [&](const Block &body, const ModuloSchedule &s) {
            sched::VerifyResult reused = verifier.verify(body, s);
            sched::VerifyResult fresh = sched::Verifier(low).verify(body, s);
            EXPECT_EQ(reused.fault, fresh.fault);
            EXPECT_EQ(reused.instr, fresh.instr);
            EXPECT_EQ(reused.message, fresh.message);
            return reused;
        };
        for (const Block &body : loops.blocks) {
            const ModuloSchedule s = ms.schedule(body, stats);
            ASSERT_TRUE(s.success);
            EXPECT_TRUE(verify(body, s).ok());
            const std::vector<Constraint> deps = loopConstraints(body, low);
            EXPECT_TRUE(broken(deps, s).empty());

            // One corruption per body, rotating through the ones this
            // body can show.
            for (size_t k = 0; k < kModuloCorruptions.size(); ++k) {
                const size_t c = turn++ % kModuloCorruptions.size();
                ModuloSchedule bad = s;
                Verdict want;
                if (!corruptModulo(kModuloCorruptions[c], bad, body, low,
                                   deps, want))
                    continue;
                SCOPED_TRACE("corruption " + std::to_string(c));
                const sched::VerifyResult got = verify(body, bad);
                EXPECT_EQ(got.fault, want.fault)
                    << sched::verifyFaultName(got.fault) << " vs "
                    << sched::verifyFaultName(want.fault) << ": "
                    << got.message;
                EXPECT_EQ(got.instr, want.instr) << got.message;
                ++hits[c];
                break;
            }
        }
    }
    for (size_t c = 0; c < kModuloCorruptions.size(); ++c)
        EXPECT_GT(hits[c], 0) << "corruption " << c;
}

// ---------------------------------------------------------------- Pinning

/**
 * FNV-1a over everything the modulo scheduler reports for each body -
 * success, II, both lower bounds, evictions, issue times and the
 * certificate's options - plus the attempts and resource checks it
 * spent.
 */
uint64_t
moduloHash(const LowMdes &low, const sched::Program &loops)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    ModuloScheduler ms(low);
    SchedStats stats;
    for (const Block &body : loops.blocks) {
        ModuloSchedule s = ms.schedule(body, stats);
        mix(uint64_t(s.success));
        mix(uint32_t(s.ii));
        mix(uint32_t(s.res_mii));
        mix(uint32_t(s.rec_mii));
        mix(s.evictions);
        mix(s.times.size());
        for (int32_t t : s.times)
            mix(uint32_t(t));
        mix(s.options.size());
        for (uint32_t id : s.options)
            mix(id);
    }
    mix(stats.checks.attempts);
    mix(stats.checks.resource_checks);
    return h;
}

/** Expected modulo results for generateLoops streams. A change here
 * changes what every modulo request answers. */
struct PinnedLoops
{
    const char *machine;
    uint64_t seed;
    uint64_t hash;
};

const PinnedLoops kPinnedLoops[] = {
    {"PA7100", 1, 0xe2fe99c9b62a029aULL},
    {"PA7100", 906, 0xe72e0e0a0e0613a8ULL},
    {"Pentium", 1, 0xbc51888d8c00e9f3ULL},
    {"Pentium", 906, 0x0903b7865efb6a45ULL},
    {"SuperSPARC", 1, 0xf442a02cffea41c7ULL},
    {"SuperSPARC", 906, 0x4b8d61eac21778e4ULL},
    {"K5", 1, 0x53b025ff133ab881ULL},
    {"K5", 906, 0x31fbaf11b680a4f9ULL},
};

/** A loop body that ends in a branch: loop scope adds no control edge,
 * so the branch may issue before the body's other operations. */
constexpr const char *kBranchBody = R"(
block
    LD     r10 <- r1
    LD     r11 <- r2
    FMUL   r12 <- r10, r11
    FADD   r20 <- r20, r12
    LD     r13 <- r1
    LD     r14 <- r2
    FMUL   r15 <- r13, r14
    FADD   r20 <- r20, r15
    ADD_I  r1 <- r1      !cascade
    ADD_I  r2 <- r2      !cascade
    SUB_I  r9 <- r9      !cascade
    BPCC   <- r9         !branch
end
)";

constexpr uint64_t kPinnedBranchBody = 0x7748501de9668a0fULL;

TEST(ModuloScheduler, ResultsArePinned)
{
    for (const PinnedLoops &pin : kPinnedLoops) {
        const machines::MachineInfo *info = machines::byName(pin.machine);
        ASSERT_NE(info, nullptr) << pin.machine;
        LowMdes low = optimizedLow(*info);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 2000;
        spec.seed = pin.seed;
        uint64_t got = moduloHash(low, workload::generateLoops(spec, low));
        EXPECT_EQ(got, pin.hash) << pin.machine << " seed " << pin.seed
                                 << std::hex << " got 0x" << got;
    }
    LowMdes low = optimizedLow(machines::superSparc());
    sched::Program body = workload::parseSasmOrThrow(kBranchBody, low);
    ASSERT_TRUE(body.blocks[0].instrs.back().is_branch);
    uint64_t got = moduloHash(low, body);
    EXPECT_EQ(got, kPinnedBranchBody) << std::hex << "got 0x" << got;
}

} // namespace
} // namespace mdes

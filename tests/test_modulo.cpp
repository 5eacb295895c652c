/**
 * @file
 * Iterative-modulo-scheduling tests: modulo RU-map behavior, the loop
 * scope of the dependence graph, MII lower bounds, schedule validity,
 * unscheduling, results pinned by content hash, and the paper's
 * prediction that modulo scheduling raises attempts per operation
 * (amplifying the value of efficient constraint checking).
 */

#include <map>

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
    EXPECT_EQ(sched::verifyModuloSchedule(body, low, sched), "");
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
    EXPECT_EQ(sched::verifyModuloSchedule(body, low, sched), "");
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
    ASSERT_EQ(sched::verifyModuloSchedule(body, low, good), "");

    ModuloSchedule s = good;
    s.ii = std::max(s.res_mii, s.rec_mii) - 1;
    EXPECT_EQ(sched::verifyModuloSchedule(body, low, s),
              "II below its lower bounds");
    s = good;
    s.times[1] = s.times[0]; // the load's result is not ready yet
    EXPECT_EQ(sched::verifyModuloSchedule(body, low, s),
              "dependence violated between operations 0 and 1");
    s = good;
    s.reservations[2] = s.reservations[1];
    EXPECT_EQ(sched::verifyModuloSchedule(body, low, s),
              "modulo resource collision between operations 1 and 2");
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
            ASSERT_EQ(sched::verifyModuloSchedule(body, low, sched), "");
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


// ---------------------------------------------------------------- Pinning

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

/**
 * FNV-1a over everything the modulo scheduler reports for each body -
 * success, II, both lower bounds, evictions, issue times and every
 * reservation - plus the attempts and resource checks it spent.
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
        for (const auto &rs : s.reservations) {
            mix(rs.size());
            for (const rumap::Reservation &r : rs) {
                mix(uint32_t(r.cycle));
                mix(r.mask);
            }
        }
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
    {"PA7100", 1, 0xbd7cc849668d0618ULL},
    {"PA7100", 906, 0x5d1e6ce29121ce0eULL},
    {"Pentium", 1, 0x57706ed9c6b4ab21ULL},
    {"Pentium", 906, 0x663423bddf404996ULL},
    {"SuperSPARC", 1, 0xdf8aebf5f072db4bULL},
    {"SuperSPARC", 906, 0x110246ee298c9a63ULL},
    {"K5", 1, 0xc891abce9aab3ed3ULL},
    {"K5", 906, 0x24b6fc350245c8a5ULL},
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

constexpr uint64_t kPinnedBranchBody = 0x9472fc69da7c8639ULL;

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

/**
 * @file
 * Iterative-modulo-scheduling tests: modulo RU-map behavior, loop
 * dependence graphs, MII lower bounds, schedule validity, unscheduling,
 * and the paper's prediction that modulo scheduling raises attempts per
 * operation (amplifying the value of efficient constraint checking).
 */

#include <gtest/gtest.h>

#include "core/transforms.h"
#include "exp/runner.h"
#include "hmdes/compile.h"
#include "machines/machines.h"
#include "rumap/ru_map.h"
#include "sched/modulo_scheduler.h"
#include "test_program.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;
using rumap::RuMap;
using sched::Block;
using sched::LoopDepGraph;
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

// ----------------------------------------------------------- LoopDepGraph

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

TEST(LoopDepGraph, FindsLoopCarriedRaw)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    // r1 = r1 + r2 : classic accumulator recurrence.
    sched::Program prog = oneBlock({instr(ADD, {1, 2}, {1})});
    const Block &body = prog.blocks[0];
    LoopDepGraph g = LoopDepGraph::build(body, low);
    bool carried_raw = false;
    for (const auto &e : g.edges())
        carried_raw |= e.omega == 1 && e.latency >= 1;
    EXPECT_TRUE(carried_raw);
}

TEST(LoopDepGraph, IndependentIterationsHaveNoCarriedRaw)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    // Reads and writes touch disjoint registers per iteration.
    sched::Program prog =
        oneBlock({instr(ADD, {1, 2}, {3}), instr(ADD, {3, 4}, {5})});
    const Block &body = prog.blocks[0];
    LoopDepGraph g = LoopDepGraph::build(body, low);
    for (const auto &e : g.edges()) {
        if (e.omega == 1)
            EXPECT_LE(e.latency, 1); // WAR/WAW bookkeeping only
    }
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
    LoopDepGraph g = LoopDepGraph::build(body, low);
    EXPECT_EQ(ms.recMii(body, g), 3);
}

TEST(ModuloScheduler, RecMiiOneForParallelLoops)
{
    LowMdes low = pipeMachine();
    uint32_t ADD = low.findOpClass("ADD");
    ModuloScheduler ms(low);
    sched::Program prog = oneBlock({instr(ADD, {1, 2}, {3})});
    const Block &body = prog.blocks[0];
    LoopDepGraph g = LoopDepGraph::build(body, low);
    EXPECT_EQ(ms.recMii(body, g), 1);
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
    LoopDepGraph g = LoopDepGraph::build(body, low);
    EXPECT_EQ(sched::verifyModuloSchedule(body, g, sched), "");
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
    LoopDepGraph g = LoopDepGraph::build(body, low);
    EXPECT_EQ(sched::verifyModuloSchedule(body, g, sched), "");
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
            LoopDepGraph g = LoopDepGraph::build(body, low);
            ASSERT_EQ(sched::verifyModuloSchedule(body, g, sched), "");
            ++scheduled;
        }
        EXPECT_GT(scheduled, 0u);
    }
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

} // namespace
} // namespace mdes

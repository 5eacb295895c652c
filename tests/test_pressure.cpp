/**
 * @file
 * Resource-pressure analysis tests: demand accounting, bottleneck
 * identification, consistency with the modulo scheduler's ResMII, the
 * over-subscription predicate, and soundness (the bound never exceeds a
 * schedule, given multi-cycle busy tails).
 */

#include <gtest/gtest.h>

#include "core/collision.h"
#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "random_mdes.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"
#include "sched/pressure.h"
#include "test_program.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;

LowMdes
sparc()
{
    return LowMdes::lower(
        hmdes::compileOrThrow(machines::superSparc().source), {});
}

/** A block of @p count copies of @p opcode, each reading r1 and
 * writing r2. */
sched::Program
repeated(const LowMdes &low, const char *opcode, int count)
{
    return testing::oneBlock(std::vector<testing::Op>(
        size_t(count), testing::instr(low.findOpClass(opcode), {1}, {2})));
}

TEST(Pressure, SingleInstanceBottleneck)
{
    LowMdes low = sparc();
    // Three loads: the lone memory unit must serve all three.
    sched::Program prog = repeated(low, "LD", 3);
    auto p = sched::analyzePressure(prog.blocks[0], low);
    EXPECT_EQ(p.resource_bound, 3);
    // The bottleneck demand is exactly 3 cycles on one instance.
    EXPECT_DOUBLE_EQ(p.demand[p.bottleneck], 3.0);
}

TEST(Pressure, MultiInstanceResourcesDivideDemand)
{
    LowMdes low = sparc();
    // Four 1-src IALU ops: 2 IALUs, 2 write ports, 4 read ports,
    // 3 decoders -> every instance's guaranteed demand is 0 (the op can
    // always avoid any *specific* instance), so the bound comes only
    // from single-instance resources - of which IALU ops use none.
    sched::Program prog = repeated(low, "ADD_I", 4);
    auto p = sched::analyzePressure(prog.blocks[0], low);
    EXPECT_EQ(p.resource_bound, 0);
}

TEST(Pressure, EmptyBlock)
{
    LowMdes low = sparc();
    auto p = sched::analyzePressure({}, low);
    EXPECT_EQ(p.resource_bound, 0);
    EXPECT_EQ(p.demand.size(), low.numResources());
}

TEST(Pressure, MatchesModuloResMii)
{
    LowMdes low = sparc();
    sched::ModuloScheduler ms(low);
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 400;
    auto loops = workload::generateLoops(spec, low);
    for (const auto &body : loops.blocks) {
        auto p = sched::analyzePressure(body, low);
        EXPECT_EQ(std::max(p.resource_bound, 1), ms.resMii(body));
    }
}

TEST(Pressure, BoundNeverExceedsBusyMakespan)
{
    // Soundness on real machine workloads: resource_bound lower-bounds
    // the *busy makespan* - the issue span plus any multi-cycle unit
    // tail (bounded by the widest option's usage span).
    for (const auto *info : machines::all()) {
        SCOPED_TRACE(info->name);
        Mdes m = hmdes::compileOrThrow(info->source);
        runPipeline(m, PipelineConfig::all());
        int32_t span = maxUsageSpan(m);
        LowMdes low = LowMdes::lower(m, {});
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 2000;
        auto program = workload::generate(spec, low);
        sched::ListScheduler scheduler(low);
        sched::SchedStats stats;
        for (const auto &block : program.blocks) {
            auto p = sched::analyzePressure(block, low);
            auto sched = scheduler.scheduleBlock(block, stats);
            EXPECT_LE(p.resource_bound, sched.length + span);
        }
    }
}

TEST(Pressure, BoundSoundOnRandomMachines)
{
    Rng rng(0x9E55);
    for (int trial = 0; trial < 20; ++trial) {
        Mdes base = mdes::testing::randomMdes(rng);
        int32_t span = maxUsageSpan(base);
        LowMdes low = LowMdes::lower(base, {});
        auto spec = mdes::testing::randomWorkloadSpec(
            base, 0x42 + uint64_t(trial), 200);
        auto program = workload::generate(spec, low);
        sched::ListScheduler scheduler(low);
        sched::SchedStats stats;
        for (const auto &block : program.blocks) {
            auto p = sched::analyzePressure(block, low);
            auto sched = scheduler.scheduleBlock(block, stats);
            ASSERT_LE(p.resource_bound, sched.length + span)
                << "trial " << trial;
        }
    }
}

TEST(Pressure, OversubscriptionPredicate)
{
    LowMdes low = sparc();
    sched::Program prog = repeated(low, "LD", 2);
    const sched::Block &b = prog.blocks[0];
    uint32_t ld = low.findOpClass("LD");
    // Two loads fit a 2-cycle budget; speculating two more does not.
    EXPECT_FALSE(sched::wouldOversubscribe(b, low, ld, 0, 2));
    EXPECT_TRUE(sched::wouldOversubscribe(b, low, ld, 2, 2));
    EXPECT_FALSE(sched::wouldOversubscribe(b, low, ld, 2, 4));
}

} // namespace
} // namespace mdes

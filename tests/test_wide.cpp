/**
 * @file
 * Wide-machine tests: descriptions with more than 64 resource instances
 * (several RU-map words per cycle) must lower, check, schedule,
 * transform, and serialize exactly like narrow ones. A clustered-VLIW
 * style machine with 96 instances exercises the multi-word slot path
 * end to end, including an equivalence check against a logically
 * identical narrow machine.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "rumap/checker.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"
#include "sched/verify.h"
#include "test_program.h"
#include "workload/workload.h"

namespace mdes {
namespace {

using lmdes::LowMdes;

/**
 * A 12-cluster VLIW: each cluster has 4 slots, 2 ALUs, and 2 regfile
 * ports = 96 instances. Pad[n] makes a narrow twin when n is small.
 */
std::string
wideSource(int clusters)
{
    std::ostringstream os;
    os << "machine \"wide\" {\n";
    os << "  resource Slot[" << clusters * 4 << "];\n";
    os << "  resource ALU[" << clusters * 2 << "];\n";
    os << "  resource Port[" << clusters * 2 << "];\n";
    // Cluster 0's trees only, so narrow and wide twins behave alike.
    os << R"(
  ortree Slot0 { for s in 0 .. 3 { option { use Slot[s] at -1; } } }
  ortree Alu0 { for a in 0 .. 1 { option { use ALU[a] at 0; } } }
  ortree Port0 { for p in 0 .. 1 { option { use Port[p] at 1; } } }
  table T = and(Alu0, Port0, Slot0);
  operation ADD { table T; latency 1; }
  operation MUL { table T; latency 3; }
}
)";
    return os.str();
}

TEST(Wide, SlotWordsScaleWithResources)
{
    Mdes narrow = hmdes::compileOrThrow(wideSource(1));
    Mdes wide = hmdes::compileOrThrow(wideSource(12));
    EXPECT_EQ(LowMdes::lower(narrow, {}).slotWords(), 1u);
    EXPECT_EQ(LowMdes::lower(wide, {}).slotWords(), 2u);
}

TEST(Wide, CheckerMatchesNarrowTwin)
{
    // Cluster-0 behavior must be identical whether the machine declares
    // 8 or 96 instances.
    for (bool bv : {false, true}) {
        SCOPED_TRACE(bv ? "bit-vector" : "scalar");
        lmdes::LowerOptions opts;
        opts.pack_bit_vector = bv;
        LowMdes narrow =
            LowMdes::lower(hmdes::compileOrThrow(wideSource(1)), opts);
        LowMdes wide =
            LowMdes::lower(hmdes::compileOrThrow(wideSource(12)), opts);

        rumap::Checker cn(narrow), cw(wide);
        rumap::RuMap rn, rw;
        rumap::CheckStats sn, sw;
        uint32_t tree_n = narrow.opClasses()[0].tree;
        uint32_t tree_w = wide.opClasses()[0].tree;
        // Saturate cycle 0: placements must succeed/fail in lockstep.
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(cn.tryReserve(tree_n, 0, rn, sn),
                      cw.tryReserve(tree_w, 0, rw, sw))
                << "placement " << i;
        }
        EXPECT_EQ(sn.options_checked, sw.options_checked);
    }
}

TEST(Wide, SchedulesLegallyThroughFullPipeline)
{
    Mdes m = hmdes::compileOrThrow(wideSource(12));
    runPipeline(m, PipelineConfig::all());
    lmdes::LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    EXPECT_EQ(low.slotWords(), 2u);

    workload::WorkloadSpec spec;
    spec.seed = 77;
    spec.num_ops = 2000;
    spec.num_regs = 24;
    spec.min_block_size = 4;
    spec.max_block_size = 10;
    spec.classes = {{"ADD", 3.0, 2, 1, false, false},
                    {"MUL", 1.0, 2, 1, false, false}};
    sched::Program program = workload::generate(spec, low);

    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    auto schedules = scheduler.scheduleProgram(program, stats);
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        ASSERT_EQ(sched::verifyScheduleEx(program.blocks[b], schedules[b],
                                          low)
                      .message,
                  "")
            << "block " << b;
    }
    // Cluster 0 has 2 ALUs: at most 2 ops per cycle.
    EXPECT_GE(stats.avgAttemptsPerOp(), 1.0);
}

TEST(Wide, ModuloSchedulingWorks)
{
    Mdes m = hmdes::compileOrThrow(wideSource(12));
    runPipeline(m, PipelineConfig::all());
    LowMdes low = LowMdes::lower(m, {});

    std::vector<testing::Op> ops;
    for (int i = 0; i < 4; ++i)
        ops.push_back(
            testing::instr(low.findOpClass("ADD"), {10 + i}, {20 + i}));
    sched::Program prog = testing::oneBlock(ops);
    const sched::Block &body = prog.blocks[0];
    sched::ModuloScheduler ms(low);
    sched::SchedStats stats;
    auto sched = ms.schedule(body, stats);
    ASSERT_TRUE(sched.success);
    EXPECT_EQ(sched.ii, 2); // 4 ops, 2 cluster-0 ALUs
    EXPECT_EQ(sched::Verifier(low).verify(body, sched).message, "");
}

TEST(Wide, SerializationRoundTrips)
{
    Mdes m = hmdes::compileOrThrow(wideSource(12));
    lmdes::LowerOptions opts;
    opts.pack_bit_vector = true;
    LowMdes low = LowMdes::lower(m, opts);
    std::stringstream buf;
    low.save(buf);
    LowMdes loaded = LowMdes::load(buf);
    EXPECT_EQ(loaded, low);
    EXPECT_EQ(loaded.slotWords(), 2u);
}

} // namespace
} // namespace mdes

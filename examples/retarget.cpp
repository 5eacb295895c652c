/**
 * @file
 * Retargeting walkthrough: the paper's core pitch is that a generic,
 * high-quality scheduler driven by an MDES can be "quickly targeted to a
 * new processor". This example writes a brand-new dual-cluster VLIW
 * description in the high-level language from scratch, compiles it
 * through the full pipeline, and immediately schedules code for it -
 * no compiler changes required.
 *
 * Run: ./build/examples/retarget
 */

#include <cstdio>

#include "core/print.h"
#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"

using namespace mdes;

namespace {

/** A little dual-cluster VLIW nobody has ever built. */
const char *const kVliwSource = R"MDES(
machine "Blackbird-VLIW" {
    // Two clusters, each with 2 issue slots, an ALU pair, and a shared
    // multiplier; one inter-cluster copy bus; a lone memory port.
    resource Slot[4];        // slots 0-1 = cluster A, 2-3 = cluster B
    resource ALU[4];
    resource MUL[2];         // one multiplier per cluster, busy 2 cycles
    resource XBUS;           // inter-cluster copy bus
    resource MEM;

    let FETCH = -1;

    ortree SlotA { for s in 0 .. 1 { option { use Slot[s] at FETCH; } } }
    ortree SlotB { for s in 2 .. 3 { option { use Slot[s] at FETCH; } } }
    ortree AnySlot { for s in 0 .. 3 { option { use Slot[s] at FETCH; } } }
    ortree AluA { for a in 0 .. 1 { option { use ALU[a] at 0; } } }
    ortree AluB { for a in 2 .. 3 { option { use ALU[a] at 0; } } }
    ortree MulA { option { use MUL[0] at 0; use MUL[0] at 1; } }
    ortree MulB { option { use MUL[1] at 0; use MUL[1] at 1; } }
    ortree CopyBus { option { use XBUS at 0; } }
    ortree MemPort { option { use MEM at 0; } }

    table AddA = and(AluA, SlotA);
    table AddB = and(AluB, SlotB);
    table MulTblA = and(MulA, SlotA);
    table MulTblB = and(MulB, SlotB);
    table Copy = and(CopyBus, AnySlot);
    table Mem = and(MemPort, AnySlot);

    operation ADD_A { table AddA; latency 1; note "cluster A add"; }
    operation ADD_B { table AddB; latency 1; note "cluster B add"; }
    operation MUL_A { table MulTblA; latency 3; note "cluster A multiply"; }
    operation MUL_B { table MulTblB; latency 3; note "cluster B multiply"; }
    operation XCOPY { table Copy; latency 1; note "inter-cluster copy"; }
    operation LOAD  { table Mem; latency 2; note "memory load"; }
    operation STORE { table Mem; latency 1; note "memory store"; }
}
)MDES";

/** Append one @p opcode operation to @p builder's open block. */
void
op(sched::ProgramBuilder &builder, const lmdes::LowMdes &low,
   const char *opcode, const std::vector<int32_t> &srcs,
   const std::vector<int32_t> &dsts)
{
    builder.add(low.findOpClass(opcode), srcs, dsts);
}

} // namespace

int
main()
{
    // Compile the fresh description - the only machine-specific input.
    Mdes model = hmdes::compileOrThrow(kVliwSource);
    std::printf("New target '%s' compiled: %u resources, %zu operation "
                "classes, %zu tables.\n",
                model.name().c_str(), model.numResources(),
                model.opClasses().size(), model.trees().size());

    runPipeline(model, PipelineConfig::all());
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
    std::printf("Optimized constraint image: %zu bytes.\n\n",
                low.memory().total());

    // Show the scheduler-facing view of a multiply (2-cycle multiplier).
    std::printf("Cluster-A multiply reservation table:\n%s\n",
                printTree(model,
                          model.opClass(model.findOpClass("MUL_A")).tree)
                    .c_str());

    // Schedule a block that exercises both clusters and the copy bus.
    sched::ProgramBuilder builder;
    op(builder, low, "LOAD", {1}, {10});
    op(builder, low, "MUL_A", {10, 2}, {11});
    op(builder, low, "ADD_A", {11, 3}, {12});
    op(builder, low, "XCOPY", {12}, {20});
    op(builder, low, "MUL_B", {20, 4}, {21});
    op(builder, low, "ADD_B", {21, 5}, {22});
    op(builder, low, "MUL_A", {2, 3}, {13}); // independent work for cluster A
    op(builder, low, "ADD_B", {6, 7}, {23}); // independent work for cluster B
    op(builder, low, "STORE", {22, 8}, {});
    sched::Program program = builder.finish();
    const sched::Block &block = program.blocks[0];
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    sched::BlockSchedule sched = scheduler.scheduleBlock(block, stats);
    sched::VerifyResult check = sched::verifyScheduleEx(block, sched, low);
    if (!check.ok()) {
        std::fprintf(stderr, "schedule invalid: %s\n", check.message.c_str());
        return 1;
    }

    std::printf("Cycle | Ops\n------+----------------------------\n");
    for (int32_t cycle = 0; cycle < sched.length; ++cycle) {
        std::printf("%5d |", cycle);
        for (size_t i = 0; i < block.instrs.size(); ++i) {
            if (sched.cycles[i] == cycle)
                std::printf(" %s",
                            low.opClasses()[block.instrs[i].op_class]
                                .name.c_str());
        }
        std::printf("\n");
    }
    std::printf("\nNote how the back-to-back multiplies on cluster A are\n"
                "separated by the 2-cycle multiplier busy time encoded in\n"
                "the reservation table, with no scheduler changes.\n");
    return 0;
}

/**
 * @file
 * Quickstart: load a shipped machine description (SuperSPARC), translate
 * it to the optimized low-level representation, build a small basic
 * block by hand, schedule it with the MDES-driven list scheduler, and
 * print the annotated schedule - including a cascaded IALU pair landing
 * in the same cycle.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"

using namespace mdes;

namespace {

/** Append one @p opcode operation to @p builder's open block. */
void
op(sched::ProgramBuilder &builder, const lmdes::LowMdes &low,
   const char *opcode, const std::vector<int32_t> &srcs,
   const std::vector<int32_t> &dsts, bool cascadable = false,
   bool is_branch = false)
{
    uint32_t op_class = low.findOpClass(opcode);
    if (op_class == kInvalidId)
        throw MdesError(std::string("unknown opcode ") + opcode);
    builder.add(op_class, srcs, dsts, cascadable, is_branch);
}

} // namespace

int
main()
{
    // 1. Compile the high-level description into the structured model.
    Mdes model = hmdes::compileOrThrow(machines::superSparc().source);
    std::printf("Compiled machine '%s': %u resource instances, %zu "
                "operation classes.\n",
                model.name().c_str(), model.numResources(),
                model.opClasses().size());

    // 2. Run the full transformation pipeline (Sections 5, 7, 8).
    runPipeline(model, PipelineConfig::all());

    // 3. Lower to the packed low-level representation the compiler uses.
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);
    std::printf("Low-level representation: %zu bytes of resource "
                "constraints.\n\n",
                low.memory().total());

    // 4. A small basic block:
    //      r3 = load [r1]        (LD)
    //      r4 = r3 + 8           (ADD_I, flow-dependent on the load)
    //      r5 = r4 + 1           (ADD_I, cascadable: may pair with prev)
    //      r6 = r2 << 3          (SLL_I, independent)
    //      store r5 -> [r2]      (ST)
    //      branch                (BPCC)
    //    A program owns its operations; the block is a view of them.
    sched::ProgramBuilder builder;
    op(builder, low, "LD", {1}, {3});
    op(builder, low, "ADD_I", {3}, {4}, true);
    op(builder, low, "ADD_I", {4}, {5}, true);
    op(builder, low, "SLL_I", {2}, {6});
    op(builder, low, "ST", {5, 2}, {});
    op(builder, low, "BPCC", {5}, {}, false, true);
    sched::Program program = builder.finish();
    const sched::Block &block = program.blocks[0];

    // 5. Schedule and validate.
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    sched::BlockSchedule sched = scheduler.scheduleBlock(block, stats);
    sched::VerifyResult check = sched::verifyScheduleEx(block, sched, low);
    if (!check.ok()) {
        std::fprintf(stderr, "schedule invalid: %s\n", check.message.c_str());
        return 1;
    }

    std::printf("Cycle | Operation\n");
    std::printf("------+--------------------------------\n");
    for (int32_t cycle = 0; cycle < sched.length; ++cycle) {
        for (size_t i = 0; i < block.instrs.size(); ++i) {
            if (sched.cycles[i] != cycle)
                continue;
            std::printf("%5d | %-8s%s\n", cycle,
                        low.opClasses()[block.instrs[i].op_class]
                            .name.c_str(),
                        sched.used_cascade[i]
                            ? "  (cascaded: same cycle as its producer)"
                            : "");
        }
    }
    std::printf("\nSchedule length: %d cycles; %llu scheduling attempts; "
                "%.2f resource checks per attempt.\n",
                sched.length,
                (unsigned long long)stats.checks.attempts,
                stats.checks.avgChecksPerAttempt());
    return 0;
}

/**
 * @file
 * Predication / if-conversion decision demo.
 *
 * The paper's introduction motivates MDES access beyond the scheduler:
 * "transformations such as predication and height reduction also need
 * to use execution constraints to avoid over-subscription of processor
 * resources." This example plays that client: it considers if-converting
 * a hammock (merging the then- and else-sides into one predicated
 * block) on the SuperSPARC, consults the resource-pressure analysis to
 * predict over-subscription, and checks the prediction by scheduling
 * both shapes.
 *
 * Run: ./build/examples/if_conversion
 */

#include <cstdio>

#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/list_scheduler.h"
#include "sched/pressure.h"

using namespace mdes;

namespace {

/** One operation of a hammock side. */
struct Op
{
    const char *opcode;
    std::vector<int32_t> srcs;
    std::vector<int32_t> dsts;
};

/** Append @p ops to @p builder's open block. */
void
append(sched::ProgramBuilder &builder, const lmdes::LowMdes &low,
       const std::vector<Op> &ops)
{
    for (const Op &op : ops)
        builder.add(low.findOpClass(op.opcode), op.srcs, op.dsts);
}

int32_t
lengthOf(const lmdes::LowMdes &low, const sched::Block &block)
{
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    return scheduler.scheduleBlock(block, stats).length;
}

void
report(const lmdes::LowMdes &low, const char *label,
       const sched::Block &block)
{
    auto p = sched::analyzePressure(block, low);
    std::printf("%-28s %2zu ops, resource bound %d cycles "
                "(bottleneck: instance %u, %.0f busy cycles), "
                "scheduled length %d\n",
                label, block.instrs.size(), p.resource_bound,
                p.bottleneck, p.demand[p.bottleneck],
                lengthOf(low, block));
}

} // namespace

int
main()
{
    Mdes model = hmdes::compileOrThrow(machines::superSparc().source);
    runPipeline(model, PipelineConfig::all());
    lmdes::LowerOptions lopts;
    lopts.pack_bit_vector = true;
    lmdes::LowMdes low = lmdes::LowMdes::lower(model, lopts);

    // A memory-heavy hammock: both sides load, combine, and store.
    const std::vector<Op> then_ops = {
        {"LD", {1}, {10}},
        {"ADD_I", {10}, {11}},
        {"ST", {11, 3}, {}},
    };
    const std::vector<Op> else_ops = {
        {"LD", {2}, {12}},
        {"SUB_I", {12}, {13}},
        {"ST", {13, 3}, {}},
    };

    // One block per side, then the if-converted body, which executes
    // both sides predicated.
    sched::ProgramBuilder builder;
    append(builder, low, then_ops);
    builder.endBlock();
    append(builder, low, else_ops);
    builder.endBlock();
    append(builder, low, then_ops);
    append(builder, low, else_ops);
    sched::Program program = builder.finish();
    const sched::Block &then_side = program.blocks[0];
    const sched::Block &else_side = program.blocks[1];
    const sched::Block &merged = program.blocks[2];

    std::printf("If-conversion analysis on the %s (1 memory unit):\n\n",
                low.machineName().c_str());
    report(low, "then-side alone:", then_side);
    report(low, "else-side alone:", else_side);
    report(low, "if-converted body:", merged);

    auto merged_p = sched::analyzePressure(merged, low);
    auto then_p = sched::analyzePressure(then_side, low);
    std::printf(
        "\nThe merged body quadruples traffic on the single memory "
        "unit\n(%0.f busy cycles vs %.0f): the pressure analysis flags "
        "the\nover-subscription *before* any scheduling happens, which "
        "is what a\npredication pass needs to reject the transformation "
        "when the\nbranch is well-predicted.\n",
        merged_p.demand[merged_p.bottleneck],
        then_p.demand[then_p.bottleneck]);

    // The same query, phrased as the client API's predicate: would
    // speculating two more loads into the then-side blow a 3-cycle
    // budget?
    uint32_t ld = low.findOpClass("LD");
    bool blows = sched::wouldOversubscribe(then_side, low, ld, 2, 3);
    std::printf("\nwouldOversubscribe(then-side, +2 loads, budget 3) = "
                "%s\n",
                blows ? "yes - reject the speculation"
                      : "no - safe to speculate");
    return 0;
}

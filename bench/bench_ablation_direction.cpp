/**
 * @file
 * Ablation: scheduler-direction tuning of the Section 7 transformations.
 *
 * "In this manner, the same machine descriptions can be automatically
 * tuned for other types of schedulers by adjusting the heuristic for
 * picking the resource usage time shift constants and for the sorting of
 * the resulting usage checks." This bench schedules every machine with
 * the *backward* list scheduler twice - once with forward-tuned and once
 * with backward-tuned transformations - and reports the check counts.
 */

#include <cstdio>

#include "bench_util.h"
#include "core/transforms.h"
#include "hmdes/compile.h"
#include "sched/backward_scheduler.h"
#include "workload/workload.h"

int
main()
{
    using namespace mdes;
    using namespace mdes::bench;

    printHeader("ablation (Section 7 direction tuning)",
                "forward- vs backward-tuned usage-time shifts under a "
                "backward list scheduler");

    TextTable table;
    table.setHeader({"MDES", "Fwd-tuned Checks/Attempt",
                     "Bwd-tuned Checks/Attempt", "Bwd/Fwd Ratio",
                     "Same Schedule"});

    for (const auto *info : machines::all()) {
        double checks[2];
        std::vector<sched::BlockSchedule> scheds[2];
        for (int pass = 0; pass < 2; ++pass) {
            Mdes m = hmdes::compileOrThrow(info->source);
            PipelineConfig config = PipelineConfig::all();
            config.direction = pass == 0 ? SchedDirection::Forward
                                         : SchedDirection::Backward;
            runPipeline(m, config);
            lmdes::LowerOptions lopts;
            lopts.pack_bit_vector = true;
            lmdes::LowMdes low = lmdes::LowMdes::lower(m, lopts);

            workload::WorkloadSpec spec = info->workload;
            spec.num_ops = 40000;
            sched::Program program = workload::generate(spec, low);
            sched::BackwardListScheduler scheduler(low);
            sched::SchedStats stats;
            scheds[pass] = scheduler.scheduleProgram(program, stats);
            checks[pass] = stats.checks.avgChecksPerAttempt();
        }
        bool same = scheds[0].size() == scheds[1].size();
        for (size_t b = 0; same && b < scheds[0].size(); ++b)
            same = scheds[0][b].cycles == scheds[1][b].cycles;
        table.addRow({
            info->name,
            TextTable::num(checks[0], 2),
            TextTable::num(checks[1], 2),
            TextTable::num(checks[1] / checks[0], 3),
            same ? "yes" : "NO",
        });
    }
    std::printf("%s", table.toString().c_str());
    std::printf(
        "\nMeasured characterization: backward tuning helps machines\n"
        "whose hot options genuinely spread across cycles (the K5's\n"
        "two-dispatch-cycle tables), is neutral where every resource is\n"
        "used at a single time, and can hurt when a rare long busy-tail\n"
        "(the Pentium divide) drags a resource's latest-usage constant\n"
        "away from the common case. Either tuning produces the identical\n"
        "schedule - only the checking cost moves.\n");
    printFootnote();
    return 0;
}

/**
 * @file
 * Exact-scheduler quality bench: proven-optimal rate and schedule
 * length vs. plain list scheduling.
 *
 * For each machine, schedules the standard synthetic workload with the
 * list scheduler, then hands every block (with its list schedule as the
 * incumbent) to the branch-and-bound exact scheduler at the service's
 * default per-block budget (50 ms, 2^20 nodes). Reports how many blocks
 * the search proves optimal, the average optimality gap of the rest,
 * and the total-cycle improvement the exact schedules buy.
 *
 * `--json PATH` records, per machine, a `proven_rate` entry over the
 * blocks of <= 12 operations (gated by a sanity band in the committed
 * baseline: the search must keep proving >= 80% of them; the K5's
 * standard workload also has 13-22-op blocks, reported separately) and
 * a `len_ratio` entry (exact total cycles / list total cycles; <= 1 by
 * construction since the incumbent is never discarded). Both carry the
 * *list* scheduler's fingerprint, so the perf gate also pins the
 * baseline workload and list behavior bit-for-bit.
 */

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/transforms.h"
#include "exact/exact_scheduler.h"
#include "hmdes/compile.h"
#include "perf_json.h"
#include "workload/workload.h"

int
main(int argc, char **argv)
{
    using namespace mdes;
    using namespace mdes::bench;

    std::string json_path = perfjson::stripJsonFlag(argc, argv);

    printHeader("exact scheduler (branch and bound)",
                "proven-optimal rate and schedule-length improvement "
                "vs. list scheduling at 50 ms/block");

    TextTable table;
    table.setHeader({"MDES", "Blocks", "Proven", "Rate", "Rate<=12op",
                     "Avg Gap", "List Cycles", "Exact Cycles",
                     "Improved", "Nodes/Block"});

    static const char *kMachines[] = {"SuperSPARC", "K5", "PA7100"};
    for (const char *name : kMachines) {
        const machines::MachineInfo *info = machines::byName(name);
        Mdes m = hmdes::compileOrThrow(info->source);
        runPipeline(m, PipelineConfig::all());
        lmdes::LowerOptions lopts;
        lopts.pack_bit_vector = true;
        lmdes::LowMdes low = lmdes::LowMdes::lower(m, lopts);

        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 1500;
        sched::Program program = workload::generate(spec, low);

        sched::ListScheduler list(low);
        sched::SchedStats list_stats;
        std::vector<sched::BlockSchedule> list_scheds =
            list.scheduleProgram(program, list_stats);
        uint64_t list_fp = sched::scheduleFingerprint(list_scheds);

        exact::ExactScheduler search(low);
        uint64_t proven = 0, improved = 0, nodes = 0, gap_cycles = 0;
        uint64_t list_total = 0, exact_total = 0;
        uint64_t small = 0, small_proven = 0;
        perfjson::Stopwatch watch;
        watch.start();
        for (size_t b = 0; b < program.blocks.size(); ++b) {
            sched::SchedStats stats;
            exact::ExactOptions opts;
            opts.time_budget_us = 50000;
            opts.incumbent = &list_scheds[b];
            exact::ExactResult er =
                search.scheduleBlock(program.blocks[b], stats, opts);
            proven += er.proven_optimal ? 1 : 0;
            improved += er.improved ? 1 : 0;
            nodes += er.nodes;
            gap_cycles += uint64_t(er.gap());
            list_total += uint64_t(list_scheds[b].length);
            exact_total += uint64_t(er.schedule.length);
            if (program.blocks[b].instrs.size() <= 12) {
                ++small;
                small_proven += er.proven_optimal ? 1 : 0;
            }
        }
        watch.stop();

        size_t blocks = program.blocks.size();
        double rate = blocks ? double(proven) / double(blocks) : 1.0;
        double small_rate =
            small ? double(small_proven) / double(small) : 1.0;
        double len_ratio =
            list_total ? double(exact_total) / double(list_total) : 1.0;
        uint64_t unproven = uint64_t(blocks) - proven;
        table.addRow({
            name,
            std::to_string(blocks),
            std::to_string(proven),
            TextTable::num(100.0 * rate, 1) + "%",
            TextTable::num(100.0 * small_rate, 1) + "%",
            unproven ? TextTable::num(double(gap_cycles)
                                          / double(unproven),
                                      2)
                     : "-",
            std::to_string(list_total),
            std::to_string(exact_total),
            std::to_string(improved),
            std::to_string(blocks ? nodes / blocks : 0),
        });

        double secs = watch.totalSec();
        perfjson::record({std::string("exact/") + name + "/proven_rate",
                          watch.avgMs(),
                          secs > 0 ? double(blocks) / secs : 0,
                          small_rate, list_fp});
        perfjson::record({std::string("exact/") + name + "/len_ratio",
                          watch.avgMs(),
                          secs > 0 ? double(blocks) / secs : 0,
                          len_ratio, list_fp});
    }
    std::printf("%s", table.toString().c_str());
    std::printf(
        "\nMeasured characterization: within the service's default\n"
        "50 ms/block budget the branch-and-bound search proves the list\n"
        "schedule optimal (or finds and proves a shorter one) for the\n"
        "overwhelming majority of basic blocks; the canonical issue-order\n"
        "enumeration plus the critical-path/resource-height bounds do\n"
        "the pruning, and eachSubtreeFits() probing sharpens earliest\n"
        "starts without touching the RU map.\n");
    printFootnote();

    if (!json_path.empty()
        && !perfjson::write(json_path, "exact_scheduler", "exact_rate")) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}

#include "bench_util.h"

#include <cstdio>
#include <map>

namespace mdes::bench {

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::Original: return "original";
      case Stage::Cleaned: return "cleaned (Sec. 5)";
      case Stage::BitVector: return "bit-vector (Sec. 6)";
      case Stage::TimeShifted: return "time-shifted (Sec. 7)";
      case Stage::Full: return "fully optimized (Sec. 8)";
    }
    return "?";
}

exp::RunConfig
stageConfig(const machines::MachineInfo &machine, exp::Rep rep,
            Stage stage)
{
    exp::RunConfig config;
    config.machine = &machine;
    config.rep = rep;
    config.transforms.cse = stage >= Stage::Cleaned;
    config.transforms.redundant_options = stage >= Stage::Cleaned;
    config.bit_vector = stage >= Stage::BitVector;
    config.transforms.time_shift = stage >= Stage::TimeShifted;
    config.transforms.sort_usages = stage >= Stage::TimeShifted;
    config.transforms.hoist = stage >= Stage::Full;
    config.transforms.sort_or_trees = stage >= Stage::Full;
    return config;
}

exp::RunResult
runStage(const machines::MachineInfo &machine, exp::Rep rep, Stage stage)
{
    exp::RunConfig config = stageConfig(machine, rep, stage);
    // Paper accounting: the tables/figures report checks and options
    // per attempt as the paper's engine counted them, so lower without
    // the collision-vector prefilter (identical schedules; see
    // exp::RunConfig::prefilter). The perf benches keep it on.
    config.prefilter = false;
    return exp::run(config);
}

exp::RunResult
runStageSizeOnly(const machines::MachineInfo &machine, exp::Rep rep,
                 Stage stage)
{
    exp::RunConfig config = stageConfig(machine, rep, stage);
    config.prefilter = false;
    config.schedule = false;
    return exp::run(config);
}

std::string
reduction(double before, double after)
{
    if (before <= 0)
        return "-";
    return TextTable::percent((before - after) / before, 1);
}

void
printBreakdown(const machines::MachineInfo &machine,
               const std::vector<PaperBreakdownRow> &paper)
{
    exp::RunResult result =
        runStage(machine, exp::Rep::AndOrTree, Stage::Original);

    // Group scheduling attempts by each tree's expanded option count.
    std::map<uint64_t, uint64_t> attempts_by_options;
    uint64_t total = 0;
    const auto &per_tree = result.stats.checks.attempts_per_tree;
    for (uint32_t t = 0; t < per_tree.size(); ++t) {
        if (per_tree[t] == 0)
            continue;
        attempts_by_options[result.low.expandedOptionCount(t)] +=
            per_tree[t];
        total += per_tree[t];
    }

    TextTable table;
    table.setHeader({"Number of Options", "% Sched. Attempts (paper)",
                     "% Sched. Attempts (measured)",
                     "Operations Modeled"});
    for (const auto &row : paper) {
        uint64_t measured = 0;
        auto it = attempts_by_options.find(row.options);
        if (it != attempts_by_options.end())
            measured = it->second;
        table.addRow({std::to_string(row.options),
                      row.paper_percent < 0
                          ? "(illegible)"
                          : TextTable::percent(row.paper_percent / 100.0,
                                               2),
                      TextTable::percent(double(measured) / double(total),
                                         2),
                      row.description});
    }
    std::printf("%s", table.toString().c_str());
    std::printf("\nTotal operations scheduled: %llu\n",
                (unsigned long long)result.stats.ops_scheduled);
    std::printf("Total scheduling attempts:  %llu (%.2f per operation)\n",
                (unsigned long long)result.stats.checks.attempts,
                result.stats.avgAttemptsPerOp());
}

void
printHeader(const std::string &artifact, const std::string &what)
{
    std::printf("=============================================================="
                "==========\n");
    std::printf("Reproduction of %s: %s\n", artifact.c_str(), what.c_str());
    std::printf("Gyllenhaal, Hwu, Rau, \"Optimization of Machine "
                "Descriptions for Efficient Use\", MICRO-29, 1996\n");
    std::printf("=============================================================="
                "==========\n\n");
}

void
printFootnote()
{
    std::printf(
        "\nNote: \"paper\" columns quote the publication. Absolute values\n"
        "differ (synthetic SPEC CINT92 stand-in workload; documented\n"
        "byte-accounting model); the comparison target is the *shape* -\n"
        "who wins, by what factor, and where the crossovers fall.\n");
}

} // namespace mdes::bench

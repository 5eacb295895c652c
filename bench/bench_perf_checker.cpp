/**
 * @file
 * google-benchmark microbenchmarks of the resource-constraint checker:
 * tryReserve throughput per machine, representation, and optimization
 * stage. This is the wall-clock counterpart of the paper's
 * checks-per-attempt tables - fewer probes means faster scheduling.
 *
 * `--json <path>` additionally writes machine-readable results
 * (wall time, attempts/sec, checks/attempt, and a fingerprint of the
 * checker's decisions) for CI regression gating; see perf_json.h.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "perf_json.h"
#include "rumap/checker.h"
#include "support/fnv.h"
#include "workload/workload.h"

namespace {

using namespace mdes;
using namespace mdes::bench;

/** Hash every decision of the fixed probe set: outcome and chosen
 * options per attempt, then the resulting RU-map window. */
uint64_t
checkerFingerprint(rumap::Checker &checker, const lmdes::LowMdes &low)
{
    rumap::RuMap ru;
    rumap::CheckStats stats;
    std::vector<uint32_t> chosen;
    uint64_t h = fnv::kOffsetBasis;
    for (int cycle = 0; cycle < 32; ++cycle) {
        for (const auto &oc : low.opClasses()) {
            bool ok = checker.tryReserve(oc.tree, cycle, ru, stats,
                                         &chosen);
            fnv::mixU64(h, ok ? 1 : 0);
            if (ok)
                for (uint32_t id : chosen)
                    fnv::mixU64(h, id);
        }
    }
    for (int32_t s = 0; s < int32_t(ru.windowSize()); ++s)
        fnv::mixU64(h, ru.wordSlot(ru.windowBase() + s));
    return h;
}

void
checkerThroughput(benchmark::State &state, const std::string &name,
                  const machines::MachineInfo &m, exp::Rep rep,
                  Stage stage)
{
    exp::RunConfig config = stageConfig(m, rep, stage);
    config.schedule = false;
    exp::RunResult built = exp::run(config);

    // A fixed probe set: every operation class attempted over a window
    // of cycles against a progressively filling RU map.
    rumap::Checker checker(built.low);
    rumap::CheckStats stats;
    uint64_t attempts = 0;
    perfjson::Stopwatch watch;
    for (auto _ : state) {
        watch.start();
        rumap::RuMap ru;
        for (int cycle = 0; cycle < 32; ++cycle) {
            for (const auto &oc : built.low.opClasses()) {
                checker.tryReserve(oc.tree, cycle, ru, stats);
                ++attempts;
            }
        }
        watch.stop();
    }
    state.SetItemsProcessed(int64_t(attempts));
    double checks_per_attempt =
        stats.attempts
            ? double(stats.resource_checks) / double(stats.attempts)
            : 0;
    state.counters["checks/attempt"] = checks_per_attempt;

    perfjson::record(
        {name, watch.avgMs(),
         watch.totalSec() > 0 ? double(attempts) / watch.totalSec() : 0,
         checks_per_attempt, checkerFingerprint(checker, built.low)});
}

void
registerAll()
{
    for (const auto *m : machines::all()) {
        for (auto rep : {exp::Rep::OrTree, exp::Rep::AndOrTree}) {
            for (Stage stage : {Stage::Original, Stage::Full}) {
                std::string name = "checker/" + m->name + "/" +
                                   (rep == exp::Rep::OrTree ? "or"
                                                            : "andor") +
                                   "/" +
                                   (stage == Stage::Original ? "original"
                                                             : "full");
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [name, m, rep, stage](benchmark::State &state) {
                        checkerThroughput(state, name, *m, rep, stage);
                    });
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path = perfjson::stripJsonFlag(argc, argv);
    registerAll();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (!json_path.empty() &&
        !perfjson::write(json_path, "perf_checker", "checks_per_attempt")) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    benchmark::Shutdown();
    return 0;
}

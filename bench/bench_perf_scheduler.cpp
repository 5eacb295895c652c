/**
 * @file
 * google-benchmark microbenchmarks of end-to-end list scheduling: wall
 * clock per scheduled operation across machines, representations, and
 * optimization stages, walking each block forward (`schedule/...`) and
 * backward (`schedule-backward/...`). Demonstrates the paper's bottom
 * line - the fully optimized AND/OR representation makes exact
 * constraint modeling cheap enough for production compile times.
 *
 * `--json <path>` additionally writes machine-readable results
 * (wall time, ops/sec, checks/op, and the schedule fingerprint) for CI
 * regression gating; see perf_json.h.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "perf_json.h"
#include "sched/backward_scheduler.h"
#include "sched/list_scheduler.h"
#include "workload/workload.h"

namespace {

using namespace mdes;
using namespace mdes::bench;

template <class Scheduler>
void
schedulerThroughput(benchmark::State &state, const std::string &name,
                    const machines::MachineInfo &m, exp::Rep rep,
                    Stage stage)
{
    exp::RunConfig config = stageConfig(m, rep, stage);
    config.schedule = false;
    exp::RunResult built = exp::run(config);

    workload::WorkloadSpec spec = m.workload;
    spec.num_ops = 20000;
    sched::Program program = workload::generate(spec, built.low);

    uint64_t ops = 0;
    uint64_t fingerprint = 0;
    double checks_per_op = 0;
    perfjson::Stopwatch watch;
    for (auto _ : state) {
        watch.start();
        Scheduler scheduler(built.low);
        sched::SchedStats stats;
        auto schedules = scheduler.scheduleProgram(program, stats);
        watch.stop();
        ops += stats.ops_scheduled;
        // Deterministic: identical every iteration.
        fingerprint = sched::scheduleFingerprint(schedules);
        checks_per_op = stats.ops_scheduled
                            ? double(stats.checks.resource_checks) /
                                  double(stats.ops_scheduled)
                            : 0;
    }
    state.SetItemsProcessed(int64_t(ops));
    state.counters["checks/op"] = checks_per_op;

    perfjson::record(
        {name, watch.avgMs(),
         watch.totalSec() > 0 ? double(ops) / watch.totalSec() : 0,
         checks_per_op, fingerprint});
}

template <class Scheduler>
void
registerAll(const std::string &prefix)
{
    for (const auto *m : machines::all()) {
        for (auto rep : {exp::Rep::OrTree, exp::Rep::AndOrTree}) {
            for (Stage stage : {Stage::Original, Stage::Full}) {
                std::string name = prefix + "/" + m->name + "/" +
                                   (rep == exp::Rep::OrTree ? "or"
                                                            : "andor") +
                                   "/" +
                                   (stage == Stage::Original ? "original"
                                                             : "full");
                benchmark::RegisterBenchmark(
                    name.c_str(),
                    [name, m, rep, stage](benchmark::State &state) {
                        schedulerThroughput<Scheduler>(state, name, *m,
                                                       rep, stage);
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
    registerAll<sched::ListScheduler>("schedule");
    registerAll<sched::BackwardListScheduler>("schedule-backward");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    if (!json_path.empty() &&
        !perfjson::write(json_path, "perf_scheduler", "checks_per_op")) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    benchmark::Shutdown();
    return 0;
}

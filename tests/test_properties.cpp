/**
 * @file
 * Cross-configuration property tests - the paper's central invariant
 * (Section 4): every representation and every transformation set
 * preserves all execution constraints, so the multi-platform list
 * scheduler produces the *identical schedule* in every configuration;
 * only representation size and check counts change.
 *
 * Parameterized over machine x representation x transformation level x
 * bit-vector packing.
 */

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "sched/verify.h"
#include "workload/workload.h"

namespace mdes {
namespace {

/** Cumulative transformation levels, in the paper's section order. */
enum class Level {
    None,          // original
    Cse,           // Section 5: CSE + copy propagation + dead code
    Redundant,     // Section 5: + redundant-option removal
    TimeShift,     // Section 7: + usage-time shift + usage sorting
    All,           // Section 8: + hoisting + OR-subtree sorting
};

PipelineConfig
configFor(Level level)
{
    PipelineConfig c;
    c.cse = level >= Level::Cse;
    c.redundant_options = level >= Level::Redundant;
    c.time_shift = level >= Level::TimeShift;
    c.sort_usages = level >= Level::TimeShift;
    c.hoist = level >= Level::All;
    c.sort_or_trees = level >= Level::All;
    return c;
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::None: return "none";
      case Level::Cse: return "cse";
      case Level::Redundant: return "redundant";
      case Level::TimeShift: return "timeshift";
      case Level::All: return "all";
    }
    return "?";
}

struct Param
{
    const machines::MachineInfo *machine;
    exp::Rep rep;
    Level level;
    bool bit_vector;
};

std::vector<Param>
allParams()
{
    std::vector<Param> params;
    auto lineup = machines::all();
    lineup.push_back(&machines::pentiumPro()); // the extension machine
    for (const auto *m : lineup) {
        for (exp::Rep rep : {exp::Rep::OrTree, exp::Rep::AndOrTree}) {
            for (Level level : {Level::None, Level::Cse, Level::Redundant,
                                Level::TimeShift, Level::All}) {
                for (bool bv : {false, true})
                    params.push_back({m, rep, level, bv});
            }
        }
    }
    return params;
}

std::string
paramName(const testing::TestParamInfo<Param> &info)
{
    const Param &p = info.param;
    std::string name = p.machine->name;
    name += p.rep == exp::Rep::OrTree ? "_or_" : "_andor_";
    name += levelName(p.level);
    name += p.bit_vector ? "_bv" : "_nobv";
    return name;
}

/** Workload size for the property sweep (full size is for benches). */
constexpr size_t kTestOps = 12000;

exp::RunResult
runParam(const Param &p)
{
    exp::RunConfig config;
    config.machine = p.machine;
    config.rep = p.rep;
    config.transforms = configFor(p.level);
    config.bit_vector = p.bit_vector;
    config.num_ops_override = kTestOps;
    return exp::run(config);
}

/** Baseline schedules per machine, computed once. */
const std::vector<sched::BlockSchedule> &
baselineSchedules(const machines::MachineInfo &machine)
{
    static std::map<std::string, std::vector<sched::BlockSchedule>> cache;
    auto it = cache.find(machine.name);
    if (it == cache.end()) {
        Param base{&machine, exp::Rep::AndOrTree, Level::None, false};
        it = cache.emplace(machine.name, runParam(base).schedules).first;
    }
    return it->second;
}

class ScheduleInvariance : public testing::TestWithParam<Param>
{
};

TEST_P(ScheduleInvariance, IdenticalScheduleEverywhere)
{
    const Param &p = GetParam();
    exp::RunResult result = runParam(p);
    const auto &baseline = baselineSchedules(*p.machine);

    ASSERT_EQ(result.schedules.size(), baseline.size());
    for (size_t b = 0; b < baseline.size(); ++b) {
        ASSERT_EQ(result.schedules[b].cycles, baseline[b].cycles)
            << "block " << b << " scheduled differently";
        ASSERT_EQ(result.schedules[b].used_cascade,
                  baseline[b].used_cascade)
            << "block " << b << " cascaded differently";
    }
}

TEST_P(ScheduleInvariance, SchedulesAreLegal)
{
    const Param &p = GetParam();
    exp::RunConfig config;
    config.machine = p.machine;
    config.rep = p.rep;
    config.transforms = configFor(p.level);
    config.bit_vector = p.bit_vector;
    config.num_ops_override = kTestOps;

    exp::RunResult result = exp::run(config);

    // Re-generate the same workload to pair blocks with schedules.
    workload::WorkloadSpec spec = p.machine->workload;
    spec.num_ops = kTestOps;
    sched::Program program = workload::generate(spec, result.low);
    ASSERT_EQ(program.blocks.size(), result.schedules.size());

    // Verifying every block is affordable at this size.
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        std::string problem =
            sched::verifyScheduleEx(program.blocks[b], result.schedules[b],
                                    result.low)
                .message;
        ASSERT_EQ(problem, "") << "block " << b;
    }
}

TEST_P(ScheduleInvariance, ModelStaysValid)
{
    const Param &p = GetParam();
    exp::RunConfig config;
    config.machine = p.machine;
    config.rep = p.rep;
    config.transforms = configFor(p.level);
    config.bit_vector = p.bit_vector;
    config.schedule = false;
    exp::RunResult result = exp::run(config);
    EXPECT_EQ(result.mid.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ScheduleInvariance,
                         testing::ValuesIn(allParams()), paramName);

// ---------------------------------------------------------------------
// Monotonicity of the aggregate effects (Tables 14 and 15): the fully
// optimized representation is never larger and never checks more than
// the original, for every machine and both representations.
// ---------------------------------------------------------------------

struct MonoParam
{
    const machines::MachineInfo *machine;
    exp::Rep rep;
};

class AggregateMonotonicity : public testing::TestWithParam<MonoParam>
{
};

TEST_P(AggregateMonotonicity, OptimizedNeverWorse)
{
    const MonoParam &p = GetParam();

    exp::RunConfig original = exp::originalConfig(*p.machine, p.rep);
    original.num_ops_override = kTestOps;
    exp::RunConfig optimized = exp::optimizedConfig(*p.machine, p.rep);
    optimized.num_ops_override = kTestOps;

    exp::RunResult before = exp::run(original);
    exp::RunResult after = exp::run(optimized);

    EXPECT_LE(after.memory.total(), before.memory.total());
    EXPECT_LE(after.stats.checks.resource_checks,
              before.stats.checks.resource_checks);
    // Hoisting adds a one-option subtree whose probe counts as an extra
    // option checked on successful attempts - the paper's Section 8
    // caveat ("can actually increase the number of resource checks");
    // its application heuristics keep the effect marginal, so allow 1%.
    EXPECT_LE(double(after.stats.checks.options_checked),
              double(before.stats.checks.options_checked) * 1.01);
    // Identical scheduling work regardless of representation details.
    EXPECT_EQ(after.stats.checks.attempts, before.stats.checks.attempts);
    EXPECT_EQ(after.stats.ops_scheduled, before.stats.ops_scheduled);
    EXPECT_EQ(after.stats.total_schedule_length,
              before.stats.total_schedule_length);
}

std::vector<MonoParam>
monoParams()
{
    std::vector<MonoParam> params;
    auto lineup = machines::all();
    lineup.push_back(&machines::pentiumPro());
    for (const auto *m : lineup) {
        params.push_back({m, exp::Rep::OrTree});
        params.push_back({m, exp::Rep::AndOrTree});
    }
    return params;
}

std::string
monoName(const testing::TestParamInfo<MonoParam> &info)
{
    return info.param.machine->name +
           (info.param.rep == exp::Rep::OrTree ? "_or" : "_andor");
}

INSTANTIATE_TEST_SUITE_P(AllMachines, AggregateMonotonicity,
                         testing::ValuesIn(monoParams()), monoName);

} // namespace
} // namespace mdes

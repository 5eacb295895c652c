#include "sched/list_scheduler.h"

namespace mdes::sched {

BlockSchedule
ListScheduler::scheduleBlock(const Block &block, SchedStats &stats)
{
    stats.checks.sizeFor(checker_.low());
    ru_.clear();
    auto reserve = [&](uint32_t tree, int32_t cycle) {
        return checker_.tryReserve(tree, cycle, ru_, stats.checks);
    };
    if (direction_ == SchedDirection::Forward)
        return loop_.run<SchedDirection::Forward>(block, stats, reserve);
    return loop_.run<SchedDirection::Backward>(block, stats, reserve);
}

std::vector<BlockSchedule>
ListScheduler::scheduleProgram(const Program &program, SchedStats &stats)
{
    std::vector<BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks)
        schedules.push_back(scheduleBlock(block, stats));
    return schedules;
}

} // namespace mdes::sched

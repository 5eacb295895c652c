#include "sched/list_scheduler.h"

#include "support/fnv.h"

namespace mdes::sched {

uint64_t
scheduleFingerprint(const std::vector<BlockSchedule> &schedules)
{
    uint64_t h = fnv::kOffsetBasis;
    for (const auto &s : schedules) {
        fnv::mixU64(h, uint64_t(s.length));
        for (int32_t c : s.cycles)
            fnv::mixU64(h, uint64_t(uint32_t(c)));
        for (uint8_t u : s.used_cascade)
            fnv::mixU64(h, u);
    }
    return h;
}

BlockSchedule
ListScheduler::scheduleBlock(const Block &block, SchedStats &stats,
                             std::vector<uint32_t> *options)
{
    stats.checks.sizeFor(checker_.low());
    ru_.clear();
    auto reserve = [&](uint32_t tree, int32_t cycle) {
        return checker_.tryReserve(tree, cycle, ru_, stats.checks);
    };
    if (!options) {
        if (direction_ == SchedDirection::Forward)
            return loop_.run<SchedDirection::Forward>(block, stats, reserve);
        return loop_.run<SchedDirection::Backward>(block, stats, reserve);
    }

    // Record each placed op's options, in issue order.
    picked_.clear();
    picked_at_.clear();
    auto certify = [&](uint32_t tree, int32_t cycle) {
        if (!checker_.tryReserve(tree, cycle, ru_, stats.checks, &chosen_))
            return false;
        picked_at_.push_back(uint32_t(picked_.size()));
        picked_.insert(picked_.end(), chosen_.begin(), chosen_.end());
        return true;
    };
    BlockSchedule sched =
        direction_ == SchedDirection::Forward
            ? loop_.run<SchedDirection::Forward>(block, stats, certify)
            : loop_.run<SchedDirection::Backward>(block, stats, certify);
    picked_at_.push_back(uint32_t(picked_.size()));

    // The certificate lists them in op order. A backward schedule's
    // uniform shift moves every reservation alike, so its options
    // stay valid.
    const size_t n = block.instrs.size();
    issued_as_.resize(n);
    for (uint32_t k = 0; k < n; ++k)
        issued_as_[sched.issue_order[k]] = k;
    size_t at = options->size();
    options->resize(at + picked_.size());
    for (uint32_t u = 0; u < n; ++u) {
        const uint32_t k = issued_as_[u];
        for (uint32_t i = picked_at_[k]; i < picked_at_[k + 1]; ++i)
            (*options)[at++] = picked_[i];
    }
    return sched;
}

std::vector<BlockSchedule>
ListScheduler::scheduleProgram(const Program &program, SchedStats &stats,
                               Certificate *certificate)
{
    std::vector<BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks) {
        schedules.push_back(scheduleBlock(
            block, stats, certificate ? &certificate->options : nullptr));
        if (certificate)
            certificate->endBlock();
    }
    return schedules;
}

} // namespace mdes::sched

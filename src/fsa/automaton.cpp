#include "fsa/automaton.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace mdes::fsa {

SchedulerAutomaton::SchedulerAutomaton(const lmdes::LowMdes &low,
                                       size_t max_states)
    : low_(low), max_states_(max_states)
{
    for (const auto &check : low_.checks()) {
        if (check.slot < 0) {
            throw MdesError(
                "scheduler automata require non-negative usage times; "
                "run the usage-time transformation (Section 7) first");
        }
        window_ = std::max(window_, check.slot + 1);
    }
    // Whole cycles: advanceCycle() shifts one cycle's worth of slots.
    int32_t words = int32_t(low_.slotWords());
    window_ = (window_ + words - 1) / words * words;
    Window empty(size_t(window_), 0);
    intern(empty);
}

uint32_t
SchedulerAutomaton::intern(const Window &window)
{
    auto it = state_ids_.find(window);
    if (it != state_ids_.end())
        return it->second;
    if (state_windows_.size() >= max_states_) {
        throw MdesError(
            "scheduler automaton exceeded its state budget (" +
            std::to_string(max_states_) +
            " states); the machine is too flexible for the FSA "
            "approach at this budget");
    }
    uint32_t id = uint32_t(state_windows_.size());
    state_windows_.push_back(window);
    state_ids_.emplace(window, id);
    issue_transitions_.emplace_back(); // sized lazily on first use
    advance_transitions_.push_back(kUnbuilt);
    return id;
}

uint32_t
SchedulerAutomaton::issue(uint32_t state, uint32_t tree)
{
    ++stats_.issue_lookups;
    auto &row = issue_transitions_[state];
    if (row.size() < low_.trees().size())
        row.resize(low_.trees().size(), kUnbuilt);
    if (row[tree] != kUnbuilt)
        return row[tree];

    ++stats_.transitions_built;
    // Greedy AND-of-ORs evaluation against the window, with the same
    // pending overlay as the reservation-table checker, so the chosen
    // options - and therefore the successor state - are identical.
    Window window = state_windows_[state]; // copy: accumulates choices
    const lmdes::LowTree &t = low_.trees()[tree];
    bool ok = true;
    for (uint32_t s = 0; s < t.num_or_trees && ok; ++s) {
        const lmdes::LowOrTree &ot =
            low_.orTrees()[low_.orRefs()[t.first_or_ref + s]];
        bool found = false;
        for (uint32_t oi = 0; oi < ot.num_options && !found; ++oi) {
            const lmdes::LowOption &opt =
                low_.options()[low_.optionRefs()[ot.first_option_ref +
                                                 oi]];
            bool fits = true;
            for (uint32_t c = 0; c < opt.num_checks; ++c) {
                const lmdes::Check &check =
                    low_.checks()[opt.first_check + c];
                if (window[size_t(check.slot)] & check.mask) {
                    fits = false;
                    break;
                }
            }
            if (fits) {
                for (uint32_t c = 0; c < opt.num_checks; ++c) {
                    const lmdes::Check &check =
                        low_.checks()[opt.first_check + c];
                    window[size_t(check.slot)] |= check.mask;
                }
                found = true;
            }
        }
        ok = found;
    }

    uint32_t next = ok ? intern(window) : kFail;
    // intern() may have grown the transition tables; re-fetch the row.
    auto &fresh_row = issue_transitions_[state];
    if (fresh_row.size() < low_.trees().size())
        fresh_row.resize(low_.trees().size(), kUnbuilt);
    fresh_row[tree] = next;
    return next;
}

uint32_t
SchedulerAutomaton::advanceCycle(uint32_t state)
{
    if (advance_transitions_[state] != kUnbuilt)
        return advance_transitions_[state];
    Window shifted(size_t(window_), 0);
    const Window &current = state_windows_[state];
    size_t words = low_.slotWords();
    for (size_t i = words; i < current.size(); ++i)
        shifted[i - words] = current[i];
    uint32_t next = intern(shifted);
    advance_transitions_[state] = next;
    return next;
}

FsaStats
SchedulerAutomaton::stats() const
{
    FsaStats s = stats_;
    s.states = state_windows_.size();
    s.window = size_t(window_);
    s.memory_bytes = state_windows_.size() * size_t(window_) * 8;
    for (const auto &row : issue_transitions_)
        s.memory_bytes += row.size() * 4;
    s.memory_bytes += advance_transitions_.size() * 4;
    return s;
}

// ----------------------------------------------------- FsaListScheduler

sched::BlockSchedule
FsaListScheduler::scheduleBlock(const sched::Block &block,
                                sched::SchedStats &stats)
{
    // Fresh machine per block. The automaton advances once per elapsed
    // cycle, as the loop's clock does: on demand before an attempt, and
    // past the block's last cycle after it.
    uint32_t state = fsa_.initialState();
    int32_t now = 0;
    auto reserve = [&](uint32_t tree, int32_t cycle) {
        for (; now < cycle; ++now)
            state = fsa_.advanceCycle(state);
        ++stats.checks.attempts;
        ++stats.checks.resource_checks; // one automaton lookup
        uint32_t next = fsa_.issue(state, tree);
        if (next == SchedulerAutomaton::kFail)
            return false;
        ++stats.checks.successes;
        state = next;
        return true;
    };
    sched::BlockSchedule sched =
        loop_.run<SchedDirection::Forward>(block, stats, reserve);
    for (; now < sched.length; ++now)
        state = fsa_.advanceCycle(state);
    return sched;
}

std::vector<sched::BlockSchedule>
FsaListScheduler::scheduleProgram(const sched::Program &program,
                                  sched::SchedStats &stats)
{
    std::vector<sched::BlockSchedule> schedules;
    schedules.reserve(program.blocks.size());
    for (const auto &block : program.blocks) {
        // Fresh machine per block, like the RU-map scheduler.
        schedules.push_back(scheduleBlock(block, stats));
    }
    return schedules;
}

} // namespace mdes::fsa

#include "sched/verify.h"

#include <algorithm>
#include <bit>

#include "rumap/checker.h"
#include "rumap/ru_map.h"

namespace mdes::sched {

const char *
verifyFaultName(VerifyFault fault)
{
    switch (fault) {
    case VerifyFault::None:
        return "none";
    case VerifyFault::SizeMismatch:
        return "size_mismatch";
    case VerifyFault::Unscheduled:
        return "unscheduled";
    case VerifyFault::DependenceViolated:
        return "dependence_violated";
    case VerifyFault::BadIssueOrder:
        return "bad_issue_order";
    case VerifyFault::MissingCascadeTree:
        return "missing_cascade_tree";
    case VerifyFault::ResourceConflict:
        return "resource_conflict";
    case VerifyFault::UnknownOption:
        return "unknown_option";
    case VerifyFault::OptionNotInSubtree:
        return "option_not_in_subtree";
    case VerifyFault::CertificateLength:
        return "certificate_length";
    case VerifyFault::IIBelowBound:
        return "ii_below_bound";
    }
    return "unknown";
}

namespace {

VerifyResult
fail(VerifyFault fault, uint32_t instr, std::string message)
{
    VerifyResult r;
    r.fault = fault;
    r.instr = instr;
    r.message = std::move(message);
    return r;
}

/** The tree instruction @p u issued with: kInvalidId when it claims
 * a cascade tree its class lacks. */
uint32_t
issueTree(const Block &block, const BlockSchedule &sched,
          const lmdes::LowMdes &low, uint32_t u)
{
    const auto &cls = low.opClasses()[block.instrs[u].op_class];
    return sched.used_cascade[u] ? cls.cascade_tree : cls.tree;
}

VerifyResult
missingCascadeTree(uint32_t u)
{
    return fail(VerifyFault::MissingCascadeTree, u,
                "instruction " + std::to_string(u) +
                    " claims cascade but has no cascade tree");
}

} // namespace

Verifier::Verifier(const lmdes::LowMdes &low) : low_(low)
{
    for (const lmdes::Check &check : low.checks()) {
        slot_lo_ = std::min(slot_lo_, check.slot);
        slot_hi_ = std::max(slot_hi_, check.slot);
    }
}

Verifier::RegUse &
Verifier::regUse(int32_t reg)
{
    const size_t mask = regs_.size() - 1;
    for (size_t at = uint32_t(reg) & mask;; at = (at + 1) & mask) {
        RegUse &use = regs_[at];
        if (use.stamp != stamp_) {
            use = {stamp_, reg, kInvalidId, kInvalidId};
            return use;
        }
        if (use.reg == reg)
            return use;
    }
}

VerifyResult
Verifier::verifyDependences(const Block &block, const BlockSchedule &sched)
{
    const uint32_t n = uint32_t(block.instrs.size());
    if (sched.cycles.size() != n || sched.used_cascade.size() != n)
        return fail(VerifyFault::SizeMismatch, kInvalidId,
                    "schedule size does not match block size");
    const std::vector<int32_t> &cycle = sched.cycles;
    size_t operands = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (cycle[i] < 0)
            return fail(VerifyFault::Unscheduled, i,
                        "instruction " + std::to_string(i) +
                            " was never scheduled");
        operands += block.instrs[i].srcs.size() + block.instrs[i].dsts.size();
    }

    // A new block: a register table at most half full, and a new stamp.
    if (regs_.size() < 2 * operands + 1)
        regs_.assign(std::bit_ceil(2 * operands + 1), {});
    if (++stamp_ == 0) {
        for (RegUse &use : regs_)
            use.stamp = 0;
        stamp_ = 1;
    }

    auto tooClose = [&](uint32_t succ, uint32_t pred, int32_t dist) {
        return fail(VerifyFault::DependenceViolated, succ,
                    "dependence violated: instruction " +
                        std::to_string(succ) + " at cycle " +
                        std::to_string(cycle[succ]) + " is closer than " +
                        std::to_string(dist) + " to instruction " +
                        std::to_string(pred) + " at cycle " +
                        std::to_string(cycle[pred]));
    };
    // Of the instructions before the current one, the one issuing
    // latest: a block-terminating branch issues no earlier.
    uint32_t latest = kInvalidId;
    for (uint32_t i = 0; i < n; ++i) {
        const Instr &in = block.instrs[i];
        for (int32_t r : in.srcs) {
            RegUse &use = regUse(r);
            if (use.writer != kInvalidId) {
                // RAW. A cascaded consumer may issue in the same cycle
                // as a single-cycle producer.
                int32_t dist = low_.flowLatency(
                    block.instrs[use.writer].op_class, in.op_class);
                if (dist == 1 && in.cascadable && sched.used_cascade[i])
                    dist = 0;
                if (cycle[i] - cycle[use.writer] < dist)
                    return tooClose(i, use.writer, dist);
            }
            if (use.reader == kInvalidId || cycle[use.reader] < cycle[i])
                use.reader = i;
        }
        for (int32_t r : in.dsts) {
            RegUse &use = regUse(r);
            if (use.writer != kInvalidId && use.writer != i &&
                cycle[i] - cycle[use.writer] < 1)
                return tooClose(i, use.writer, 1); // WAW
            if (use.reader != kInvalidId && cycle[i] < cycle[use.reader])
                return tooClose(i, use.reader, 0); // WAR
            use.writer = i;
            use.reader = kInvalidId;
        }
        if (i + 1 == n && in.is_branch && latest != kInvalidId &&
            cycle[i] < cycle[latest])
            return tooClose(i, latest, 0); // control
        if (latest == kInvalidId || cycle[latest] < cycle[i])
            latest = i;
    }
    return {};
}

VerifyResult
Verifier::verify(const Block &block, const BlockSchedule &sched,
                 std::span<const uint32_t> options)
{
    VerifyResult r = verifyDependences(block, sched);
    return r.ok() ? resources(block, sched, options, 0) : r;
}

VerifyResult
Verifier::verify(const Block &body, const ModuloSchedule &sched)
{
    if (!sched.success)
        return fail(VerifyFault::Unscheduled, kInvalidId,
                    "schedule did not succeed");
    if (sched.ii < std::max({sched.res_mii, sched.rec_mii, 1}))
        return fail(VerifyFault::IIBelowBound, kInvalidId,
                    "II below its lower bounds");
    // Two iterations, the second II later: its ops meet the first's
    // last reads and writes, so the flat scan also checks every
    // dependence into the next iteration. Nothing cascades, and a
    // body's branch has no control rule: it may issue early.
    twice_.assign(body.instrs.begin(), body.instrs.end());
    twice_.insert(twice_.end(), body.instrs.begin(), body.instrs.end());
    for (Instr &in : twice_)
        in.is_branch = false;
    loop_.cycles = sched.times;
    for (int32_t t : sched.times)
        loop_.cycles.push_back(t + sched.ii);
    loop_.used_cascade.assign(loop_.cycles.size(), 0);
    VerifyResult r = verifyDependences(Block{twice_}, loop_);
    return r.ok() ? resources(body, loop_, sched.options, sched.ii) : r;
}

VerifyResult
Verifier::resources(const Block &block, const BlockSchedule &sched,
                    std::span<const uint32_t> options, int32_t ii)
{
    // Resources: no search and no order. Each certified option must be
    // one of its subtree's; OR its usages into the map at the
    // instruction's cycle, and any overlap is a conflict. A flat map
    // spans every slot the block's usages can reach; a modulo one is
    // II whole cycles, into which every slot folds (the -slot_lo_ shift
    // is then one rotation, which keeps every overlap).
    const uint32_t n = uint32_t(block.instrs.size());
    const int32_t words = int32_t(low_.slotWords());
    const size_t period = size_t(ii) * size_t(words);
    const int64_t last =
        n > 0 ? *std::max_element(sched.cycles.begin(), sched.cycles.end())
              : 0;
    ru_.assign(period ? period
                      : size_t(last * words + slot_hi_ - slot_lo_ + 1),
               0);
    const auto trees = low_.trees();
    const auto or_trees = low_.orTrees();
    const auto or_refs = low_.orRefs();
    const auto option_refs = low_.optionRefs();
    const auto all_options = low_.options();
    const auto checks = low_.checks();
    size_t next = 0;
    for (uint32_t u = 0; u < n; ++u) {
        const uint32_t tree = issueTree(block, sched, low_, u);
        if (tree == kInvalidId)
            return missingCascadeTree(u);
        const lmdes::LowTree &t = trees[tree];
        const int32_t base = sched.cycles[u] * words - slot_lo_;
        for (uint32_t s = 0; s < t.num_or_trees; ++s, ++next) {
            if (next == options.size())
                return fail(VerifyFault::CertificateLength, u,
                            "certificate ends before instruction " +
                                std::to_string(u) + "'s options");
            const uint32_t id = options[next];
            if (id >= all_options.size())
                return fail(VerifyFault::UnknownOption, u,
                            "instruction " + std::to_string(u) +
                                " certifies option " + std::to_string(id) +
                                ", which the description does not have");
            const lmdes::LowOrTree &ot = or_trees[or_refs[t.first_or_ref + s]];
            const auto own =
                option_refs.subspan(ot.first_option_ref, ot.num_options);
            if (std::find(own.begin(), own.end(), id) == own.end())
                return fail(VerifyFault::OptionNotInSubtree, u,
                            "instruction " + std::to_string(u) +
                                " certifies option " + std::to_string(id) +
                                ", which is not in its OR subtree " +
                                std::to_string(s));
            const lmdes::LowOption &opt = all_options[id];
            for (const lmdes::Check &check :
                 checks.subspan(opt.first_check, opt.num_checks)) {
                size_t at = size_t(base + check.slot);
                if (period)
                    at %= period;
                uint64_t &word = ru_[at];
                if (word & check.mask)
                    return fail(VerifyFault::ResourceConflict, u,
                                "resource conflict: instruction " +
                                    std::to_string(u) + " at cycle " +
                                    std::to_string(sched.cycles[u]) +
                                    " overlaps an earlier usage");
                word |= check.mask;
            }
        }
    }
    if (next != options.size())
        return fail(VerifyFault::CertificateLength,
                    n > 0 ? n - 1 : kInvalidId,
                    "certificate holds " +
                        std::to_string(options.size() - next) +
                        " option ids past the last instruction's");
    return {};
}

VerifyResult
verifyScheduleEx(const Block &block, const BlockSchedule &sched,
                 const lmdes::LowMdes &low)
{
    VerifyResult r = Verifier(low).verifyDependences(block, sched);
    if (!r.ok())
        return r;

    const uint32_t n = uint32_t(block.instrs.size());
    std::vector<uint32_t> trees(n);
    for (uint32_t u = 0; u < n; ++u) {
        trees[u] = issueTree(block, sched, low, u);
        if (trees[u] == kInvalidId)
            return missingCascadeTree(u);
    }

    // Replay the reservations in the order the scheduler made them, so
    // the checker's greedy option choices coincide with the original
    // ones.
    if (sched.issue_order.size() != n)
        return fail(VerifyFault::BadIssueOrder, kInvalidId,
                    "issue order is not a permutation of the block");
    std::vector<uint8_t> seen(n, 0);
    for (uint32_t u : sched.issue_order) {
        if (u >= n || seen[u])
            return fail(VerifyFault::BadIssueOrder, u,
                        "issue order is not a permutation of the block");
        seen[u] = 1;
    }
    rumap::Checker checker(low);
    rumap::RuMap ru;
    rumap::CheckStats ignored;
    for (uint32_t u : sched.issue_order) {
        if (!checker.tryReserve(trees[u], sched.cycles[u], ru, ignored))
            return fail(VerifyFault::ResourceConflict, u,
                        "resource conflict replaying instruction " +
                            std::to_string(u) + " at cycle " +
                            std::to_string(sched.cycles[u]));
    }
    return {};
}

} // namespace mdes::sched

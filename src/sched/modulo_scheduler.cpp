#include "sched/modulo_scheduler.h"

#include "sched/pressure.h"

#include <algorithm>
#include <span>

#include "support/trace.h"

namespace mdes::sched {

namespace {

/** Whether @p a and @p b claim one resource in one modulo slot. */
bool
collide(std::span<const rumap::Reservation> a,
        std::span<const rumap::Reservation> b)
{
    for (const rumap::Reservation &x : a)
        for (const rumap::Reservation &y : b)
            if (x.cycle == y.cycle && (x.mask & y.mask) != 0)
                return true;
    return false;
}

} // namespace

int32_t
ModuloScheduler::resMii(const Block &body) const
{
    // The per-iteration resource demand bound is exactly the
    // resource-pressure analysis other MDES clients use; see
    // sched/pressure.h for the demand definition.
    return std::max(analyzePressure(body, low_).resource_bound, 1);
}

/** Longest path from each of the @p n ops to a sink under edge weight
 * min_dist - ii * omega, relaxed into height_. False when still changing
 * after n + 1 rounds: a positive cycle, so @p ii is below RecMII. */
bool
ModuloScheduler::relaxHeights(size_t n, int32_t ii)
{
    height_.assign(n, 0);
    for (size_t round = 0; round <= n; ++round) {
        bool changed = false;
        for (const DepEdge &e : graph_.edges()) {
            int64_t h = height_[e.succ] + e.min_dist -
                        int64_t(ii) * e.omega;
            if (h > height_[e.pred]) {
                height_[e.pred] = h;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    return false;
}

int32_t
ModuloScheduler::recMii(const Block &body, int32_t max_ii)
{
    // The smallest II with no positive dependence cycle; graph_ stays
    // built for schedule().
    graph_.rebuild(body, low_, DepScope::Loop);
    const size_t n = body.instrs.size();
    int32_t lo = 1, hi = max_ii;
    if (relaxHeights(n, lo))
        return lo;
    while (lo < hi) {
        int32_t mid = lo + (hi - lo) / 2;
        if (relaxHeights(n, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

ModuloSchedule
ModuloScheduler::schedule(const Block &body, SchedStats &stats,
                          int32_t max_ii, int budget_ratio)
{
    const size_t n = body.instrs.size();
    ModuloSchedule result;
    result.res_mii = resMii(body);
    result.rec_mii = recMii(body, max_ii); // builds graph_
    if (n == 0) {
        result.success = true;
        result.ii = 1;
        return result;
    }

    // Probe hook: per-op attempt counts across every II tried, live only
    // under an active span (see SchedStats::attempts_per_op).
    TRACE_SPAN_F(span, "sched/modulo");
    std::vector<uint32_t> op_attempts;
    if (span.active())
        op_attempts.assign(n, 0);
    stats.checks.sizeFor(low_);

    constexpr int32_t kUnscheduled = INT32_MIN;
    // Where each operation's options start in the certificate.
    std::vector<uint32_t> options_at(n + 1, 0);
    for (uint32_t u = 0; u < n; ++u) {
        const auto &cls = low_.opClasses()[body.instrs[u].op_class];
        options_at[u + 1] =
            options_at[u] + low_.trees()[cls.tree].num_or_trees;
    }
    std::vector<uint32_t> chosen;

    for (int32_t ii = std::max(result.res_mii, result.rec_mii);
         ii <= max_ii; ++ii) {
        const int32_t words = int32_t(low_.slotWords());
        rumap::RuMap ru(ii * words); // modulo over whole cycles
        std::vector<int32_t> times(n, kUnscheduled);
        std::vector<int32_t> prev_time(n, kUnscheduled);
        std::vector<std::vector<rumap::Reservation>> reservations(n);
        std::vector<uint32_t> options(options_at[n]);

        // Height priority under this II (converges: recMii <= ii).
        relaxHeights(n, ii);

        auto nextOp = [&]() -> uint32_t {
            uint32_t best = kInvalidId;
            for (uint32_t u = 0; u < n; ++u) {
                if (times[u] != kUnscheduled)
                    continue;
                if (best == kInvalidId || height_[u] > height_[best])
                    best = u;
            }
            return best;
        };

        auto unschedule = [&](uint32_t u) {
            // Reservation cycles are already map-normalized slots.
            for (const auto &r : reservations[u])
                ru.releaseSlot(r.cycle, r.mask);
            reservations[u].clear();
            times[u] = kUnscheduled;
            ++result.evictions;
        };

        int64_t budget = int64_t(budget_ratio) * int64_t(n);
        bool ok = true;
        for (;;) {
            uint32_t u = nextOp();
            if (u == kInvalidId)
                break; // everything placed
            if (--budget < 0) {
                ok = false;
                break;
            }
            const auto &cls = low_.opClasses()[body.instrs[u].op_class];

            int32_t estart = 0;
            for (const DepEdge &e : graph_.preds(u)) {
                if (times[e.pred] != kUnscheduled)
                    estart = std::max(estart, times[e.pred] + e.min_dist -
                                                  ii * e.omega);
            }

            bool placed = false;
            for (int32_t t = estart; t < estart + ii && !placed; ++t) {
                if (span.active())
                    ++op_attempts[u];
                if (checker_.tryReserve(cls.tree, t, ru, stats.checks,
                                        &chosen, &reservations[u])) {
                    times[u] = t;
                    placed = true;
                    std::copy(chosen.begin(), chosen.end(),
                              options.begin() + options_at[u]);
                }
            }
            if (!placed) {
                // Force placement, displacing whatever conflicts: first
                // choice combination (highest-priority option of every
                // OR subtree), as the reservation-table unscheduling the
                // paper describes.
                int32_t t_force =
                    (prev_time[u] == kUnscheduled ||
                     estart > prev_time[u])
                        ? estart
                        : prev_time[u] + 1;
                std::vector<rumap::Reservation> needed;
                const lmdes::LowTree &tree = low_.trees()[cls.tree];
                for (uint32_t s = 0; s < tree.num_or_trees; ++s) {
                    const lmdes::LowOrTree &ot =
                        low_.orTrees()
                            [low_.orRefs()[tree.first_or_ref + s]];
                    const uint32_t opt_id =
                        low_.optionRefs()[ot.first_option_ref];
                    options[options_at[u] + s] = opt_id;
                    const lmdes::LowOption &opt = low_.options()[opt_id];
                    for (uint32_t c = 0; c < opt.num_checks; ++c) {
                        const lmdes::Check &check =
                            low_.checks()[opt.first_check + c];
                        needed.push_back(
                            {ru.normalize(t_force * words + check.slot),
                             check.mask});
                    }
                }
                // If the combination conflicts with itself at this II
                // (two usages landing on the same modulo slot and
                // resource), the operation cannot execute at this II at
                // all - abandon it and move to the next II.
                const std::span<const rumap::Reservation> all(needed);
                bool self_conflict = false;
                for (size_t x = 0; x < needed.size(); ++x)
                    self_conflict |=
                        collide(all.subspan(x, 1), all.subspan(x + 1));
                if (self_conflict) {
                    ok = false;
                    break;
                }
                for (uint32_t v = 0; v < n; ++v) {
                    if (v != u && times[v] != kUnscheduled &&
                        collide(reservations[v], needed))
                        unschedule(v);
                }
                for (const auto &rn : needed)
                    ru.reserveSlot(rn.cycle, rn.mask);
                reservations[u] = needed;
                times[u] = t_force;
            }
            prev_time[u] = times[u];

            // Displace scheduled successors whose dependence from u is
            // now violated (they will be rescheduled later).
            for (const DepEdge &e : graph_.succs(u)) {
                uint32_t v = e.succ;
                if (v != u && times[v] != kUnscheduled &&
                    times[v] < times[u] + e.min_dist - ii * e.omega)
                    unschedule(v);
            }
        }

        if (ok) {
            result.success = true;
            result.ii = ii;
            result.times = std::move(times);
            result.options = std::move(options);
            // Normalize so the earliest time is zero.
            int32_t min_t = *std::min_element(result.times.begin(),
                                              result.times.end());
            for (auto &t : result.times)
                t -= min_t;
            stats.ops_scheduled += n;
            stats.total_schedule_length += uint64_t(ii);
            if (span.active()) {
                for (uint32_t a : op_attempts)
                    stats.attempts_per_op.add(a);
                span.counter("ops", n);
                span.counter("ii", uint64_t(ii));
                span.counter("res_mii", uint64_t(result.res_mii));
                span.counter("rec_mii", uint64_t(result.rec_mii));
                span.counter("evictions", result.evictions);
            }
            return result;
        }
    }
    return result; // success == false: no II within max_ii worked
}

} // namespace mdes::sched

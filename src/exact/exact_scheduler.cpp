#include "exact/exact_scheduler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <climits>
#include <stdexcept>

#include "support/trace.h"

namespace mdes::exact {

namespace {

/** Probe-propagation cap per search node: bounds the wouldFit() work a
 * single bound computation may spend sharpening earliest starts. */
constexpr int kProbeCap = 64;

int64_t
nowUs()
{
    using namespace std::chrono;
    return duration_cast<microseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

/** Split a check slot into (usage cycle, word index): the inverse of
 * slot = cycle * slot_words + word with word in [0, slot_words). */
void
decomposeSlot(int32_t slot, uint32_t words, int32_t &cycle, uint32_t &word)
{
    int32_t w = int32_t(words);
    int32_t c = slot >= 0 ? slot / w : -((-slot + w - 1) / w);
    cycle = c;
    word = uint32_t(slot - c * w);
}

/** a is a subset of b (per-word mask inclusion). */
bool
subsetOf(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i] & ~b[i])
            return false;
    return true;
}

} // namespace

ExactScheduler::ExactScheduler(const lmdes::LowMdes &low)
    : low_(low), checker_(low)
{
    buildGroups();
}

void
ExactScheduler::buildGroups()
{
    const uint32_t words = low_.slotWords();
    const uint32_t num_res = low_.numResources();
    std::vector<int32_t> min_off(num_res, INT32_MAX);
    std::vector<int32_t> max_off(num_res, INT32_MIN);

    std::vector<uint32_t> used_trees;
    auto note_tree = [&](uint32_t t) {
        if (t == kInvalidId)
            return;
        if (std::find(used_trees.begin(), used_trees.end(), t)
            == used_trees.end())
            used_trees.push_back(t);
    };
    for (const auto &cls : low_.opClasses()) {
        note_tree(cls.tree);
        note_tree(cls.cascade_tree);
    }

    // Pass 1: intern every OR subtree's mandatory instance group and
    // record each resource's usage-offset spread.
    std::vector<uint64_t> key(words);
    for (uint32_t t : used_trees) {
        const auto &tree = low_.trees()[t];
        for (uint32_t s = 0; s < tree.num_or_trees; ++s) {
            const auto &sub =
                low_.orTrees()[low_.orRefs()[tree.first_or_ref + s]];
            std::fill(key.begin(), key.end(), 0);
            uint32_t mandatory = UINT32_MAX;
            for (uint32_t o = 0; o < sub.num_options; ++o) {
                const auto &opt =
                    low_.options()
                        [low_.optionRefs()[sub.first_option_ref + o]];
                uint32_t count = 0;
                for (uint32_t ci = 0; ci < opt.num_checks; ++ci) {
                    const auto &chk = low_.checks()[opt.first_check + ci];
                    int32_t cyc;
                    uint32_t word;
                    decomposeSlot(chk.slot, words, cyc, word);
                    key[word] |= chk.mask;
                    count += uint32_t(std::popcount(chk.mask));
                    for (uint64_t bits = chk.mask; bits;
                         bits &= bits - 1) {
                        uint32_t r = word * 64
                                     + uint32_t(std::countr_zero(bits));
                        if (r >= num_res)
                            continue;
                        min_off[r] = std::min(min_off[r], cyc);
                        max_off[r] = std::max(max_off[r], cyc);
                    }
                }
                mandatory = std::min(mandatory, count);
            }
            if (mandatory == 0 || mandatory == UINT32_MAX)
                continue;
            bool known = false;
            for (const auto &g : groups_)
                if (g.key == key) {
                    known = true;
                    break;
                }
            if (!known) {
                Group g;
                g.key = key;
                groups_.push_back(std::move(g));
            }
        }
    }

    for (auto &g : groups_) {
        int32_t lo = INT32_MAX, hi = INT32_MIN, size = 0;
        for (uint32_t w = 0; w < words; ++w) {
            for (uint64_t bits = g.key[w]; bits; bits &= bits - 1) {
                uint32_t r = w * 64 + uint32_t(std::countr_zero(bits));
                if (r >= num_res)
                    continue;
                ++size;
                lo = std::min(lo, min_off[r]);
                hi = std::max(hi, max_off[r]);
            }
        }
        g.size = size ? size : 1;
        g.width = lo <= hi ? hi - lo : 0;
    }

    // Pass 2: per-class demand against the interned groups.
    class_demand_.resize(low_.opClasses().size());
    for (size_t i = 0; i < low_.opClasses().size(); ++i) {
        const auto &cls = low_.opClasses()[i];
        auto &cd = class_demand_[i];
        cd.normal = treeDemand(cls.tree);
        if (cls.cascade_tree != kInvalidId) {
            cd.either = treeDemand(cls.cascade_tree);
            for (size_t g = 0; g < cd.either.size(); ++g)
                cd.either[g] = std::min(cd.either[g], cd.normal[g]);
        } else {
            cd.either = cd.normal;
        }
    }
}

std::vector<uint32_t>
ExactScheduler::treeDemand(uint32_t tree_id) const
{
    std::vector<uint32_t> demand(groups_.size(), 0);
    if (tree_id == kInvalidId)
        return demand;
    const uint32_t words = low_.slotWords();
    const auto &tree = low_.trees()[tree_id];
    std::vector<uint64_t> key(words);
    for (uint32_t s = 0; s < tree.num_or_trees; ++s) {
        const auto &sub =
            low_.orTrees()[low_.orRefs()[tree.first_or_ref + s]];
        std::fill(key.begin(), key.end(), 0);
        uint32_t mandatory = UINT32_MAX;
        for (uint32_t o = 0; o < sub.num_options; ++o) {
            const auto &opt =
                low_.options()[low_.optionRefs()[sub.first_option_ref + o]];
            uint32_t count = 0;
            for (uint32_t ci = 0; ci < opt.num_checks; ++ci) {
                const auto &chk = low_.checks()[opt.first_check + ci];
                int32_t cyc;
                uint32_t word;
                decomposeSlot(chk.slot, words, cyc, word);
                key[word] |= chk.mask;
                count += uint32_t(std::popcount(chk.mask));
            }
            mandatory = std::min(mandatory, count);
        }
        if (mandatory == 0 || mandatory == UINT32_MAX)
            continue;
        // A subtree's guaranteed usage also satisfies every group that
        // contains its instances, so charge all supersets: that is what
        // lets a cascade tree's demand line up with the normal tree's.
        for (size_t g = 0; g < groups_.size(); ++g)
            if (subsetOf(key, groups_[g].key))
                demand[g] += mandatory;
    }
    return demand;
}

int32_t
ExactScheduler::readyCycle(uint32_t u, int32_t &normal_ready) const
{
    normal_ready = 0;
    int32_t relaxed = 0;
    for (const sched::DepEdge &e : graph_.preds(u)) {
        int32_t at = cycles_[e.pred];
        int32_t nr = at + e.min_dist;
        if (nr > normal_ready)
            normal_ready = nr;
        int32_t rr = e.cascade_relax ? at : nr;
        if (rr > relaxed)
            relaxed = rr;
    }
    return can_casc_[u] ? relaxed : normal_ready;
}

bool
ExactScheduler::wouldFitEither(uint32_t u, int32_t cycle)
{
    const auto &cls = low_.opClasses()[block_instr_class_[u]];
    ++result_->probes;
    if (checker_.wouldFit(cls.tree, cycle, ru_, &stats_->checks))
        return true;
    if (!can_casc_[u])
        return false;
    ++result_->probes;
    return checker_.wouldFit(cls.cascade_tree, cycle, ru_, &stats_->checks);
}

int32_t
ExactScheduler::computeBound(int32_t cycle)
{
    int32_t lb = cur_len_;

    // Earliest-start forward pass (instruction index is a topological
    // order: dependence edges always point to a higher index).
    for (uint32_t u = 0; u < n_; ++u) {
        if (cycles_[u] >= 0) {
            est_[u] = cycles_[u];
            continue;
        }
        int32_t est = cycle;
        for (const sched::DepEdge &e : graph_.preds(u)) {
            int32_t d =
                e.cascade_relax && can_casc_[u] ? 0 : e.min_dist;
            est = std::max(est, est_[e.pred] + d);
        }
        est_[u] = est;
        lb = std::max(lb, est + h_[u] + 1);
    }

    // Resource height: remaining mandatory demand vs. group capacity.
    for (size_t g = 0; g < groups_.size(); ++g) {
        uint64_t dem = rem_demand_[g];
        if (!dem)
            continue;
        const Group &grp = groups_[g];
        int32_t need =
            int32_t((dem + uint64_t(grp.size) - 1) / uint64_t(grp.size));
        lb = std::max(lb, cycle + need - grp.width);
    }
    if (lb >= best_len_)
        return lb;

    // wouldFit propagation: bump the critical op's earliest start while
    // the map proves it cannot issue there. Sound within this subtree
    // because the RU map only ever grows below this node.
    for (int probes_left = kProbeCap; probes_left > 0; --probes_left) {
        int32_t crit_bound = -1;
        uint32_t crit = n_;
        for (uint32_t u = 0; u < n_; ++u) {
            if (cycles_[u] >= 0)
                continue;
            int32_t b = est_[u] + h_[u] + 1;
            if (b > crit_bound) {
                crit_bound = b;
                crit = u;
            }
        }
        if (crit == n_)
            break;
        if (crit_bound >= best_len_)
            return crit_bound;
        if (wouldFitEither(crit, est_[crit]))
            break;
        ++est_[crit];
        lb = std::max(lb, est_[crit] + h_[crit] + 1);
    }
    return lb;
}

void
ExactScheduler::place(uint32_t u, int32_t cycle, bool cascade)
{
    cycles_[u] = cycle;
    casc_[u] = cascade;
    order_.push_back(u);
    ++placed_;
    cur_len_ = std::max(cur_len_, cycle + 1);
    for (const sched::DepEdge &e : graph_.succs(u))
        --pending_preds_[e.succ];
    const auto &dem = *op_demand_[u];
    for (size_t g = 0; g < dem.size(); ++g)
        rem_demand_[g] -= dem[g];
}

void
ExactScheduler::unplace(uint32_t u, int32_t restore_len,
                        const std::vector<rumap::Reservation> &reserved)
{
    for (const auto &r : reserved)
        ru_.releaseSlot(r.cycle, r.mask);
    const auto &dem = *op_demand_[u];
    for (size_t g = 0; g < dem.size(); ++g)
        rem_demand_[g] += dem[g];
    for (const sched::DepEdge &e : graph_.succs(u))
        ++pending_preds_[e.succ];
    --placed_;
    order_.pop_back();
    casc_[u] = 0;
    cycles_[u] = -1;
    cur_len_ = restore_len;
}

bool
ExactScheduler::dfs(int32_t cycle, uint32_t floor)
{
    ExactResult &res = *result_;
    ++res.nodes;
    if (node_limit_ && res.nodes > node_limit_) {
        res.budget_exhausted = true;
        return false;
    }
    if ((res.nodes & 1023u) == 0) {
        if (*cancel_ && (*cancel_)()) {
            res.cancelled = true;
            return false;
        }
        if (deadline_us_ && nowUs() > deadline_us_) {
            res.budget_exhausted = true;
            return false;
        }
    }

    if (placed_ == n_) {
        // Complete - and strictly better than the incumbent: every
        // placement on this path passed the futility check.
        best_len_ = cur_len_;
        best_cycles_ = cycles_;
        best_casc_ = casc_;
        best_order_ = order_;
        // The certificate lists each op's options in op order; depth k
        // placed order_[k].
        best_options_.clear();
        for (uint32_t u = 0; u < n_; ++u) {
            const size_t k =
                std::find(order_.begin(), order_.end(), u) - order_.begin();
            best_options_.insert(best_options_.end(),
                                 chosen_pool_[k].begin(),
                                 chosen_pool_[k].end());
        }
        have_best_ = true;
        if (best_len_ <= root_lb_)
            done_ = true;
        return !done_;
    }

    int32_t lb = computeBound(cycle);
    if (lb >= best_len_) {
        ++res.bound_prunes;
        return true;
    }

    int32_t next_cycle = INT32_MAX;
    for (uint32_t u = 0; u < n_; ++u) {
        if (cycles_[u] >= 0 || pending_preds_[u] > 0)
            continue;
        int32_t normal_ready = 0;
        int32_t ready_at = readyCycle(u, normal_ready);
        next_cycle = std::min(next_cycle, std::max(ready_at, cycle + 1));
        if (ready_at > cycle)
            continue;
        if (u < floor) {
            // A lower-indexed ready op was deliberately skipped earlier
            // in this cycle; placing it now would permute an already
            // enumerated issue set.
            ++res.dominance_prunes;
            continue;
        }
        if (cycle + h_[u] + 1 >= best_len_) {
            ++res.bound_prunes;
            continue;
        }
        bool cascade = can_casc_[u] && cycle < normal_ready;
        const auto &cls = low_.opClasses()[block_instr_class_[u]];
        uint32_t tree = cascade ? cls.cascade_tree : cls.tree;
        auto &reserved = reserved_pool_[placed_];
        reserved.clear();
        if (!checker_.tryReserve(tree, cycle, ru_, stats_->checks,
                                 &chosen_pool_[placed_], &reserved))
            continue;
        int32_t prev_len = cur_len_;
        place(u, cycle, cascade);
        bool keep_going = dfs(cycle, u + 1);
        unplace(u, prev_len, reserved);
        if (!keep_going)
            return false;
    }

    if (placed_ == 0)
        return true; // a fresh RU map is translation-invariant: the
                     // first issue can be pinned to cycle 0
    if (next_cycle == INT32_MAX)
        return true;
    return dfs(next_cycle, 0);
}

ExactResult
ExactScheduler::scheduleBlock(const sched::Block &block,
                              sched::SchedStats &stats,
                              const ExactOptions &opts)
{
    const sched::BlockSchedule *incumbent = opts.incumbent;
    if (!incumbent || incumbent->cycles.size() != block.instrs.size())
        throw std::invalid_argument(
            "exact search needs an incumbent with one cycle per "
            "instruction");
    TRACE_SPAN_F(span, "exact/search");
    ExactResult res;
    n_ = uint32_t(block.instrs.size());
    if (n_ == 0) {
        res.proven_optimal = true;
        return res;
    }

    graph_.rebuild(block, low_);

    block_instr_class_.resize(n_);
    can_casc_.assign(n_, 0);
    for (uint32_t u = 0; u < n_; ++u) {
        const auto &in = block.instrs[u];
        block_instr_class_[u] = in.op_class;
        const auto &cls = low_.opClasses()[in.op_class];
        can_casc_[u] =
            in.cascadable && cls.cascade_tree != kInvalidId ? 1 : 0;
    }

    h_.assign(n_, 0);
    for (uint32_t u = n_; u-- > 0;) {
        for (const sched::DepEdge &e : graph_.succs(u)) {
            int32_t d =
                e.cascade_relax && can_casc_[e.succ] ? 0 : e.min_dist;
            h_[u] = std::max(h_[u], d + h_[e.succ]);
        }
    }

    cycles_.assign(n_, -1);
    casc_.assign(n_, 0);
    est_.assign(n_, 0);
    pending_preds_.resize(n_);
    for (uint32_t u = 0; u < n_; ++u)
        pending_preds_[u] = uint32_t(graph_.preds(u).size());

    op_demand_.resize(n_);
    rem_demand_.assign(groups_.size(), 0);
    for (uint32_t u = 0; u < n_; ++u) {
        const ClassDemand &cd = class_demand_[block_instr_class_[u]];
        op_demand_[u] = can_casc_[u] ? &cd.either : &cd.normal;
        for (size_t g = 0; g < rem_demand_.size(); ++g)
            rem_demand_[g] += (*op_demand_[u])[g];
    }

    order_.clear();
    order_.reserve(n_);
    reserved_pool_.resize(n_);
    chosen_pool_.resize(n_);
    ru_.clear();
    cur_len_ = 0;
    placed_ = 0;
    have_best_ = false;
    done_ = false;
    result_ = &res;
    stats_ = &stats;
    best_len_ = incumbent->length;

    root_lb_ = std::max(computeBound(0), 1);
    res.lower_bound = root_lb_;

    bool completed = true;
    if (incumbent->length > root_lb_) {
        node_limit_ = opts.max_nodes;
        deadline_us_ =
            opts.time_budget_us > 0 ? nowUs() + opts.time_budget_us : 0;
        cancel_ = &opts.cancel;
        completed = dfs(0, 0);
        cancel_ = nullptr;
    }

    bool proven = completed || done_;
    if (have_best_) {
        res.schedule.cycles = best_cycles_;
        res.schedule.used_cascade = best_casc_;
        res.schedule.length = best_len_;
        res.schedule.issue_order = best_order_;
        res.options = best_options_;
        res.improved = best_len_ < incumbent->length;
    } else {
        res.schedule = *incumbent;
    }
    res.proven_optimal = proven;
    res.lower_bound = proven ? res.schedule.length : root_lb_;

    stats.ops_scheduled += n_;
    stats.total_schedule_length += uint64_t(res.schedule.length);

    if (span.active()) {
        span.counter("ops", n_);
        span.counter("nodes", res.nodes);
        span.counter("bound_prunes", res.bound_prunes);
        span.counter("dominance_prunes", res.dominance_prunes);
        span.counter("probes", res.probes);
        span.counter("length", uint64_t(res.schedule.length));
        span.counter("lower_bound", uint64_t(res.lower_bound));
        span.counter("proven", res.proven_optimal ? 1 : 0);
    }
    result_ = nullptr;
    stats_ = nullptr;
    return res;
}

} // namespace mdes::exact

#include "exact/exact_scheduler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <climits>
#include <stdexcept>

#include "support/trace.h"

namespace mdes::exact {

namespace {

/** Probe-propagation cap per search node: bounds the eachSubtreeFits()
 * work a single bound computation may spend sharpening earliest
 * starts. */
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

/** Usage masks at one (offset, word) of an option. */
struct Usage
{
    int32_t offset;
    uint32_t word;
    uint64_t mask;
};

/** One option's usages, one entry per (offset, word). */
using OptionUsages = std::vector<Usage>;

/** A candidate group: instances @p key at offsets [lo, hi]. */
struct Candidate
{
    std::vector<uint64_t> key;
    int32_t lo = 0;
    int32_t hi = 0;

    bool operator==(const Candidate &) const = default;
};

/** The distinct (instance, offset) usages of @p opt inside @p c. */
uint32_t
usagesInside(const OptionUsages &opt, const Candidate &c)
{
    uint32_t count = 0;
    for (const Usage &u : opt)
        if (u.offset >= c.lo && u.offset <= c.hi)
            count += uint32_t(std::popcount(u.mask & c.key[u.word]));
    return count;
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

    // Every OR subtree the op classes' trees reference, each option
    // folded to one mask per (offset, word).
    std::vector<uint32_t> sub_ids;
    std::vector<std::vector<OptionUsages>> subs;
    auto intern_sub = [&](uint32_t or_id) {
        size_t s = std::find(sub_ids.begin(), sub_ids.end(), or_id)
                   - sub_ids.begin();
        if (s < sub_ids.size())
            return s;
        sub_ids.push_back(or_id);
        const auto &sub = low_.orTrees()[or_id];
        auto &opts = subs.emplace_back(sub.num_options);
        for (uint32_t o = 0; o < sub.num_options; ++o) {
            const auto &opt =
                low_.options()[low_.optionRefs()[sub.first_option_ref + o]];
            for (uint32_t ci = 0; ci < opt.num_checks; ++ci) {
                const auto &chk = low_.checks()[opt.first_check + ci];
                Usage u;
                decomposeSlot(chk.slot, words, u.offset, u.word);
                auto same = std::find_if(
                    opts[o].begin(), opts[o].end(), [&](const Usage &v) {
                        return v.offset == u.offset && v.word == u.word;
                    });
                if (same != opts[o].end())
                    same->mask |= chk.mask;
                else
                    opts[o].push_back({u.offset, u.word, chk.mask});
            }
        }
        return s;
    };
    // Each tree as its subtrees' indices into subs.
    auto tree_subs = [&](uint32_t t) {
        std::vector<size_t> out;
        if (t == kInvalidId)
            return out;
        const auto &tree = low_.trees()[t];
        for (uint32_t k = 0; k < tree.num_or_trees; ++k)
            out.push_back(intern_sub(low_.orRefs()[tree.first_or_ref + k]));
        return out;
    };
    const auto &classes = low_.opClasses();
    std::vector<std::vector<size_t>> normal_subs(classes.size());
    std::vector<std::vector<size_t>> cascade_subs(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
        normal_subs[c] = tree_subs(classes[c].tree);
        cascade_subs[c] = tree_subs(classes[c].cascade_tree);
    }

    // Candidates: each subtree's instances over its whole offset spread,
    // and the instances it uses at each single offset.
    std::vector<Candidate> cands;
    auto add = [&](Candidate c) {
        if (std::find(cands.begin(), cands.end(), c) == cands.end())
            cands.push_back(std::move(c));
    };
    for (const auto &opts : subs) {
        Candidate whole{std::vector<uint64_t>(words), INT32_MAX, INT32_MIN};
        for (const auto &opt : opts)
            for (const Usage &u : opt) {
                whole.key[u.word] |= u.mask;
                whole.lo = std::min(whole.lo, u.offset);
                whole.hi = std::max(whole.hi, u.offset);
            }
        if (whole.lo > whole.hi)
            continue;
        for (int32_t d = whole.lo; d <= whole.hi; ++d) {
            Candidate at{std::vector<uint64_t>(words), d, d};
            for (const auto &opt : opts)
                for (const Usage &u : opt)
                    if (u.offset == d)
                        at.key[u.word] |= u.mask;
            if (at.key != std::vector<uint64_t>(words))
                add(std::move(at));
        }
        add(std::move(whole));
    }

    // A subtree's demand on a candidate: the fewest usages any of its
    // options places inside it. The options chosen in one attempt never
    // share a slot (the checker's pending overlay), and no two ops do,
    // so the demands of a tree's subtrees and of many ops add up.
    std::vector<std::vector<uint32_t>> sub_demand(subs.size());
    for (size_t s = 0; s < subs.size(); ++s) {
        sub_demand[s].resize(cands.size());
        for (size_t g = 0; g < cands.size(); ++g) {
            uint32_t fewest = subs[s].empty() ? 0 : UINT32_MAX;
            for (const auto &opt : subs[s])
                fewest = std::min(fewest, usagesInside(opt, cands[g]));
            sub_demand[s][g] = fewest;
        }
    }
    auto tree_demand = [&](const std::vector<size_t> &tsubs) {
        std::vector<uint32_t> dem(cands.size(), 0);
        for (size_t s : tsubs)
            for (size_t g = 0; g < cands.size(); ++g)
                dem[g] += sub_demand[s][g];
        return dem;
    };
    class_demand_.resize(classes.size());
    for (size_t c = 0; c < classes.size(); ++c) {
        auto &cd = class_demand_[c];
        cd.normal = tree_demand(normal_subs[c]);
        cd.either = cd.normal;
        if (classes[c].cascade_tree != kInvalidId) {
            std::vector<uint32_t> casc = tree_demand(cascade_subs[c]);
            for (size_t g = 0; g < cands.size(); ++g)
                cd.either[g] = std::min(cd.either[g], casc[g]);
        }
    }

    std::vector<Group> all(cands.size());
    for (size_t g = 0; g < cands.size(); ++g) {
        int32_t size = 0;
        for (uint64_t w : cands[g].key)
            size += std::popcount(w);
        all[g].size = size;
        all[g].width = cands[g].hi - cands[g].lo;
    }

    // Keep a group only if some class demands it and no other group
    // dominates it: no wider, and no smaller demand per instance for
    // any class, cascading or not. Such a group bounds every block at
    // least as high. Of two equal groups the earlier stays.
    auto dominates = [&](size_t a, size_t b) {
        if (all[a].width > all[b].width)
            return false;
        const uint64_t sa = uint64_t(all[a].size);
        const uint64_t sb = uint64_t(all[b].size);
        for (const auto &cd : class_demand_)
            if (cd.normal[a] * sb < cd.normal[b] * sa
                || cd.either[a] * sb < cd.either[b] * sa)
                return false;
        return true;
    };
    std::vector<size_t> kept;
    for (size_t g = 0; g < cands.size(); ++g) {
        bool demanded = false;
        for (const auto &cd : class_demand_)
            demanded |= cd.normal[g] != 0;
        if (!demanded)
            continue;
        bool dominated = false;
        for (size_t o = 0; o < cands.size() && !dominated; ++o)
            dominated = o != g && dominates(o, g)
                        && (o < g || !dominates(g, o));
        if (!dominated)
            kept.push_back(g);
    }
    for (size_t k = 0; k < kept.size(); ++k)
        groups_.push_back(all[kept[k]]);
    for (auto &cd : class_demand_) {
        for (size_t k = 0; k < kept.size(); ++k) {
            cd.normal[k] = cd.normal[kept[k]];
            cd.either[k] = cd.either[kept[k]];
        }
        cd.normal.resize(kept.size());
        cd.either.resize(kept.size());
    }
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
ExactScheduler::mayIssueAt(uint32_t u, int32_t cycle)
{
    const auto &cls = low_.opClasses()[block_instr_class_[u]];
    ++result_->probes;
    if (checker_.eachSubtreeFits(cls.tree, cycle, ru_, &stats_->checks))
        return true;
    if (!can_casc_[u])
        return false;
    ++result_->probes;
    return checker_.eachSubtreeFits(cls.cascade_tree, cycle, ru_,
                                    &stats_->checks);
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

    // Probe propagation: bump the critical op's earliest start while
    // the map proves it cannot issue there. Sound within this subtree:
    // the RU map only grows below this node, and a fuller map never
    // lets eachSubtreeFits() say yes where it said no.
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
        if (mayIssueAt(crit, est_[crit]))
            break;
        ++est_[crit];
        lb = std::max(lb, est_[crit] + h_[crit] + 1);
    }
    return lb;
}

int32_t
ExactScheduler::energeticBound()
{
    // A schedule of length L issues each op u inside
    // [est_[u], L - 1 - h_[u]]; est_ holds the root's earliest starts.
    // The ops released at a or later whose tail is at least t all issue
    // inside [a, L - 1 - t], so their usages of a group fit into
    // L - a - t + width of its cycles. Hence
    // L >= a + t - width + ceil(demand / size) for every a and t.
    // Walking the ops by descending tail visits every threshold t.
    by_tail_.resize(n_);
    for (uint32_t u = 0; u < n_; ++u)
        by_tail_[u] = u;
    std::sort(by_tail_.begin(), by_tail_.end(),
              [&](uint32_t x, uint32_t y) { return h_[x] > h_[y]; });
    releases_.assign(est_.begin(), est_.begin() + n_);
    std::sort(releases_.begin(), releases_.end());
    releases_.erase(std::unique(releases_.begin(), releases_.end()),
                    releases_.end());

    int32_t lb = 0;
    for (size_t g = 0; g < groups_.size(); ++g) {
        if (!rem_demand_[g])
            continue;
        const Group &grp = groups_[g];
        for (int32_t a : releases_) {
            uint64_t dem = 0;
            for (uint32_t k = 0; k < n_; ++k) {
                const uint32_t u = by_tail_[k];
                if (est_[u] >= a)
                    dem += (*op_demand_[u])[g];
                if (!dem || (k + 1 < n_ && h_[by_tail_[k + 1]] == h_[u]))
                    continue;
                int32_t need = int32_t((dem + uint64_t(grp.size) - 1)
                                       / uint64_t(grp.size));
                lb = std::max(lb, a + h_[u] + need - grp.width);
            }
        }
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
    ExactResult res = rootBound(block, stats, incumbent->length);
    if (!res.proven_optimal)
        search(res, stats, opts);
    if (!res.improved)
        res.schedule = *incumbent;
    stats.ops_scheduled += block.instrs.size();
    stats.total_schedule_length += uint64_t(res.schedule.length);
    return res;
}

ExactResult
ExactScheduler::rootBound(const sched::Block &block,
                          sched::SchedStats &stats, int32_t cap)
{
    ExactResult res;
    n_ = uint32_t(block.instrs.size());
    root_lb_ = 0;
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
    result_ = &res;
    stats_ = &stats;
    best_len_ = cap;

    root_lb_ = std::max(computeBound(0), 1);
    if (root_lb_ < cap)
        root_lb_ = std::max(root_lb_, energeticBound());
    res.proven_optimal = cap <= root_lb_;
    res.lower_bound = std::min(root_lb_, cap);

    result_ = nullptr;
    stats_ = nullptr;
    return res;
}

void
ExactScheduler::search(ExactResult &res, sched::SchedStats &stats,
                       const ExactOptions &opts)
{
    const sched::BlockSchedule *incumbent = opts.incumbent;
    if (!incumbent || incumbent->cycles.size() != n_)
        throw std::invalid_argument(
            "exact search needs an incumbent with one cycle per "
            "instruction");
    TRACE_SPAN_F(span, "exact/search");
    result_ = &res;
    stats_ = &stats;
    best_len_ = incumbent->length;
    have_best_ = false;
    done_ = false;

    bool completed = true;
    if (best_len_ > root_lb_) {
        node_limit_ = opts.max_nodes;
        deadline_us_ =
            opts.time_budget_us > 0 ? nowUs() + opts.time_budget_us : 0;
        cancel_ = &opts.cancel;
        completed = dfs(0, 0);
        cancel_ = nullptr;
    }

    if (have_best_) {
        // Every schedule the search records is strictly shorter than
        // the incumbent (see dfs()).
        res.schedule.cycles = best_cycles_;
        res.schedule.used_cascade = best_casc_;
        res.schedule.length = best_len_;
        res.schedule.issue_order = best_order_;
        res.options = best_options_;
        res.improved = true;
    }
    res.proven_optimal = completed || done_;
    res.lower_bound = res.proven_optimal ? best_len_ : root_lb_;

    if (span.active()) {
        span.counter("ops", n_);
        span.counter("nodes", res.nodes);
        span.counter("bound_prunes", res.bound_prunes);
        span.counter("dominance_prunes", res.dominance_prunes);
        span.counter("probes", res.probes);
        span.counter("length", uint64_t(best_len_));
        span.counter("lower_bound", uint64_t(res.lower_bound));
        span.counter("proven", res.proven_optimal ? 1 : 0);
    }
    result_ = nullptr;
    stats_ = nullptr;
}

} // namespace mdes::exact

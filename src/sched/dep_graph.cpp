#include "sched/dep_graph.h"

#include <algorithm>
#include <numeric>

namespace mdes::sched {

DepGraph
DepGraph::build(const Block &block, const lmdes::LowMdes &low,
                DepScope scope)
{
    DepGraph g;
    g.rebuild(block, low, scope);
    return g;
}

DepGraph::RegState &
DepGraph::regState(int32_t r)
{
    for (size_t i = 0; i < reg_live_; ++i) {
        if (reg_scratch_[i].reg == r)
            return reg_scratch_[i];
    }
    if (reg_live_ == reg_scratch_.size())
        reg_scratch_.emplace_back();
    RegState &st = reg_scratch_[reg_live_++];
    st.reg = r;
    st.has_writer = false;
    st.readers.clear();
    return st;
}

void
DepGraph::rebuild(const Block &block, const lmdes::LowMdes &low,
                  DepScope scope)
{
    constexpr uint32_t kNone = UINT32_MAX;
    const uint32_t n = uint32_t(block.instrs.size());
    edges_.clear();
    newest_.assign(n, kNone);
    in_.resize(n + 1);
    out_begin_.assign(n + 1, 0);
    reg_live_ = 0;

    // Each pass emits edges in ascending successor order, so a repeated
    // (pred, succ, omega) is the newest edge leaving pred. The stronger
    // edge wins; a non-relaxable one beats a relaxable one of equal
    // length. Within one iteration no op depends on itself.
    auto addEdge = [&](uint32_t pred, uint32_t succ, int32_t dist,
                       bool relax, uint8_t omega) {
        if (pred == succ && omega == 0)
            return;
        uint32_t &newest = newest_[pred];
        if (newest != kNone && edges_[newest].succ == succ &&
            edges_[newest].omega == omega) {
            DepEdge &edge = edges_[newest];
            if (dist > edge.min_dist) {
                edge.min_dist = dist;
                edge.cascade_relax = relax;
            } else if (dist == edge.min_dist && !relax) {
                edge.cascade_relax = false;
            }
            return;
        }
        newest = uint32_t(edges_.size());
        ++out_begin_[pred];
        edges_.push_back({pred, succ, dist, relax, omega});
    };

    for (uint32_t i = 0; i < n; ++i) {
        in_[i] = uint32_t(edges_.size()); // preds(i) starts here
        const Instr &in = block.instrs[i];
        for (int32_t r : in.srcs) {
            RegState &st = regState(r);
            if (st.has_writer) {
                const Instr &producer = block.instrs[st.last_writer];
                int32_t lat =
                    low.flowLatency(producer.op_class, in.op_class);
                bool relax = in.cascadable && lat == 1;
                addEdge(st.last_writer, i, lat, relax, 0);
            }
            st.readers.push_back(i);
        }
        for (int32_t r : in.dsts) {
            RegState &st = regState(r);
            if (st.has_writer)
                addEdge(st.last_writer, i, 1, false, 0); // WAW
            else
                st.first_writer = i;
            for (uint32_t reader : st.readers) {
                if (reader != i)
                    addEdge(reader, i, 0, false, 0); // WAR
            }
            st.readers.clear();
            st.last_writer = i;
            st.has_writer = true;
        }
    }

    if (scope == DepScope::Block) {
        // Control: the terminating branch issues no earlier than
        // anything.
        if (n > 0 && block.instrs[n - 1].is_branch) {
            for (uint32_t i = 0; i + 1 < n; ++i)
                addEdge(i, n - 1, 0, false, 0);
        }
    } else {
        // Loop-carried edges into each instruction in turn. What is
        // left of each register's readers is its reads after its last
        // writer l; a read at l itself needs no WAR l -> f, as the WAW
        // l -> f is longer.
        for (uint32_t v = 0; v < n; ++v) {
            const Instr &in = block.instrs[v];
            for (int32_t r : in.srcs) {
                const RegState &st = regState(r);
                if (st.has_writer && v <= st.last_writer) {
                    const Instr &producer = block.instrs[st.last_writer];
                    addEdge(st.last_writer, v,
                            low.flowLatency(producer.op_class, in.op_class),
                            false, 1); // RAW
                }
            }
            for (int32_t r : in.dsts) {
                const RegState &st = regState(r);
                if (st.first_writer != v)
                    continue;
                for (uint32_t reader : st.readers)
                    addEdge(reader, v, 0, false, 1);    // WAR
                addEdge(st.last_writer, v, 1, false, 1); // WAW
            }
        }
        // They follow the flat edges: regroup all by successor.
        std::ranges::stable_sort(edges_, {}, &DepEdge::succ);
        for (uint32_t u = 0; u < n; ++u)
            in_[u] = uint32_t(
                std::ranges::lower_bound(edges_, u, {}, &DepEdge::succ) -
                edges_.begin());
    }
    in_[n] = uint32_t(edges_.size());
    // succs: edge indices counting-sorted by predecessor, stable.
    std::partial_sum(out_begin_.begin(), out_begin_.end(),
                     out_begin_.begin());
    out_.resize(edges_.size());
    for (uint32_t i = uint32_t(edges_.size()); i-- > 0;)
        out_[--out_begin_[edges_[i].pred]] = i;

    // Critical-path priorities, computed backwards (omega-0 edges point
    // forward in program order, so a reverse scan sees all successors
    // first).
    priorities_.assign(n, 0);
    for (uint32_t u = n; u-- > 0;) {
        int32_t h = low.opClasses()[block.instrs[u].op_class].latency;
        for (const DepEdge &e : succs(u)) {
            if (e.omega == 0)
                h = std::max(h, e.min_dist + priorities_[e.succ]);
        }
        priorities_[u] = h;
    }
}

} // namespace mdes::sched

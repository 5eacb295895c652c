#ifndef MDES_SCHED_DEP_GRAPH_H
#define MDES_SCHED_DEP_GRAPH_H

/**
 * @file
 * The dependence graph of a basic block or a loop body: the one graph
 * the list, exact and modulo passes read (DESIGN.md §2.7).
 *
 * Edges:
 *  - RAW (flow): consumer no earlier than producer + producer latency.
 *    When the consumer is cascadable and the producer is a single-cycle
 *    operation, the edge may *relax to distance zero* provided the
 *    consumer is scheduled with its cascade reservation table (the
 *    SuperSPARC's cascaded-IALU feature; the paper selects the table
 *    "based on an operation's incoming dependence distances").
 *  - WAR (anti): writer no earlier than reader (distance 0).
 *  - WAW (output): writer no earlier than previous writer + 1.
 *  - Control: a block-terminating branch is kept last (distance 0 from
 *    every other operation). Block scope only.
 *  - Loop-carried (loop scope only, omega 1), per register with first
 *    writer f and last writer l: RAW l -> i for every read i <= l, WAR
 *    i -> f for every read i >= l, and WAW l -> f.
 */

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "lmdes/low_mdes.h"
#include "sched/ir.h"

namespace mdes::sched {

/** One dependence edge. */
struct DepEdge
{
    uint32_t pred = 0;
    uint32_t succ = 0;
    /** Minimum scheduled-cycle distance succ - pred (+ II * omega). */
    int32_t min_dist = 0;
    /** RAW edge that shrinks to 0 when the successor cascades. */
    bool cascade_relax = false;
    /** Iteration distance: 1 for a loop-carried edge, else 0. */
    uint8_t omega = 0;
};

/** Maps an edge index to its edge. */
struct EdgeAt
{
    const DepEdge *edges = nullptr;
    const DepEdge &operator()(uint32_t e) const { return edges[e]; }
};

/** The edges leaving an instruction, in edge order. */
using EdgeList =
    std::ranges::transform_view<std::span<const uint32_t>, EdgeAt>;

/** What a graph spans: one pass through a block, or a loop body. */
enum class DepScope : uint8_t
{
    Block,
    Loop,
};

/** The dependence graph of one basic block or loop body. */
class DepGraph
{
  public:
    /** Build the graph for @p block using latencies from @p low. */
    static DepGraph build(const Block &block, const lmdes::LowMdes &low,
                          DepScope scope = DepScope::Block);

    /**
     * Rebuild this graph for @p block in place, reusing storage from
     * earlier builds. Schedulers keep one DepGraph per scheduler and
     * rebuild it per block (blocks are small, so the allocations
     * dominate a from-scratch build).
     */
    void rebuild(const Block &block, const lmdes::LowMdes &low,
                 DepScope scope = DepScope::Block);

    /** Every edge, one per (pred, succ, omega), grouped by successor in
     * ascending order (a block's in the order the builder found them). */
    const std::vector<DepEdge> &edges() const { return edges_; }

    /** Edges entering instruction @p u; valid until the next rebuild. */
    std::span<const DepEdge>
    preds(uint32_t u) const
    {
        return std::span(edges_).subspan(in_[u], in_[u + 1] - in_[u]);
    }

    /** Edges leaving instruction @p u; valid until the next rebuild. */
    EdgeList
    succs(uint32_t u) const
    {
        return EdgeList(std::span<const uint32_t>(out_).subspan(
                            out_begin_[u], out_begin_[u + 1] - out_begin_[u]),
                        EdgeAt{edges_.data()});
    }

    /**
     * Critical-path priority of each instruction: the longest distance
     * over omega-0 edges (by min_dist, plus the op's own latency at the
     * leaves) to any graph sink. Higher schedules first.
     */
    const std::vector<int32_t> &priorities() const { return priorities_; }

  private:
    /** First and last writer and readers-since-last-write of one
     * register. Blocks touch a handful of registers, so a linearly
     * scanned flat list beats a node-allocating map; entries (and their
     * readers vectors) are recycled across rebuilds. */
    struct RegState
    {
        int32_t reg = 0;
        uint32_t first_writer = 0;
        uint32_t last_writer = 0;
        bool has_writer = false;
        std::vector<uint32_t> readers;
    };

    RegState &regState(int32_t r);

    /** The CSR: preds(u) is edges_[in_[u] .. in_[u + 1]), and succs(u)
     * the edges_ indexed by out_[out_begin_[u] .. out_begin_[u + 1]). */
    std::vector<DepEdge> edges_;
    std::vector<uint32_t> in_;
    std::vector<uint32_t> out_begin_;
    std::vector<uint32_t> out_;
    std::vector<int32_t> priorities_;
    /** The newest edge leaving each instruction, for merging. */
    std::vector<uint32_t> newest_;
    std::vector<RegState> reg_scratch_;
    size_t reg_live_ = 0;
};

} // namespace mdes::sched

#endif // MDES_SCHED_DEP_GRAPH_H

#ifndef MDES_SCHED_IR_H
#define MDES_SCHED_IR_H

/**
 * @file
 * The minimal compiler IR the scheduler operates on: operations with
 * register operands grouped into basic blocks. This is the substrate
 * standing in for the paper's per-platform SPEC CINT92 assembly (see
 * DESIGN.md §2.5): resource-constraint checking only cares about each
 * operation's class (reservation alternatives + latency) and its
 * dependences, both of which this IR carries.
 *
 * A Program is flat (DESIGN.md §2.6): one op array and one operand
 * pool, with blocks and operand lists as views into them. Only
 * ProgramBuilder writes one.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace mdes::sched {

/** One operation instance in a basic block. */
struct Instr
{
    /** Index into the LowMdes operation-class table. */
    uint32_t op_class = 0;
    /** Registers read, in source order (a view of the operand pool). */
    std::span<const int32_t> srcs;
    /** Registers written, in source order (a view of the operand pool). */
    std::span<const int32_t> dsts;
    /**
     * May use its class's cascade reservation table to execute in the
     * same cycle as a flow-dependent producer (SuperSPARC cascaded IALU).
     */
    bool cascadable = false;
    /** Block-terminating branch: must not be scheduled before any other
     * operation of the block completes issue ordering constraints. */
    bool is_branch = false;
};

/** A basic block: the unit of local list scheduling. */
struct Block
{
    /** A run of the owning program's op array. */
    std::span<const Instr> instrs;
};

class ProgramBuilder;

/** A program's blocks in program order; read-only outside the builder. */
class BlockList
{
  public:
    size_t size() const { return blocks_.size(); }
    bool empty() const { return blocks_.empty(); }
    const Block &operator[](size_t i) const { return blocks_[i]; }
    std::vector<Block>::const_iterator begin() const { return blocks_.begin(); }
    std::vector<Block>::const_iterator end() const { return blocks_.end(); }

  private:
    friend class ProgramBuilder;
    std::vector<Block> blocks_;
};

/**
 * A whole program: one op array, one operand pool and the blocks that
 * view them. It moves but does not copy: a moved vector keeps its
 * buffer, so every view stays valid, while a copy would view its
 * source's arrays.
 */
class Program
{
  public:
    Program() = default;
    Program(Program &&) noexcept = default;
    Program &operator=(Program &&) noexcept = default;
    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    BlockList blocks;

    size_t numOps() const { return ops_.size(); }

  private:
    friend class ProgramBuilder;
    std::vector<Instr> ops_;
    std::vector<int32_t> operands_;
};

static_assert(!std::is_copy_constructible_v<Program> &&
                  !std::is_copy_assignable_v<Program>,
              "a copied Program would view its source's arrays");

/**
 * The only writer of a Program. Operations are appended to an open
 * block; endBlock() closes it. Operand lists are copied into the pool,
 * and finish() points every view at the arrays once they stop growing.
 */
class ProgramBuilder
{
  public:
    /** Room for @p ops operations holding @p operands operands. */
    void
    reserve(size_t ops, size_t operands)
    {
        program_.ops_.reserve(ops);
        counts_.reserve(ops);
        program_.operands_.reserve(operands);
    }

    /** Append an operation to the open block. */
    void
    add(uint32_t op_class, std::span<const int32_t> srcs,
        std::span<const int32_t> dsts, bool cascadable = false,
        bool is_branch = false)
    {
        program_.ops_.push_back({op_class, {}, {}, cascadable, is_branch});
        counts_.push_back({srcs.size(), dsts.size()});
        std::vector<int32_t> &pool = program_.operands_;
        pool.insert(pool.end(), srcs.begin(), srcs.end());
        pool.insert(pool.end(), dsts.begin(), dsts.end());
    }

    /** Operations appended to the open block so far. */
    size_t openOps() const { return program_.ops_.size() - block_first_; }

    /** Close the open block; one with no operations adds no block. */
    void
    endBlock()
    {
        if (openOps() == 0)
            return;
        block_first_ = program_.ops_.size();
        block_ends_.push_back(block_first_);
    }

    /** Close the open block and hand over the program; the builder
     * starts over empty. */
    Program
    finish()
    {
        endBlock();
        const int32_t *operand = program_.operands_.data();
        for (size_t i = 0; i < counts_.size(); ++i) {
            Instr &in = program_.ops_[i];
            in.srcs = {operand, counts_[i].srcs};
            operand += counts_[i].srcs;
            in.dsts = {operand, counts_[i].dsts};
            operand += counts_[i].dsts;
        }
        std::vector<Block> &blocks = program_.blocks.blocks_;
        blocks.reserve(block_ends_.size());
        const Instr *first = program_.ops_.data();
        for (size_t end : block_ends_) {
            const Instr *last = program_.ops_.data() + end;
            blocks.push_back({{first, last}});
            first = last;
        }
        Program program = std::move(program_);
        *this = {};
        return program;
    }

  private:
    /** Operand counts of one appended operation. */
    struct Counts
    {
        size_t srcs;
        size_t dsts;
    };

    Program program_;
    std::vector<Counts> counts_;
    /** One past the last operation of each closed block. */
    std::vector<size_t> block_ends_;
    size_t block_first_ = 0;
};

} // namespace mdes::sched

#endif // MDES_SCHED_IR_H

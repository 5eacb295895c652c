#ifndef MDES_TESTS_TEST_PROGRAM_H
#define MDES_TESTS_TEST_PROGRAM_H

/**
 * @file
 * Hand-written blocks for scheduler tests: operations spelled inline,
 * built into a sched::Program through sched::ProgramBuilder.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/ir.h"

namespace mdes::testing {

/** One operation as a test spells it. */
struct Op
{
    uint32_t op_class = 0;
    std::vector<int32_t> srcs;
    std::vector<int32_t> dsts;
    bool cascadable = false;
    bool is_branch = false;
};

inline Op
instr(uint32_t cls, std::vector<int32_t> srcs, std::vector<int32_t> dsts,
      bool cascadable = false, bool is_branch = false)
{
    return {cls, std::move(srcs), std::move(dsts), cascadable, is_branch};
}

/** A program whose one block holds @p ops. */
inline sched::Program
oneBlock(const std::vector<Op> &ops)
{
    sched::ProgramBuilder builder;
    for (const Op &op : ops) {
        builder.add(op.op_class, op.srcs, op.dsts, op.cascadable,
                    op.is_branch);
    }
    return builder.finish();
}

} // namespace mdes::testing

#endif // MDES_TESTS_TEST_PROGRAM_H

/**
 * @file
 * Workload-generator tests: determinism, mix fidelity, block structure,
 * register-operand shape, error handling, the pinned content of the
 * generated streams, and a program's survival of moves.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "exp/runner.h"
#include "hmdes/compile.h"
#include "machines/machines.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "workload/sasm.h"
#include "workload/workload.h"

namespace mdes {
namespace {

lmdes::LowMdes
lowFor(const machines::MachineInfo &info)
{
    Mdes m = hmdes::compileOrThrow(info.source);
    return lmdes::LowMdes::lower(m, {});
}

TEST(Workload, DeterministicForSameSeed)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto a = workload::generate(spec, low);
    auto b = workload::generate(spec, low);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        ASSERT_EQ(a.blocks[i].instrs.size(), b.blocks[i].instrs.size());
        for (size_t j = 0; j < a.blocks[i].instrs.size(); ++j) {
            EXPECT_EQ(a.blocks[i].instrs[j].op_class,
                      b.blocks[i].instrs[j].op_class);
            EXPECT_TRUE(std::ranges::equal(a.blocks[i].instrs[j].srcs,
                                           b.blocks[i].instrs[j].srcs));
        }
    }
}

TEST(Workload, DifferentSeedsDiffer)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 2000;
    auto a = workload::generate(spec, low);
    spec.seed ^= 0xDEAD;
    auto b = workload::generate(spec, low);
    bool differ = a.blocks.size() != b.blocks.size();
    for (size_t i = 0; !differ && i < a.blocks.size(); ++i) {
        differ = a.blocks[i].instrs.size() != b.blocks[i].instrs.size();
        for (size_t j = 0; !differ && j < a.blocks[i].instrs.size(); ++j)
            differ = a.blocks[i].instrs[j].op_class !=
                     b.blocks[i].instrs[j].op_class;
    }
    EXPECT_TRUE(differ);
}

TEST(Workload, ReachesRequestedSize)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec = machines::pa7100().workload;
    spec.num_ops = 33333;
    auto program = workload::generate(spec, low);
    EXPECT_GE(program.numOps(), 33333u);
    EXPECT_LT(program.numOps(), 33333u + spec.max_block_size + 2u);
}

TEST(Workload, BlocksEndWithOneBranch)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        ASSERT_FALSE(block.instrs.empty());
        EXPECT_TRUE(block.instrs.back().is_branch);
        for (size_t i = 0; i + 1 < block.instrs.size(); ++i)
            EXPECT_FALSE(block.instrs[i].is_branch);
    }
}

TEST(Workload, BlockSizesWithinBounds)
{
    auto low = lowFor(machines::k5());
    workload::WorkloadSpec spec = machines::k5().workload;
    spec.num_ops = 20000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        // body in [min, max] plus the branch.
        EXPECT_GE(block.instrs.size(), size_t(spec.min_block_size) + 1);
        EXPECT_LE(block.instrs.size(), size_t(spec.max_block_size) + 1);
    }
}

TEST(Workload, OperandCountsFollowTheMix)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    std::map<std::string, std::pair<int, int>> expected;
    for (const auto &mix : spec.classes)
        expected[mix.op_class] = {mix.num_srcs, mix.num_dsts};
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            const auto &name = low.opClasses()[in.op_class].name;
            auto [srcs, dsts] = expected.at(name);
            EXPECT_EQ(in.srcs.size(), size_t(srcs)) << name;
            EXPECT_EQ(in.dsts.size(), size_t(dsts)) << name;
        }
    }
}

TEST(Workload, RegistersWithinRange)
{
    auto low = lowFor(machines::pentium());
    workload::WorkloadSpec spec = machines::pentium().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            for (int32_t r : in.srcs) {
                EXPECT_GE(r, 0);
                EXPECT_LT(r, spec.num_regs);
            }
            for (int32_t r : in.dsts) {
                EXPECT_GE(r, 0);
                EXPECT_LT(r, spec.num_regs);
            }
        }
    }
}

TEST(Workload, MixFrequenciesApproximatelyRespected)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 100000;
    auto program = workload::generate(spec, low);

    std::map<uint32_t, size_t> counts;
    size_t body_total = 0;
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            if (!in.is_branch) {
                ++counts[in.op_class];
                ++body_total;
            }
        }
    }
    double body_weight = 0;
    for (const auto &mix : spec.classes) {
        if (!mix.is_branch)
            body_weight += mix.weight;
    }
    for (const auto &mix : spec.classes) {
        if (mix.is_branch)
            continue;
        uint32_t cls = low.findOpClass(mix.op_class);
        double want = mix.weight / body_weight;
        double got = double(counts[cls]) / double(body_total);
        EXPECT_NEAR(got, want, 0.02) << mix.op_class;
    }
}

TEST(Workload, UnknownClassNameThrows)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec;
    spec.classes = {{"NO_SUCH_OP", 1.0, 1, 1, false, false}};
    EXPECT_THROW(workload::generate(spec, low), MdesError);
}

TEST(Workload, NoBodyClassesThrows)
{
    auto low = lowFor(machines::pa7100());
    workload::WorkloadSpec spec;
    spec.classes = {{"B", 1.0, 0, 0, false, true}};
    EXPECT_THROW(workload::generate(spec, low), MdesError);
}

TEST(Workload, CascadableFlagPropagates)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 5000;
    auto program = workload::generate(spec, low);
    uint32_t add_i = low.findOpClass("ADD_I");
    uint32_t sethi = low.findOpClass("SETHI");
    for (const auto &block : program.blocks) {
        for (const auto &in : block.instrs) {
            if (in.op_class == add_i) {
                EXPECT_TRUE(in.cascadable);
            }
            if (in.op_class == sethi) {
                EXPECT_FALSE(in.cascadable);
            }
        }
    }
}

/**
 * FNV-1a over everything a scheduler reads from a program: the block
 * boundaries, each op's class, its srcs and dsts in order, and both
 * flags.
 */
uint64_t
contentHash(const sched::Program &program)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i, v >>= 8) {
            h ^= v & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const sched::Block &block : program.blocks) {
        mix(block.instrs.size());
        for (const sched::Instr &in : block.instrs) {
            mix(in.op_class);
            mix(in.srcs.size());
            for (int32_t r : in.srcs)
                mix(uint32_t(r));
            mix(in.dsts.size());
            for (int32_t r : in.dsts)
                mix(uint32_t(r));
            mix(uint64_t(in.cascadable) | uint64_t(in.is_branch) << 1);
        }
    }
    return h;
}

sched::Program
roundTrip(const sched::Program &program, const lmdes::LowMdes &low)
{
    return workload::parseSasmOrThrow(workload::formatSasm(program, low),
                                      low);
}

/** The expected content of both generators' streams. A change here
 * changes every schedule fingerprint downstream. */
struct PinnedStream
{
    const char *machine;
    uint64_t seed;
    uint64_t generate;
    uint64_t loops;
};

const PinnedStream kPinned[] = {
    {"PA7100", 1, 0xd8937c03f8abeb74ULL, 0x19e7b092ec1c3ad4ULL},
    {"PA7100", 906, 0xfd089ced69f68348ULL, 0xe8e9ecedba2f8592ULL},
    {"Pentium", 1, 0x3ca0cac71163e419ULL, 0x5e2dbab02244e11eULL},
    {"Pentium", 906, 0x6de066007e6e6d3aULL, 0xe7f28528a8a28373ULL},
    {"SuperSPARC", 1, 0x145cf7c157f799ccULL, 0x00054fd408715a77ULL},
    {"SuperSPARC", 906, 0x7868ccc0e8a29129ULL, 0x5497dccc5300399aULL},
    {"K5", 1, 0x8fe62bea896be935ULL, 0xaaed56b529e876d7ULL},
    {"K5", 906, 0x38ba8b000d9b65a5ULL, 0xea54e675872a279bULL},
};

TEST(Workload, StreamsArePinned)
{
    for (const PinnedStream &pin : kPinned) {
        const machines::MachineInfo *info = machines::byName(pin.machine);
        ASSERT_NE(info, nullptr) << pin.machine;
        auto low = lowFor(*info);
        workload::WorkloadSpec spec = info->workload;
        spec.num_ops = 3000;
        spec.seed = pin.seed;
        sched::Program program = workload::generate(spec, low);
        sched::Program loops = workload::generateLoops(spec, low);
        EXPECT_EQ(contentHash(program), pin.generate)
            << pin.machine << " seed " << pin.seed;
        EXPECT_EQ(contentHash(loops), pin.loops)
            << pin.machine << " seed " << pin.seed;
        EXPECT_EQ(contentHash(roundTrip(program, low)), pin.generate)
            << pin.machine << " seed " << pin.seed;
        EXPECT_EQ(contentHash(roundTrip(loops, low)), pin.loops)
            << pin.machine << " seed " << pin.seed;
    }
}

TEST(Workload, ProgramSurvivesMoves)
{
    auto low = lowFor(machines::superSparc());
    workload::WorkloadSpec spec = machines::superSparc().workload;
    spec.num_ops = 2000;
    const uint64_t want = contentHash(workload::generate(spec, low));
    auto schedulesAndVerifies = [&](const sched::Program &program) {
        EXPECT_EQ(contentHash(program), want);
        sched::SchedStats stats;
        auto schedules =
            sched::ListScheduler(low).scheduleProgram(program, stats);
        ASSERT_EQ(schedules.size(), program.blocks.size());
        for (size_t b = 0; b < program.blocks.size(); ++b) {
            EXPECT_EQ(sched::verifyScheduleEx(program.blocks[b],
                                              schedules[b], low)
                          .message,
                      "");
        }
    };

    // Into a shared, immutable program, as perfbench holds its inputs.
    sched::Program generated = workload::generate(spec, low);
    auto shared = std::make_shared<const sched::Program>(std::move(generated));
    schedulesAndVerifies(*shared);

    // Through a vector that reallocates under it.
    std::vector<sched::Program> programs;
    programs.push_back(workload::generate(spec, low));
    const sched::Program *before = programs.data();
    programs.reserve(programs.capacity() + 1);
    ASSERT_NE(programs.data(), before);
    schedulesAndVerifies(programs.front());

    // By move assignment over a default-constructed program.
    sched::Program assigned;
    assigned = std::move(programs.front());
    schedulesAndVerifies(assigned);
}

TEST(Workload, HugeOperandListRoundTrips)
{
    auto low = lowFor(machines::superSparc());
    // One instruction with more operands than a 16-bit count holds.
    const size_t kOperands = 70000;
    std::string text = "block\n    ST <-";
    for (size_t i = 0; i < kOperands; ++i)
        text += (i ? ", r" : " r") + std::to_string(i % 4096);
    text += "\nend\n";
    sched::Program program = workload::parseSasmOrThrow(text, low);
    ASSERT_EQ(program.numOps(), 1u);
    const sched::Instr &in = program.blocks[0].instrs[0];
    ASSERT_EQ(in.srcs.size(), kOperands);
    EXPECT_TRUE(in.dsts.empty());
    for (size_t i = 0; i < kOperands; ++i)
        ASSERT_EQ(in.srcs[i], int32_t(i % 4096)) << i;
    sched::Program again = roundTrip(program, low);
    ASSERT_EQ(again.numOps(), 1u);
    EXPECT_TRUE(std::ranges::equal(again.blocks[0].instrs[0].srcs, in.srcs));
    EXPECT_EQ(contentHash(again), contentHash(program));
}

} // namespace
} // namespace mdes

/**
 * @file
 * .sasm textual assembly-stream tests: parsing, flags, diagnostics with
 * locations, round-trip through formatSasm, and scheduling a parsed
 * stream end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/transforms.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/list_scheduler.h"
#include "sched/verify.h"
#include "workload/sasm.h"

namespace mdes {
namespace {

lmdes::LowMdes
sparc()
{
    Mdes m = hmdes::compileOrThrow(machines::superSparc().source);
    runPipeline(m, PipelineConfig::all());
    lmdes::LowerOptions opts;
    opts.pack_bit_vector = true;
    return lmdes::LowMdes::lower(m, opts);
}

const char *const kKernel = R"(
# scalar product kernel
block
    LD     r10 <- r1
    LD     r11 <- r2
    ADD_R  r12 <- r10, r11   !cascade
    ST     <- r12, r3        ; store writes no register
    BPCC   <- r12            !branch
end

block
    ADD_I r5 <- r4
    SETHI r6 <-
    BA    <- !branch
end
)";

TEST(Sasm, ParsesKernel)
{
    auto low = sparc();
    auto program = workload::parseSasmOrThrow(kKernel, low);
    ASSERT_EQ(program.blocks.size(), 2u);
    ASSERT_EQ(program.blocks[0].instrs.size(), 5u);

    const auto &add = program.blocks[0].instrs[2];
    EXPECT_EQ(low.opClasses()[add.op_class].name, "ADD_R");
    EXPECT_TRUE(std::ranges::equal(add.dsts, std::vector<int32_t>{12}));
    EXPECT_TRUE(std::ranges::equal(add.srcs, std::vector<int32_t>{10, 11}));
    EXPECT_TRUE(add.cascadable);
    EXPECT_FALSE(add.is_branch);

    const auto &st = program.blocks[0].instrs[3];
    EXPECT_TRUE(st.dsts.empty());
    EXPECT_TRUE(std::ranges::equal(st.srcs, std::vector<int32_t>{12, 3}));

    EXPECT_TRUE(program.blocks[0].instrs.back().is_branch);
    // SETHI: no sources at all.
    EXPECT_TRUE(program.blocks[1].instrs[1].srcs.empty());
}

TEST(Sasm, ParsedStreamSchedulesAndVerifies)
{
    auto low = sparc();
    auto program = workload::parseSasmOrThrow(kKernel, low);
    sched::ListScheduler scheduler(low);
    sched::SchedStats stats;
    auto schedules = scheduler.scheduleProgram(program, stats);
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        EXPECT_EQ(sched::verifyScheduleEx(program.blocks[b], schedules[b],
                                          low)
                      .message,
                  "");
    }
    // The cascadable ADD_R consumes the load result; it cannot cascade
    // off a load, so it waits for the load latency.
    EXPECT_GE(schedules[0].cycles[2], 1);
}

TEST(Sasm, RoundTripsThroughFormat)
{
    auto low = sparc();
    auto program = workload::parseSasmOrThrow(kKernel, low);
    std::string text = workload::formatSasm(program, low);
    auto again = workload::parseSasmOrThrow(text, low);
    ASSERT_EQ(again.blocks.size(), program.blocks.size());
    for (size_t b = 0; b < program.blocks.size(); ++b) {
        ASSERT_EQ(again.blocks[b].instrs.size(),
                  program.blocks[b].instrs.size());
        for (size_t i = 0; i < program.blocks[b].instrs.size(); ++i) {
            const auto &x = program.blocks[b].instrs[i];
            const auto &y = again.blocks[b].instrs[i];
            EXPECT_EQ(x.op_class, y.op_class);
            EXPECT_TRUE(std::ranges::equal(x.srcs, y.srcs));
            EXPECT_TRUE(std::ranges::equal(x.dsts, y.dsts));
            EXPECT_EQ(x.cascadable, y.cascadable);
            EXPECT_EQ(x.is_branch, y.is_branch);
        }
    }
}

struct BadSasm
{
    const char *label;
    const char *text;
    const char *expect;
};

class SasmErrors : public testing::TestWithParam<BadSasm>
{
};

TEST_P(SasmErrors, ReportsProblem)
{
    auto low = sparc();
    DiagnosticEngine diags;
    workload::parseSasm(GetParam().text, low, diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_NE(diags.toString().find(GetParam().expect),
              std::string::npos)
        << diags.toString();
}

const BadSasm kBadSasm[] = {
    {"unknown_opcode", "block\n  FROB r1 <- r2\nend\n",
     "unknown operation"},
    {"missing_arrow", "block\n  ADD_I r1 r2\nend\n", "missing '<-'"},
    {"double_arrow", "block\n  ADD_I r1 <- <- r2\nend\n",
     "duplicate '<-'"},
    {"bad_register", "block\n  ADD_I rX <- r2\nend\n",
     "expected register"},
    {"outside_block", "ADD_I r1 <- r2\n", "outside block"},
    {"nested_block", "block\nblock\n", "nested 'block'"},
    {"end_without_block", "end\n", "'end' without 'block'"},
    {"empty_block", "block\nend\n", "empty block"},
    {"unterminated", "block\n  ADD_I r1 <- r2\n",
     "unterminated block"},
    {"two_branches",
     "block\n  BA <- !branch\n  BA <- !branch\nend\n",
     "already has a branch"},
    {"misplaced_branch",
     "block\n  BA <- !branch\n  ADD_I r1 <- r2\nend\n",
     "branch before the end of its block"},
};

std::string
badSasmName(const testing::TestParamInfo<BadSasm> &info)
{
    return info.param.label;
}

INSTANTIATE_TEST_SUITE_P(AllBadInputs, SasmErrors,
                         testing::ValuesIn(kBadSasm), badSasmName);

TEST(Sasm, WarnsOnUselessCascadeFlag)
{
    auto low = sparc();
    DiagnosticEngine diags;
    auto program = workload::parseSasm(
        "block\n  LD r2 <- r1 !cascade\n  BA <- !branch\nend\n", low,
        diags);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_NE(diags.toString().find("no cascade table"),
              std::string::npos);
    EXPECT_FALSE(program.blocks[0].instrs[0].cascadable);
}

TEST(Sasm, ErrorLocationsAreUseful)
{
    auto low = sparc();
    // Each input's first error is on its line 3: an unknown opcode, and
    // the instruction that follows a misplaced branch.
    for (const char *text :
         {"block\n  ADD_I r1 <- r2\n  FROB r1 <- r2\nend\n",
          "block\n  BA <- !branch\n  ADD_I r1 <- r2\nend\n"}) {
        DiagnosticEngine diags;
        workload::parseSasm(text, low, diags);
        ASSERT_FALSE(diags.diagnostics().empty()) << text;
        EXPECT_EQ(diags.diagnostics()[0].loc.line, 3) << text;
    }
}

} // namespace
} // namespace mdes

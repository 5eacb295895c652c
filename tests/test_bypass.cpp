/**
 * @file
 * Bypass/forwarding tests (paper footnote 1: machine descriptions also
 * model bypassing and forwarding effects): language syntax and semantic
 * checks, flow-latency lookup, dependence-graph integration for both
 * list and modulo scheduling, and preservation across the AND/OR -> OR
 * preprocessor.
 */

#include <gtest/gtest.h>

#include "core/expand.h"
#include "hmdes/compile.h"
#include "lmdes/low_mdes.h"
#include "machines/machines.h"
#include "sched/list_scheduler.h"
#include "sched/modulo_scheduler.h"
#include "sched/verify.h"
#include "test_program.h"

namespace mdes {
namespace {

using lmdes::LowMdes;

const char *const kFmacSource = R"(
machine "fmac" {
    resource S[2];
    ortree AnyS { for i in 0 .. 1 { option { use S[i] at 0; } } }
    table T = AnyS;
    operation FMUL { table T; latency 3; }
    operation FADD { table T; latency 3; }
    operation ST { table T; latency 1; }
    bypass FMUL FADD latency 1;
}
)";

TEST(Bypass, ParsesAndResolves)
{
    Mdes m = hmdes::compileOrThrow(kFmacSource);
    ASSERT_EQ(m.bypasses().size(), 1u);
    EXPECT_EQ(m.bypasses()[0].from, m.findOpClass("FMUL"));
    EXPECT_EQ(m.bypasses()[0].to, m.findOpClass("FADD"));
    EXPECT_EQ(m.bypasses()[0].latency, 1);
}

TEST(Bypass, FlowLatencyLookup)
{
    LowMdes low = LowMdes::lower(hmdes::compileOrThrow(kFmacSource), {});
    uint32_t fmul = low.findOpClass("FMUL");
    uint32_t fadd = low.findOpClass("FADD");
    uint32_t st = low.findOpClass("ST");
    EXPECT_EQ(low.flowLatency(fmul, fadd), 1); // forwarded
    EXPECT_EQ(low.flowLatency(fmul, st), 3);   // nominal
    EXPECT_EQ(low.flowLatency(fadd, fmul), 3); // direction matters
}

TEST(Bypass, ShortensListSchedules)
{
    LowMdes low = LowMdes::lower(hmdes::compileOrThrow(kFmacSource), {});
    sched::Program prog = testing::oneBlock({
        testing::instr(low.findOpClass("FMUL"), {1}, {2}),
        testing::instr(low.findOpClass("FADD"), {2}, {3}),
        testing::instr(low.findOpClass("ST"), {3}, {}),
    });
    const sched::Block &b = prog.blocks[0];

    sched::ListScheduler s(low);
    sched::SchedStats stats;
    auto sched = s.scheduleBlock(b, stats);
    EXPECT_EQ(sched.cycles[0], 0);
    EXPECT_EQ(sched.cycles[1], 1); // forwarded: 1 cycle, not 3
    EXPECT_EQ(sched.cycles[2], 4); // no ST bypass: full FADD latency
    EXPECT_EQ(sched::verifyScheduleEx(b, sched, low).message, "");
}

TEST(Bypass, TightensModuloRecurrences)
{
    // acc = (acc * x) + y as an FMUL/FADD recurrence: without the
    // forwarding path RecMII = 3 + 3; with it, 1 + 3.
    LowMdes low = LowMdes::lower(hmdes::compileOrThrow(kFmacSource), {});
    sched::Program prog = testing::oneBlock({
        testing::instr(low.findOpClass("FMUL"), {1, 2}, {3}),
        // Closes the recurrence.
        testing::instr(low.findOpClass("FADD"), {3, 4}, {1}),
    });
    const sched::Block &body = prog.blocks[0];

    sched::ModuloScheduler ms(low);
    EXPECT_EQ(ms.recMii(body), 4); // 1 (bypassed) + 3
}

TEST(Bypass, SurvivesOrExpansion)
{
    Mdes m = hmdes::compileOrThrow(kFmacSource);
    Mdes flat = expandToOrForm(m);
    ASSERT_EQ(flat.bypasses().size(), 1u);
    EXPECT_EQ(flat.bypasses()[0], m.bypasses()[0]);
}

TEST(Bypass, ShippedMachinesDeclareForwardingPaths)
{
    Mdes pa = hmdes::compileOrThrow(machines::pa7100().source);
    EXPECT_EQ(pa.bypasses().size(), 2u);
    Mdes k5 = hmdes::compileOrThrow(machines::k5().source);
    EXPECT_EQ(k5.bypasses().size(), 1u);
    LowMdes low = LowMdes::lower(pa, {});
    EXPECT_EQ(low.flowLatency(low.findOpClass("FMUL"),
                              low.findOpClass("FADD")),
              1);
}

TEST(Bypass, SemanticErrors)
{
    auto compileBody = [](const std::string &tail) {
        DiagnosticEngine diags;
        std::string src = R"(machine "t" {
            resource S;
            ortree O { option { use S at 0; } }
            table T = O;
            operation A { table T; latency 2; }
            operation B { table T; latency 1; }
        )" + tail + "}";
        auto m = hmdes::compile(src, diags);
        return std::make_pair(m.has_value(), diags.toString());
    };

    auto [ok1, msg1] = compileBody("bypass GHOST B latency 1;");
    EXPECT_FALSE(ok1);
    EXPECT_NE(msg1.find("unknown operation 'GHOST'"), std::string::npos);

    auto [ok2, msg2] = compileBody("bypass A GHOST latency 1;");
    EXPECT_FALSE(ok2);
    EXPECT_NE(msg2.find("unknown operation 'GHOST'"), std::string::npos);

    auto [ok3, msg3] = compileBody("bypass A B latency 0 - 2;");
    EXPECT_FALSE(ok3);
    EXPECT_NE(msg3.find("latency out of range"), std::string::npos);

    auto [ok4, msg4] =
        compileBody("bypass A B latency 1; bypass A B latency 1;");
    EXPECT_FALSE(ok4);
    EXPECT_NE(msg4.find("duplicate bypass"), std::string::npos);

    // A useless bypass (not faster than nominal) warns but compiles.
    auto [ok5, msg5] = compileBody("bypass A B latency 2;");
    EXPECT_TRUE(ok5);
    EXPECT_NE(msg5.find("does not improve"), std::string::npos);
}

} // namespace
} // namespace mdes

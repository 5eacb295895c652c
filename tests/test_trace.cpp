/**
 * @file
 * mdes::trace tests: spans recorded with no trace running stay out of
 * the next trace, traced spans carry ids/counters/labels, a trace
 * survives concurrent recording and reading and keeps every span of a
 * run that laps the rings several times, the Chrome export is
 * well-formed JSON, and the scheduler probe hooks populate
 * attempts-per-op and the conflict heat table only while tracing is on.
 */

#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "machines/machines.h"
#include "service/service.h"
#include "support/flightrec.h"
#include "support/json.h"
#include "support/trace.h"

namespace mdes {
namespace {

const machines::MachineInfo &
machineNamed(const std::string &name)
{
    for (const auto *m : machines::all()) {
        if (m->name == name)
            return *m;
    }
    ADD_FAILURE() << "no machine named " << name;
    return *machines::all().front();
}

/**
 * Traces are process-global and other tests in this binary use them
 * too: every test starts from an empty, finished trace and stops any
 * trace on the way out.
 */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::setEnabled(true);
        trace::setEnabled(false);
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
    }
};

const flightrec::Event *
spanNamed(const std::vector<flightrec::Event> &spans, const char *name)
{
    for (const flightrec::Event &s : spans) {
        if (std::string(s.name) == name)
            return &s;
    }
    ADD_FAILURE() << "no span named " << name;
    return nullptr;
}

TEST_F(TraceTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(trace::enabled());
    {
        TRACE_SPAN("test/anonymous");
        TRACE_SPAN_F(span, "test/named");
        EXPECT_FALSE(span.active());
        // Attachments on an inactive span must be dropped, not buffered.
        span.counter("ignored", 1);
        span.label("ignored", "x");
    }
    EXPECT_TRUE(trace::spans().empty());
}

TEST_F(TraceTest, SpanCarriesIdCountersAndLabels)
{
    trace::setEnabled(true);
    {
        trace::IdScope id(42);
        TRACE_SPAN_F(span, "test/work");
        ASSERT_TRUE(span.active());
        span.counter("widgets", 7);
        span.label("machine", "TestMachine");
    }
    trace::setEnabled(false);

    std::vector<flightrec::Event> spans = trace::spans();
    ASSERT_EQ(spans.size(), 1u);
    const flightrec::Event &s = spans[0];
    EXPECT_STREQ(s.name, "test/work");
    EXPECT_EQ(s.trace_id, 42u);
    EXPECT_EQ(s.tid, trace::threadId());
    ASSERT_EQ(s.args.size(), 2u);
    EXPECT_STREQ(s.args[0].key, "widgets");
    EXPECT_EQ(s.args[0].value, 7u);
    EXPECT_EQ(s.args[0].text, nullptr);
    EXPECT_STREQ(s.args[1].key, "machine");
    EXPECT_STREQ(s.args[1].text, "TestMachine");
    EXPECT_LE(s.ts_us + s.dur_us, trace::nowUs());
}

TEST_F(TraceTest, NestedSpansTimestampsAreConsistent)
{
    trace::setEnabled(true);
    {
        TRACE_SPAN("test/outer");
        TRACE_SPAN("test/inner");
    }
    trace::setEnabled(false);

    std::vector<flightrec::Event> spans = trace::spans();
    ASSERT_EQ(spans.size(), 2u);
    const flightrec::Event *inner = spanNamed(spans, "test/inner");
    const flightrec::Event *outer = spanNamed(spans, "test/outer");
    ASSERT_TRUE(inner && outer);
    EXPECT_GE(inner->ts_us, outer->ts_us);
    EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
}

TEST_F(TraceTest, IdScopeRestoresPreviousId)
{
    EXPECT_EQ(trace::currentTraceId(), 0u);
    {
        trace::IdScope outer(5);
        EXPECT_EQ(trace::currentTraceId(), 5u);
        {
            trace::IdScope inner(9);
            EXPECT_EQ(trace::currentTraceId(), 9u);
        }
        EXPECT_EQ(trace::currentTraceId(), 5u);
    }
    EXPECT_EQ(trace::currentTraceId(), 0u);
}

TEST_F(TraceTest, ConcurrentRecordingAndSnapshots)
{
    // Two ring records per span: each thread laps its ring twice
    // while the reads below race its lap keeping.
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = int(flightrec::kRingSlots);

    trace::setEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            trace::IdScope id(uint64_t(t) + 1);
            for (int i = 0; i < kSpansPerThread; ++i) {
                TRACE_SPAN_F(span, "test/mt");
                span.counter("i", uint64_t(i));
            }
        });
    }
    // Reads race the recorders by design; they must stay safe.
    for (int i = 0; i < 10; ++i)
        (void)trace::spans();
    for (auto &th : threads)
        th.join();
    trace::setEnabled(false);

    std::vector<flightrec::Event> spans = trace::spans();
    ASSERT_EQ(spans.size(), size_t(kThreads) * kSpansPerThread);
    std::set<uint64_t> ids;
    std::set<uint32_t> tids;
    for (const flightrec::Event &s : spans) {
        EXPECT_STREQ(s.name, "test/mt");
        EXPECT_EQ(s.args.size(), 1u);
        ids.insert(s.trace_id);
        tids.insert(s.tid);
    }
    // Each recording thread kept its own id and ring.
    EXPECT_EQ(ids.size(), size_t(kThreads));
    EXPECT_EQ(tids.size(), size_t(kThreads));
}

TEST_F(TraceTest, TraceSeveralLapsLongKeepsEverySpanAndItsArgs)
{
    // Three ring records per span (two args and the span itself), so
    // this trace laps the ring more than five times.
    const size_t kSpans = 2 * flightrec::kRingSlots;
    trace::setEnabled(true);
    for (size_t i = 0; i < kSpans; ++i) {
        TRACE_SPAN_F(span, "test/lap");
        span.counter("i", i);
        span.label("parity", i % 2 ? "odd" : "even");
    }
    trace::setEnabled(false);

    uint64_t dropped = 0;
    std::vector<flightrec::Event> spans = trace::spans(&dropped);
    EXPECT_EQ(dropped, 0u);
    ASSERT_EQ(spans.size(), kSpans);
    std::vector<bool> seen(kSpans, false);
    for (const flightrec::Event &s : spans) {
        EXPECT_STREQ(s.name, "test/lap");
        ASSERT_EQ(s.args.size(), 2u);
        EXPECT_STREQ(s.args[0].key, "i");
        const uint64_t i = s.args[0].value;
        ASSERT_LT(i, kSpans);
        EXPECT_FALSE(seen[i]) << "span " << i << " twice";
        seen[i] = true;
        EXPECT_STREQ(s.args[1].key, "parity");
        EXPECT_STREQ(s.args[1].text, i % 2 ? "odd" : "even");
    }
}

TEST_F(TraceTest, ChromeExportIsWellFormedJson)
{
    trace::setEnabled(true);
    {
        trace::IdScope id(7);
        TRACE_SPAN_F(span, "test/json \"quoted\"");
        span.counter("n", 3);
        span.label("kind", "unit\ttest");
    }
    trace::setEnabled(false);

    JsonValue doc =
        parseJson(flightrec::toChromeJson(trace::spans(), 0, "trace"));
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    EXPECT_EQ(doc.find("otherData")->find("dropped")->number, 0.0);
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_EQ(events->array.size(), 1u);

    const JsonValue &e = events->array[0];
    EXPECT_EQ(e.find("name")->string, "test/json \"quoted\"");
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_EQ(e.find("pid")->number, 1.0);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    const JsonValue *args = e.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("trace_id")->number, 7.0);
    EXPECT_EQ(args->find("n")->number, 3.0);
    EXPECT_EQ(args->find("kind")->string, "unit\ttest");
}

TEST_F(TraceTest, SchedulerProbesPopulateOnlyWhileEnabled)
{
    const machines::MachineInfo &m = machineNamed("SuperSPARC");
    exp::RunConfig config =
        exp::optimizedConfig(m, exp::Rep::AndOrTree);
    config.num_ops_override = 400;

    // Tracing off: the probe hooks must stay dormant.
    exp::RunResult off = exp::run(config);
    EXPECT_EQ(off.stats.attempts_per_op.total(), 0u);
    EXPECT_TRUE(off.stats.checks.conflicts_per_resource.empty());

    trace::setEnabled(true);
    exp::RunResult on = exp::run(config);
    trace::setEnabled(false);

    // One attempts-per-op sample per scheduled operation.
    EXPECT_EQ(on.stats.attempts_per_op.total(), on.stats.ops_scheduled);
    EXPECT_GE(on.stats.attempts_per_op.maxValue(), 1u);

    // Every failed probe charged some resource; the charge count can
    // exceed failures (an option can conflict on several resources) but
    // a contended workload must register at least one.
    uint64_t conflicts = 0;
    for (uint64_t n : on.stats.checks.conflicts_per_resource)
        conflicts += n;
    EXPECT_GT(conflicts, 0u);

    // The probe hooks observe scheduling without perturbing it.
    EXPECT_EQ(on.stats.ops_scheduled, off.stats.ops_scheduled);
    EXPECT_EQ(on.stats.total_schedule_length,
              off.stats.total_schedule_length);
    EXPECT_EQ(on.schedules, off.schedules);
}

TEST_F(TraceTest, ServiceRequestProducesEndToEndSpans)
{
    trace::setEnabled(true);
    {
        service::ServiceConfig config;
        config.num_workers = 2;
        service::MdesService svc(config);
        service::ScheduleRequest req;
        req.machine = "SuperSPARC";
        req.synth_ops = 300;
        std::vector<service::ScheduleResponse> responses =
            svc.runBatch({req});
        ASSERT_EQ(responses.size(), 1u);
        ASSERT_TRUE(responses[0].ok()) << responses[0].error.message;

        service::ServiceMetrics metrics = svc.metricsSnapshot();
        EXPECT_EQ(metrics.attempts_per_op.total(),
                  metrics.ops_scheduled);
        EXPECT_FALSE(metrics.resource_conflicts.empty());
        for (const auto &[name, n] : metrics.resource_conflicts) {
            EXPECT_NE(name.find("SuperSPARC."), std::string::npos)
                << name;
            EXPECT_GT(n, 0u);
        }
        EXPECT_NE(metrics.transform_effects, service::TransformEffects{});
    }
    trace::setEnabled(false);

    std::vector<flightrec::Event> spans = trace::spans();
    std::set<std::string> names;
    uint64_t request_id = 0;
    for (const flightrec::Event &s : spans) {
        names.insert(s.name);
        if (std::string(s.name) == "request")
            request_id = s.trace_id;
    }
    for (const char *expected :
         {"request", "cache/lookup", "compile/hmdes", "compile/lower",
          "workload/build", "sched/block", "pass/cse"}) {
        EXPECT_TRUE(names.count(expected))
            << "missing span " << expected;
    }
    // The request span carries the job's trace id, and every span the
    // worker recorded while processing it is stamped with the same id.
    EXPECT_NE(request_id, 0u);
    for (const flightrec::Event &s : spans) {
        if (std::string(s.name) == "compile/hmdes" ||
            std::string(s.name) == "sched/block") {
            EXPECT_EQ(s.trace_id, request_id) << s.name;
        }
    }
}

} // namespace
} // namespace mdes

/**
 * @file
 * Flight recorder tests: the always-on ring captures spans with full
 * tracing off, gathered children never end after their parent,
 * tail-based spooling writes a parseable Chrome trace for a request
 * that ended badly, the spool directory is a size-capped FIFO that
 * never exceeds its byte budget, and a crash capture decodes with its
 * counters kept and its labels dropped.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/service.h"
#include "support/flightrec.h"
#include "support/json.h"
#include "support/trace.h"

namespace mdes {
namespace {

namespace fs = std::filesystem;

/** Trace ids far away from the service's small sequential request ids,
 * so unit tests never alias a ring event from another test's service. */
constexpr uint64_t kIdBase = 0xF00D0000ull;

std::string
freshDir(const std::string &name)
{
    const std::string dir = "flightrec_test_" + name;
    fs::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

uint64_t
dirBytes(const std::string &dir)
{
    uint64_t total = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        total += uint64_t(entry.file_size());
    return total;
}

TEST(FlightRecorder, RingCapturesSpansWithTracingOff)
{
    ASSERT_FALSE(trace::enabled()) << "tests run with --trace off";
    ASSERT_TRUE(flightrec::enabled()) << "recorder is on by default";

    const uint64_t id = kIdBase + 1;
    const uint64_t before = flightrec::recordedCount();
    {
        trace::IdScope scope(id);
        trace::ScopedSpan span("flightrec-test-span");
        // Full tracing is off: the span is not collected...
        EXPECT_FALSE(span.active());
    }
    // ...but the flight recorder saw it anyway.
    EXPECT_GT(flightrec::recordedCount(), before);
    std::vector<flightrec::Event> events = flightrec::eventsForTrace(id);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "flightrec-test-span");
    EXPECT_EQ(events[0].trace_id, id);

    // Other trace ids are filtered out.
    EXPECT_TRUE(flightrec::eventsForTrace(kIdBase + 2).empty());

    // setEnabled(false) stops ring recording; nothing new appears.
    flightrec::setEnabled(false);
    {
        trace::IdScope scope(id);
        trace::ScopedSpan span("invisible");
    }
    flightrec::setEnabled(true);
    EXPECT_EQ(flightrec::eventsForTrace(id).size(), 1u);
}

TEST(FlightRecorder, EventsComeBackInTimestampOrder)
{
    // Timestamps are nowTicks() values; spacing them ~milliseconds
    // apart keeps them distinct after the ticks->us conversion.
    const uint64_t id = kIdBase + 3;
    const uint64_t base = flightrec::nowTicks();
    const uint64_t step = 10'000'000;
    flightrec::record("late", id, base + 3 * step, 10);
    flightrec::record("early", id, base + 1 * step, 10);
    flightrec::record("middle", id, base + 2 * step, 10);
    std::vector<flightrec::Event> events = flightrec::eventsForTrace(id);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_STREQ(events[0].name, "early");
    EXPECT_STREQ(events[1].name, "middle");
    EXPECT_STREQ(events[2].name, "late");
}

TEST(FlightRecorder, ChildrenNeverEndAfterTheirParent)
{
    // Each child starts inside its parent and ends on the parent's end
    // tick. Converting start and duration to microseconds separately
    // truncates twice and can end the child 1 us late; converting the
    // end tick cannot.
    const uint64_t id = kIdBase + 7;
    const uint64_t base = flightrec::nowTicks();
    constexpr uint64_t kPairs = 2000;
    for (uint64_t i = 0; i < kPairs; ++i) {
        const uint64_t ts = base + i * 10'000'019;
        const uint64_t dur = 1'000'003 + (i * 7'919) % 5'000'000;
        const uint64_t lag = 1 + (i * 104'729) % (dur - 1);
        flightrec::record("parent", id, ts, dur);
        flightrec::record("child", id, ts + lag, dur - lag);
    }
    std::vector<flightrec::Event> events = flightrec::eventsForTrace(id);
    ASSERT_EQ(events.size(), 2 * kPairs);
    size_t late = 0;
    for (size_t i = 0; i < events.size(); i += 2) {
        const flightrec::Event &a = events[i];
        const flightrec::Event &b = events[i + 1];
        const bool a_parent = std::string(a.name) == "parent";
        const flightrec::Event &parent = a_parent ? a : b;
        const flightrec::Event &child = a_parent ? b : a;
        ASSERT_STREQ(parent.name, "parent");
        ASSERT_STREQ(child.name, "child");
        EXPECT_GE(child.ts_us, parent.ts_us);
        if (child.ts_us + child.dur_us > parent.ts_us + parent.dur_us)
            ++late;
    }
    EXPECT_EQ(late, 0u) << "children ending after their parent";
}

TEST(FlightRecorder, RingWindowExcludesTheSlotUnderOverwrite)
{
    // push() stores slot fields before publishing the new head, so a
    // reader observing head == h must assume the slot event h reuses
    // (one full lap back) is mid-overwrite and discard it - even on a
    // quiescent ring, where the writer could be paused between the
    // field stores and the head bump. Observable contract: a full
    // ring reports kRingSlots - 1 events, never a possibly-torn
    // kRingSlots-th.
    const uint64_t id = kIdBase + 4;
    const uint64_t base = flightrec::nowTicks();
    for (size_t i = 0; i < flightrec::kRingSlots; ++i)
        flightrec::record("window-span", id, base + i, 1);
    EXPECT_EQ(flightrec::eventsForTrace(id).size(),
              flightrec::kRingSlots - 1);
}

TEST(FlightRecorder, ArmResumesSequenceNumbersPastAdoptedFiles)
{
    const std::string dir = freshDir("adopt");
    fs::create_directories(dir);
    // A spool file left over from a "previous run" with a sequence
    // number well past 1.
    const std::string adopted = dir + "/00000042-crash-123.json";
    {
        std::ofstream out(adopted, std::ios::binary);
        out << "{\"traceEvents\":[]}";
    }

    flightrec::armSpool({.dir = dir, .max_bytes = 1 << 20});
    const uint64_t id = kIdBase + 5;
    flightrec::record("adopt-span", id, flightrec::nowTicks(), 5);
    const std::string path = flightrec::spool(id, "test");
    ASSERT_FALSE(path.empty());
    const std::string name = fs::path(path).filename().string();
    // The new name must sort after the adopted file (oldest-first
    // eviction order) and must not collide with it: a restart that
    // reused sequence 42 with the same reason and trace id would
    // silently overwrite the adopted capture and double-count its
    // bytes against the cap.
    EXPECT_EQ(name.substr(0, 8), "00000043") << name;
    EXPECT_TRUE(fs::exists(adopted));

    flightrec::disarmSpool();
    fs::remove_all(dir);
}

TEST(FlightRecorder, ChromeJsonIsParseableAndSelfDescribing)
{
    const uint64_t id = kIdBase + 4;
    flightrec::record("request", id, 50, 500);
    const std::string doc = flightrec::toChromeJson(
        flightrec::eventsForTrace(id), id, "deadline-exceeded");
    JsonValue v = parseJson(doc);
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);
    ASSERT_FALSE(events->array.empty());
    EXPECT_EQ(events->array[0].find("name")->string, "request");
    const JsonValue *other = v.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("reason")->string, "deadline-exceeded");
    EXPECT_EQ(jsonU64(*other->find("trace_id")), id);
    EXPECT_EQ(jsonU64(*other->find("dropped")), 0u);
}

TEST(FlightRecorder, DeadlineExceededRequestSpoolsItsTrace)
{
    const std::string dir = freshDir("deadline");
    flightrec::armSpool({.dir = dir, .max_bytes = 1 << 20});
    {
        // One worker, blocked by a large request: the queued request's
        // deadline lapses before a worker picks it up, and the worker
        // spools its trace after delivering the error.
        service::MdesService svc({.num_workers = 1});
        service::ScheduleRequest blocker;
        blocker.machine = "SuperSPARC";
        blocker.synth_ops = 20000;
        auto blocker_id = svc.submit(blocker);
        service::ScheduleRequest doomed;
        doomed.machine = "K5";
        doomed.synth_ops = 100;
        doomed.deadline_ms = 1;
        auto doomed_id = svc.submit(doomed);
        EXPECT_EQ(svc.wait(doomed_id).error.code,
                  service::ErrorCode::DeadlineExceeded);
        EXPECT_TRUE(svc.wait(blocker_id).ok());
        // Destruction joins the workers, so the spool write (which
        // happens after delivery) has finished once we get here.
    }
    flightrec::disarmSpool();

    std::string spooled;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.find("deadline") != std::string::npos)
            spooled = entry.path().string();
    }
    ASSERT_FALSE(spooled.empty())
        << "no deadline spool file written under " << dir;

    // The spool file is a standalone, parseable Chrome trace holding
    // the doomed request's spans - including the "request" span itself.
    JsonValue v = parseJson(readFile(spooled));
    const JsonValue *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<std::string> names;
    for (const JsonValue &e : events->array)
        names.insert(e.find("name")->string);
    EXPECT_TRUE(names.count("request")) << "spool lacks the request span";
    fs::remove_all(dir);
}

TEST(FlightRecorder, SpoolDirectoryIsAByteCappedFifo)
{
    const std::string dir = freshDir("cap");
    const uint64_t cap = 2048;
    flightrec::armSpool({.dir = dir, .max_bytes = cap});
    const flightrec::SpoolStats before = flightrec::spoolStats();

    // Spool enough distinct traces that the cap must evict.
    uint64_t written = 0;
    for (uint64_t i = 0; i < 32; ++i) {
        const uint64_t id = kIdBase + 100 + i;
        for (int s = 0; s < 8; ++s)
            flightrec::record("padding-span", id, 100 * i + s, 5);
        if (!flightrec::spool(id, "test").empty())
            ++written;
        EXPECT_LE(flightrec::spoolStats().bytes, cap)
            << "byte cap exceeded after spool " << i;
        EXPECT_LE(dirBytes(dir), cap);
    }
    const flightrec::SpoolStats after = flightrec::spoolStats();
    EXPECT_EQ(after.files_written - before.files_written, 32u);
    EXPECT_GT(after.files_evicted, before.files_evicted)
        << "cap never evicted - raise the spool sizes";
    EXPECT_GT(written, 0u);

    // FIFO: the survivors are the newest files (highest sequence
    // numbers), not an arbitrary subset.
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    ASSERT_FALSE(names.empty());
    ASSERT_LT(names.size(), 32u);
    // All surviving sequence numbers are newer than every evicted one,
    // so the oldest survivor's sequence + survivor count reaches the
    // last sequence written this test (they are contiguous).
    const unsigned long first = std::stoul(names.front().substr(0, 8));
    const unsigned long last = std::stoul(names.back().substr(0, 8));
    EXPECT_EQ(last - first + 1, names.size());

    flightrec::disarmSpool();
    fs::remove_all(dir);
}

TEST(FlightRecorder, EmptyTracesAndUnarmedSpoolsWriteNothing)
{
    // Unarmed: spool is a no-op that reports "".
    flightrec::disarmSpool();
    EXPECT_FALSE(flightrec::spoolArmed());
    EXPECT_EQ(flightrec::spool(kIdBase + 900, "test"), "");
    EXPECT_EQ(flightrec::slowThresholdUs(), 0u);

    // Armed but the trace id has no buffered events: skipped, counted.
    const std::string dir = freshDir("empty");
    flightrec::armSpool({.dir = dir, .max_bytes = 4096, .slow_us = 250});
    EXPECT_EQ(flightrec::slowThresholdUs(), 250u);
    const uint64_t skipped_before = flightrec::spoolStats().empty_skipped;
    EXPECT_EQ(flightrec::spool(kIdBase + 901, "test"), "");
    EXPECT_EQ(flightrec::spoolStats().empty_skipped, skipped_before + 1);
    EXPECT_TRUE(fs::directory_iterator(dir) == fs::directory_iterator{})
        << "empty spool still produced a file";
    flightrec::disarmSpool();
    fs::remove_all(dir);
}

TEST(CrashCapture, SegfaultLeavesADecodableCapture)
{
    const std::string dir = freshDir("crash");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: arm, record a little ring history, then die the way a
        // real crash would. The handler must write the capture and
        // re-raise so the parent sees the true SIGSEGV exit status.
        if (!flightrec::armCrashCapture(dir))
            _exit(3);
        for (int i = 0; i < 32; ++i)
            flightrec::record("crash-test-span", kIdBase + 90,
                              flightrec::nowTicks(), 100);
        raise(SIGSEGV);
        _exit(4); // unreachable: the default disposition kills us
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited instead of crashing, status " << status;
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    std::string path;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".mdcr")
            path = entry.path().string();
    ASSERT_FALSE(path.empty()) << "no .mdcr capture in " << dir;

    flightrec::CrashInfo info;
    std::string json;
    ASSERT_NO_THROW(json = flightrec::decodeCrashCapture(path, &info));
    EXPECT_EQ(info.signo, SIGSEGV);
    EXPECT_EQ(info.pid, uint64_t(pid));
    EXPECT_GE(info.rings, 1u);
    EXPECT_GT(info.events, 0u);
    // The decoded document is well-formed JSON carrying the child's
    // last spans.
    EXPECT_NO_THROW(parseJson(json));
    EXPECT_NE(json.find("crash-test-span"), std::string::npos);
    fs::remove_all(dir);
}

TEST(CrashCapture, TracedCrashKeepsCountersAndDropsLabels)
{
    const std::string dir = freshDir("crash_traced");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: crash while a trace runs, right after a traced span
        // with one counter and one label.
        if (!flightrec::armCrashCapture(dir))
            _exit(3);
        trace::setEnabled(true);
        {
            TRACE_SPAN_F(span, "crash-traced-span");
            span.counter("widgets", 7);
            span.label("machine", "TestMachine");
        }
        raise(SIGSEGV);
        _exit(4);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "status " << status;

    std::string path;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".mdcr")
            path = entry.path().string();
    ASSERT_FALSE(path.empty()) << "no .mdcr capture in " << dir;

    // The label's text lived in the dead process: the decoder keeps
    // the counter and drops the label.
    JsonValue v = parseJson(flightrec::decodeCrashCapture(path));
    const JsonValue *span = nullptr;
    for (const JsonValue &e : v.find("traceEvents")->array)
        if (e.find("name")->string == "crash-traced-span")
            span = &e;
    ASSERT_NE(span, nullptr) << "capture lacks the traced span";
    const JsonValue *args = span->find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("widgets"), nullptr);
    EXPECT_EQ(jsonU64(*args->find("widgets")), 7u);
    EXPECT_EQ(args->find("machine"), nullptr);
    fs::remove_all(dir);
}

TEST(CrashCapture, DecodeRejectsGarbageAndMissingFiles)
{
    const std::string dir = freshDir("crash_garbage");
    fs::create_directories(dir);
    const std::string path = dir + "/not-a-capture.mdcr";
    std::ofstream(path, std::ios::binary) << "this is not a capture";
    EXPECT_THROW(flightrec::decodeCrashCapture(path), MdesError);
    EXPECT_THROW(flightrec::decodeCrashCapture(dir + "/missing.mdcr"),
                 MdesError);
    fs::remove_all(dir);
}

} // namespace
} // namespace mdes

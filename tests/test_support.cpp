/**
 * @file
 * Unit tests for the support library: bit vectors, deterministic RNG,
 * histograms, text tables, diagnostics, EINTR-safe I/O wrappers.
 */

#include <pthread.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "support/bit_vector.h"
#include "support/diagnostics.h"
#include "support/histogram.h"
#include "support/io_retry.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/text_table.h"

namespace mdes {
namespace {

// ---------------------------------------------------------------- BitVector

TEST(BitVector, StartsEmpty)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    EXPECT_FALSE(v.any());
    EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, SetResetTest)
{
    BitVector v(130);
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(129));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 3u);
    v.reset(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVector, ClearRemovesEverything)
{
    BitVector v(70);
    for (size_t i = 0; i < 70; i += 7)
        v.set(i);
    v.clear();
    EXPECT_TRUE(v.none());
}

TEST(BitVector, IntersectsDetectsSharedBits)
{
    BitVector a(100), b(100);
    a.set(3);
    a.set(77);
    b.set(50);
    EXPECT_FALSE(a.intersects(b));
    b.set(77);
    EXPECT_TRUE(a.intersects(b));
}

TEST(BitVector, UnionAndIntersection)
{
    BitVector a(100), b(100);
    a.set(1);
    a.set(65);
    b.set(65);
    b.set(99);
    BitVector u = a;
    u |= b;
    EXPECT_TRUE(u.test(1));
    EXPECT_TRUE(u.test(65));
    EXPECT_TRUE(u.test(99));
    BitVector i = a;
    i &= b;
    EXPECT_FALSE(i.test(1));
    EXPECT_TRUE(i.test(65));
    EXPECT_FALSE(i.test(99));
}

TEST(BitVector, ResizePreservesAndClearsTail)
{
    BitVector v(10);
    v.set(9);
    v.resize(70);
    EXPECT_TRUE(v.test(9));
    EXPECT_FALSE(v.test(69));
    v.set(69);
    v.resize(65);
    v.resize(70);
    // Bit 69 was truncated away; shrinking must clear it.
    EXPECT_FALSE(v.test(69));
    EXPECT_TRUE(v.test(9));
}

TEST(BitVector, EqualityAndToString)
{
    BitVector a(4), b(4);
    a.set(1);
    b.set(1);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toString(), "0100");
    b.set(3);
    EXPECT_NE(a, b);
}

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = rng.below(13);
        ASSERT_LT(v, 13u);
        seen.insert(v);
    }
    // All 13 values should appear in 2000 draws.
    EXPECT_EQ(seen.size(), 13u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo |= v == -3;
        hi |= v == 3;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, PickWeightedRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    size_t counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.pickWeighted(weights)];
    EXPECT_EQ(counts[1], 0u);
    EXPECT_NEAR(double(counts[2]) / double(counts[0]), 3.0, 0.4);
}

// --------------------------------------------------------------- Histogram

TEST(Histogram, CountsAndFractions)
{
    Histogram h;
    h.add(1);
    h.add(1);
    h.add(4);
    h.add(0);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.countAt(1), 2u);
    EXPECT_EQ(h.countAt(7), 0u);
    EXPECT_DOUBLE_EQ(h.fractionAt(1), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionBetween(1, 4), 0.75);
    EXPECT_EQ(h.maxValue(), 4u);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
}

TEST(Histogram, MergeCombines)
{
    Histogram a, b;
    a.add(2);
    b.add(2);
    b.add(5);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.countAt(2), 2u);
    EXPECT_EQ(a.countAt(5), 1u);
}

TEST(Histogram, MergeMatchesDirectRecording)
{
    // Per-worker histograms merged at drain time must equal one
    // histogram that saw every sample (the service-metrics use case).
    Histogram direct, a, b, c;
    for (uint64_t v : {0u, 1u, 1u, 3u, 8u, 8u, 8u, 2u})
        direct.add(v);
    for (uint64_t v : {0u, 1u, 8u})
        a.add(v);
    for (uint64_t v : {1u, 3u, 8u})
        b.add(v);
    for (uint64_t v : {8u, 2u})
        c.add(v);
    a.merge(b);
    a.merge(c);
    EXPECT_EQ(a.total(), direct.total());
    EXPECT_EQ(a.maxValue(), direct.maxValue());
    EXPECT_DOUBLE_EQ(a.mean(), direct.mean());
    for (uint64_t v = 0; v <= direct.maxValue(); ++v)
        EXPECT_EQ(a.countAt(v), direct.countAt(v)) << "value " << v;
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    Histogram h, empty;
    h.add(2);
    h.add(5);
    h.merge(empty);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_DOUBLE_EQ(h.mean(), 3.5);

    empty.merge(h);
    EXPECT_EQ(empty.total(), 2u);
    EXPECT_EQ(empty.countAt(5), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.5);
}

TEST(Histogram, EmptyBehaves)
{
    Histogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(3), 0.0);
    EXPECT_NE(h.render(), "");
}

TEST(Histogram, RenderShowsBars)
{
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.add(1);
    h.add(3);
    std::string out = h.render(20);
    EXPECT_NE(out.find("90.91%"), std::string::npos); // 10 of 11 samples
    EXPECT_NE(out.find("####################"), std::string::npos);
    // Zero-count rows (value 0 and 2) are skipped.
    EXPECT_EQ(out.find(" 0.00%"), std::string::npos);
}

// -------------------------------------------------------------------- JSON

TEST(Json, EscapesSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, WritesNestedDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("pentium");
    w.key("requests").value(uint64_t(42));
    w.key("hit_rate").value(0.5);
    w.key("ok").value(true);
    w.key("buckets").beginArray();
    w.value(uint64_t(1)).value(uint64_t(2)).value(uint64_t(3));
    w.endArray();
    w.key("nested").beginObject();
    w.key("empty").beginArray().endArray();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"pentium\",\"requests\":42,\"hit_rate\":0.5,"
              "\"ok\":true,\"buckets\":[1,2,3],"
              "\"nested\":{\"empty\":[]}}");
}

TEST(Json, NonFiniteDoublesBecomeNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(1.0 / 0.0).value(0.25);
    w.endArray();
    EXPECT_EQ(w.str(), "[null,0.25]");
}

TEST(Json, U64AcceptsOnlyIntegersThatFit)
{
    const std::pair<const char *, uint64_t> good[] = {
        {"0", 0},
        {"42", 42},
        {"9007199254740993", 9007199254740993ull}, // 2^53 + 1
        {"18446744073709551615", UINT64_MAX},
        {"\"123\"", 123}, // a string of digits
    };
    for (const auto &[text, want] : good)
        EXPECT_EQ(jsonU64(parseJson(text)), want) << text;

    // A cast of any of these would be undefined or silently wrong.
    const char *bad[] = {"-1", "-0", "2.7", "2.0", "1e300", "1e3",
                         "18446744073709551616", "\"\"", "\"12a\"",
                         "true", "null", "[1]", "{}"};
    for (const char *text : bad)
        EXPECT_THROW(jsonU64(parseJson(text)), MdesError) << text;
}

// --------------------------------------------------------------- TextTable

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"Name", "Count"});
    t.addRow({"alpha", "10"});
    t.addRow({"b", "2000"});
    std::string out = t.toString();
    EXPECT_NE(out.find("| Name"), std::string::npos);
    EXPECT_NE(out.find("2000"), std::string::npos);
    // All lines equally wide.
    size_t width = out.find('\n');
    size_t pos = 0;
    while (pos < out.size()) {
        size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::percent(0.845, 1), "84.5%");
    EXPECT_EQ(TextTable::bytes(312640), "312640");
}

TEST(TextTable, SeparatorRows)
{
    TextTable t;
    t.setHeader({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::string out = t.toString();
    // header sep + top + mid + bottom = 4 separator lines.
    size_t count = 0, pos = 0;
    while ((pos = out.find("+-", pos)) != std::string::npos) {
        ++count;
        pos += 2;
    }
    EXPECT_EQ(count, 4u);
}

// ------------------------------------------------------------- Diagnostics

TEST(Diagnostics, CollectsAndRenders)
{
    DiagnosticEngine diags;
    EXPECT_FALSE(diags.hasErrors());
    diags.warning({1, 2}, "watch out");
    EXPECT_FALSE(diags.hasErrors());
    diags.error({3, 4}, "boom");
    EXPECT_TRUE(diags.hasErrors());
    ASSERT_EQ(diags.diagnostics().size(), 2u);
    EXPECT_EQ(diags.diagnostics()[1].toString(), "3:4: error: boom");
    EXPECT_NE(diags.toString().find("warning: watch out"),
              std::string::npos);
}

// ----------------------------------------------------------------- io_retry

TEST(IoRetry, ReadWriteRoundTripOverAPipe)
{
    int p[2];
    ASSERT_EQ(pipe(p), 0);
    const char msg[] = "supervision plane";
    ASSERT_EQ(io::writeRetry(p[1], msg, sizeof(msg)),
              ssize_t(sizeof(msg)));
    char buf[64] = {};
    ASSERT_EQ(io::readRetry(p[0], buf, sizeof(buf)),
              ssize_t(sizeof(msg)));
    EXPECT_STREQ(buf, msg);
    close(p[0]);
    close(p[1]);
}

TEST(IoRetry, SendRetryToClosedPeerIsEpipeNotSigpipe)
{
    // sendRetry must OR in MSG_NOSIGNAL: writing to a peer that already
    // closed has to come back as -1/EPIPE. Without the flag the kernel
    // raises SIGPIPE and this whole test binary dies here.
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    close(sv[1]);
    char byte = 'x';
    // First send may land in the (now orphaned) buffer; the second is
    // guaranteed to see the broken pipe.
    io::sendRetry(sv[0], &byte, 1);
    ssize_t n = io::sendRetry(sv[0], &byte, 1);
    EXPECT_EQ(n, -1);
    EXPECT_EQ(errno, EPIPE);
    close(sv[0]);
}

TEST(IoRetry, RetryIntrRerunsUntilNotEintr)
{
    int calls = 0;
    long r = io::retryIntr([&]() -> long {
        if (++calls < 3) {
            errno = EINTR;
            return -1;
        }
        return 42;
    });
    EXPECT_EQ(r, 42);
    EXPECT_EQ(calls, 3);

    // A non-EINTR failure is returned immediately, errno intact.
    calls = 0;
    r = io::retryIntr([&]() -> long {
        ++calls;
        errno = ECONNRESET;
        return -1;
    });
    EXPECT_EQ(r, -1);
    EXPECT_EQ(errno, ECONNRESET);
    EXPECT_EQ(calls, 1);
}

namespace {
void ignoreSigusr1(int) {}
} // namespace

TEST(IoRetry, ReadRetrySurvivesARealSignalInterruption)
{
    // Install a no-SA_RESTART handler so the blocking read genuinely
    // returns -1/EINTR, then prove readRetry hides the interruption.
    struct sigaction sa = {};
    struct sigaction old = {};
    sa.sa_handler = ignoreSigusr1;
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    int p[2];
    ASSERT_EQ(pipe(p), 0);
    std::atomic<bool> reading{false};
    pthread_t self = pthread_self();
    std::thread interrupter([&] {
        while (!reading.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (int i = 0; i < 5; ++i) {
            pthread_kill(self, SIGUSR1);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        const char msg[] = "finally";
        io::writeRetry(p[1], msg, sizeof(msg));
    });

    char buf[32] = {};
    reading.store(true);
    ssize_t n = io::readRetry(p[0], buf, sizeof(buf));
    interrupter.join();
    EXPECT_EQ(n, ssize_t(sizeof("finally")));
    EXPECT_STREQ(buf, "finally");
    close(p[0]);
    close(p[1]);
    sigaction(SIGUSR1, &old, nullptr);
}

TEST(IoRetry, EpollWaitRetryHonoursItsTimeout)
{
    int ep = epoll_create1(0);
    ASSERT_GE(ep, 0);
    epoll_event ev;
    auto t0 = std::chrono::steady_clock::now();
    int n = io::epollWaitRetry(ep, &ev, 1, 60);
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    EXPECT_EQ(n, 0);
    EXPECT_GE(ms, 50);
    EXPECT_LT(ms, 2000);
    close(ep);
}

} // namespace
} // namespace mdes

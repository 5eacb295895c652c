/**
 * @file
 * ServiceMetrics unit tests: every ErrorCode has a printable name, the
 * stats document is well-formed and gives back every field it was
 * written from, StageLatency's power-of-two bucketing handles both
 * extremes of the input range, the verify stage times exactly the
 * requests that ran the verify pass, the trace-section aggregates
 * (transform effects, conflict heat) merge and key correctly, and the
 * fleet merge is exact.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.h"
#include "machines/machines.h"
#include "service/metrics.h"
#include "service/service.h"
#include "service/stats.h"
#include "support/diagnostics.h"
#include "support/faultsim.h"
#include "support/json.h"

namespace mdes {
namespace {

TEST(ErrorCode, EveryCodeHasADistinctName)
{
    std::set<std::string> names;
    for (size_t i = 0; i < size_t(service::ErrorCode::kNumCodes); ++i) {
        const char *name =
            service::errorCodeName(service::ErrorCode(i));
        ASSERT_NE(name, nullptr) << "code " << i;
        EXPECT_STRNE(name, "") << "code " << i;
        EXPECT_STRNE(name, "?") << "code " << i;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate name '" << name << "' for code " << i;
    }
}

TEST(ErrorCode, RobustnessCodesHaveStableNames)
{
    // These names appear in batch summaries, JSON reports, and CI
    // regexes; renaming them is a compatibility break.
    EXPECT_STREQ(service::errorCodeName(service::ErrorCode::Overloaded),
                 "overloaded");
    EXPECT_STREQ(service::errorCodeName(service::ErrorCode::CircuitOpen),
                 "circuit-open");
    EXPECT_STREQ(service::errorCodeName(service::ErrorCode::Degraded),
                 "degraded");
}

TEST(StageLatency, ApproxPercentileTracksTheBuckets)
{
    service::StageLatency empty;
    EXPECT_EQ(empty.approxPercentileUs(0.99), 0u);

    service::StageLatency s;
    for (int i = 0; i < 9; ++i)
        s.record(100); // bucket 7: [64, 128)
    s.record(5000);    // bucket 13: [4096, 8192)

    // The median sits in the 100us bucket and is interpolated within
    // it: rank 5 of the 9 samples there, 64 + 63*5/9 = 99.
    EXPECT_EQ(s.approxPercentileUs(0.5), 99u);
    // The tail estimate is clamped to the observed maximum.
    EXPECT_EQ(s.approxPercentileUs(0.99), 5000u);
    EXPECT_EQ(s.approxPercentileUs(1.0), 5000u);
    // Rank 1 of the 100us bucket: 64 + 63*1/9 = 71.
    EXPECT_EQ(s.approxPercentileUs(0.0), 71u);
    // Out-of-range quantiles clamp instead of misbehaving.
    EXPECT_EQ(s.approxPercentileUs(-1.0), s.approxPercentileUs(0.0));
    EXPECT_EQ(s.approxPercentileUs(2.0), s.approxPercentileUs(1.0));
}

TEST(StageLatency, InterpolatedPercentilesTrackExactPercentiles)
{
    // Regression for the pre-interpolation estimator, which always
    // reported a bucket's upper edge (up to 2x the true value). The
    // interpolated estimate must land in the same log2 bucket as the
    // exact percentile of the underlying samples - error bounded by
    // the bucket width, never a whole bucket high.
    std::vector<uint64_t> vals;
    uint64_t x = 12345;
    for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        vals.push_back(50 + (x >> 33) % 2000);
    }
    service::StageLatency s;
    for (uint64_t v : vals)
        s.record(v);
    std::sort(vals.begin(), vals.end());

    for (double q : {0.05, 0.25, 0.5, 0.9, 0.95, 0.99}) {
        size_t rank = size_t(std::ceil(q * double(vals.size())));
        ASSERT_GE(rank, 1u);
        uint64_t exact = vals[rank - 1];
        uint64_t approx = s.approxPercentileUs(q);
        EXPECT_EQ(std::bit_width(approx), std::bit_width(exact))
            << "q=" << q << " exact=" << exact << " approx=" << approx;
        EXPECT_LE(approx, s.max_us) << "q=" << q;
    }
    // Monotone in q.
    EXPECT_LE(s.approxPercentileUs(0.5), s.approxPercentileUs(0.9));
    EXPECT_LE(s.approxPercentileUs(0.9), s.approxPercentileUs(0.99));
    EXPECT_LE(s.approxPercentileUs(0.99), s.approxPercentileUs(1.0));
}

TEST(StageLatency, BucketEdgesCoverTheFullRange)
{
    service::StageLatency zero;
    zero.record(0);
    EXPECT_EQ(zero.count, 1u);
    EXPECT_EQ(zero.total_us, 0u);
    EXPECT_EQ(zero.max_us, 0u);
    // bit_width(0) == 0: the zero-microsecond bucket.
    EXPECT_EQ(zero.log2_us.countAt(0), 1u);
    EXPECT_EQ(zero.log2_us.maxValue(), 0u);
    EXPECT_EQ(zero.log2_us.total(), zero.count);

    service::StageLatency huge;
    huge.record(UINT64_MAX);
    EXPECT_EQ(huge.count, 1u);
    EXPECT_EQ(huge.total_us, UINT64_MAX);
    EXPECT_EQ(huge.max_us, UINT64_MAX);
    // bit_width(UINT64_MAX) == 64: the top bucket, no overflow.
    ASSERT_EQ(std::bit_width(UINT64_MAX), 64);
    EXPECT_EQ(huge.log2_us.countAt(64), 1u);
    EXPECT_EQ(huge.log2_us.maxValue(), 64u);
    EXPECT_EQ(huge.log2_us.total(), huge.count);
}

TEST(StageLatency, MergeOfTheExtremesIsLossless)
{
    service::StageLatency a;
    a.record(0);
    service::StageLatency b;
    b.record(UINT64_MAX);

    a.merge(b);
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.total_us, UINT64_MAX);
    EXPECT_EQ(a.max_us, UINT64_MAX);
    EXPECT_EQ(a.log2_us.total(), 2u);
    EXPECT_EQ(a.log2_us.countAt(0), 1u);
    EXPECT_EQ(a.log2_us.countAt(64), 1u);
    for (uint64_t bucket = 1; bucket < 64; ++bucket)
        EXPECT_EQ(a.log2_us.countAt(bucket), 0u) << "bucket " << bucket;

    // Merging an empty series changes nothing.
    a.merge(service::StageLatency{});
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.total_us, UINT64_MAX);
}

/** A metrics object with every section populated, including the ones
 * the text form shows only with disk or trace state. */
service::ServiceMetrics
populatedMetrics()
{
    service::ServiceMetrics m;
    m.recordOutcome(service::ErrorCode::Ok);
    m.recordOutcome(service::ErrorCode::Ok);
    m.recordOutcome(service::ErrorCode::CompileFailed);
    m.compile.record(1500);
    m.workload.record(40);
    m.schedule.record(900);
    m.verify.record(300);
    m.total.record(2500);
    m.ops_scheduled = 600;
    m.attempts = 750;
    m.resource_checks = 9000;
    m.cache.hits = 2;
    m.cache.misses = 1;
    m.cache.compiles = 1;
    m.cache.size = 1;
    m.cache.capacity = 8;
    m.cache.disk_enabled = true;
    m.cache.disk_hits = 1;
    m.cache.disk_misses = 1;
    m.cache.disk_stores = 1;
    m.transform_effects.merged_options = 12;
    m.transform_effects.usages_hoisted = 3;
    m.attempts_per_op.add(1);
    m.attempts_per_op.add(1);
    m.attempts_per_op.add(4);
    m.resource_conflicts["M.alu[0]"] = 5;
    m.resource_conflicts["M.bus"] = 11;
    return m;
}

/** The stats document of @p m alone, as batch and a single server
 * write it. */
std::string
documentOf(const service::ServiceMetrics &m, uint64_t now_s = 0)
{
    return service::statsToJson({.now_s = now_s, .metrics = m});
}

TEST(ServiceMetrics, JsonParsesAndRoundTripsLosslessly)
{
    const std::string doc = documentOf(populatedMetrics());
    JsonValue v = parseJson(doc);
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(writeJson(v), doc);

    EXPECT_EQ(v.find("lifetime")->find("requests")->number, 3.0);
    EXPECT_EQ(v.find("lifetime")->find("ok")->number, 2.0);
    EXPECT_EQ(v.find("errors")->find("compile-failed")->number, 1.0);
    EXPECT_EQ(v.find("cache")->find("disk")->find("hits")->number, 1.0);
    EXPECT_EQ(v.find("latency")->find("compile")->find("max_us")->number,
              1500.0);
    EXPECT_EQ(v.find("latency")->find("verify")->find("total_us")->number,
              300.0);

    const JsonValue *tr = v.find("trace");
    ASSERT_NE(tr, nullptr);
    EXPECT_EQ(
        tr->find("transform_effects")->find("merged_options")->number,
        12.0);
    EXPECT_EQ(tr->find("attempts_per_op")->find("count")->number, 3.0);
    EXPECT_EQ(tr->find("attempts_per_op")->find("max")->number, 4.0);
    // Conflicts are ranked most-contended first.
    const JsonValue *conflicts = tr->find("resource_conflicts");
    ASSERT_NE(conflicts, nullptr);
    ASSERT_EQ(conflicts->object.size(), 2u);
    EXPECT_EQ(conflicts->object[0].first, "M.bus");
    EXPECT_EQ(conflicts->object[0].second.number, 11.0);
    EXPECT_EQ(conflicts->object[1].first, "M.alu[0]");
}

TEST(ServiceMetrics, MergeSumsEverySection)
{
    service::ServiceMetrics a = populatedMetrics();
    service::ServiceMetrics b = populatedMetrics();
    b.resource_conflicts["M.decode"] = 1;
    a.merge(b);

    EXPECT_EQ(a.requests, 6u);
    EXPECT_EQ(a.ok, 4u);
    EXPECT_EQ(a.errors[size_t(service::ErrorCode::CompileFailed)], 2u);
    EXPECT_EQ(a.compile.count, 2u);
    EXPECT_EQ(a.verify.count, 2u);
    EXPECT_EQ(a.verify.total_us, 600u);
    EXPECT_EQ(a.transform_effects.merged_options, 24u);
    EXPECT_EQ(a.attempts_per_op.total(), 6u);
    EXPECT_EQ(a.resource_conflicts["M.bus"], 22u);
    EXPECT_EQ(a.resource_conflicts["M.decode"], 1u);
    // The cache section sums too, or a fleet would report no hits.
    EXPECT_EQ(a.cache.hits, 4u);
    EXPECT_EQ(a.cache.compiles, 2u);
    EXPECT_EQ(a.cache.disk_hits, 2u);
    EXPECT_TRUE(a.cache.disk_enabled);
}

TEST(ServiceMetrics, VerifyStageTimesOnlyTheVerifyPass)
{
    EXPECT_NE(service::renderStats({.metrics = populatedMetrics()})
                  .find("verify"),
              std::string::npos);

    // The verify series counts requests that ran the verify pass: not
    // unverified ones, and not the portfolio's internal candidate check.
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    service::MdesService svc(cfg);
    auto request = [](service::SchedulerKind kind, bool verify) {
        service::ScheduleRequest req;
        req.machine = "SuperSPARC";
        req.synth_ops = 120;
        req.scheduler = kind;
        req.verify = verify;
        req.exact_ms = 0;
        req.exact_nodes = 500;
        return req;
    };
    for (auto [kind, verify] :
         {std::pair{service::SchedulerKind::List, true},
          std::pair{service::SchedulerKind::List, false},
          std::pair{service::SchedulerKind::Portfolio, false},
          std::pair{service::SchedulerKind::Portfolio, true}}) {
        auto r = svc.wait(svc.submit(request(kind, verify)));
        ASSERT_TRUE(r.ok()) << r.error.message;
    }
    service::ServiceMetrics m = svc.metricsSnapshot();
    EXPECT_EQ(m.schedule.count, 4u);
    EXPECT_EQ(m.verify.count, 2u);
    EXPECT_LE(m.verify.total_us, m.total.total_us);
}

TEST(ServiceMetrics, RecordShedIsTheSingleAuthority)
{
    // A shed submission must move all three views of "shed" together:
    // the request count, the Overloaded error bucket, and the
    // robustness counter. recordShed() is the only place that does so.
    service::ServiceMetrics m;
    m.recordShed(3);
    EXPECT_EQ(m.requests, 3u);
    EXPECT_EQ(m.errors[size_t(service::ErrorCode::Overloaded)], 3u);
    EXPECT_EQ(m.requests_shed, 3u);
    EXPECT_TRUE(m.shedConsistent());

    // Interleaving normal outcomes never breaks the invariant.
    m.recordOutcome(service::ErrorCode::Ok);
    m.recordOutcome(service::ErrorCode::CompileFailed);
    m.recordShed(2);
    EXPECT_EQ(m.requests, 7u);
    EXPECT_EQ(m.requests_shed, 5u);
    EXPECT_TRUE(m.shedConsistent());

    // The document's errors.overloaded (the authoritative counter)
    // agrees with robustness.requests_shed and lifetime.shed (mirrors).
    JsonValue v = parseJson(documentOf(m));
    EXPECT_EQ(v.find("errors")->find("overloaded")->number, 5.0);
    EXPECT_EQ(v.find("robustness")->find("requests_shed")->number, 5.0);
    EXPECT_EQ(v.find("lifetime")->find("shed")->number, 5.0);
}

TEST(ServiceMetrics, ShedConsistencySurvivesMerge)
{
    service::ServiceMetrics a, b;
    a.recordShed(2);
    b.recordShed(4);
    b.recordOutcome(service::ErrorCode::Ok);
    a.merge(b);
    EXPECT_EQ(a.requests_shed, 6u);
    EXPECT_EQ(a.errors[size_t(service::ErrorCode::Overloaded)], 6u);
    EXPECT_EQ(a.requests, 7u);
    EXPECT_TRUE(a.shedConsistent());
}

TEST(NetStats, MergeSumsEveryCounterAndJsonExposesThem)
{
    service::ServiceMetrics m = populatedMetrics();
    m.net.enabled = true;
    m.net.accepted = 4;
    m.net.closed = 3;
    m.net.active = 1;
    m.net.resets = 2;
    m.net.frames_in = 40;
    m.net.frames_out = 38;
    m.net.bytes_in = 4000;
    m.net.bytes_out = 9000;
    m.net.protocol_errors = 1;
    m.net.bad_requests = 2;
    m.net.shed = 5;
    m.net.deadline_expired = 1;
    m.net.backpressure_stalls = 7;
    m.net.cancelled_on_close = 1;

    service::ServiceMetrics other;
    other.net.enabled = true;
    other.net.accepted = 1;
    other.net.frames_in = 2;
    m.merge(other);
    EXPECT_EQ(m.net.accepted, 5u);
    EXPECT_EQ(m.net.frames_in, 42u);
    EXPECT_EQ(m.net.shed, 5u);

    const std::string doc = documentOf(m);
    JsonValue v = parseJson(doc);
    EXPECT_EQ(writeJson(v), doc); // still round-trips with the section
    const JsonValue *net = v.find("net");
    ASSERT_NE(net, nullptr);
    EXPECT_EQ(net->find("accepted")->number, 5.0);
    EXPECT_EQ(net->find("frames_in")->number, 42.0);
    EXPECT_EQ(net->find("backpressure_stalls")->number, 7.0);
    EXPECT_EQ(net->find("cancelled_on_close")->number, 1.0);

    // Disabled (no server ran): the section is still written, flagged
    // off, and the text form leaves its tables out.
    service::ServiceMetrics plain = populatedMetrics();
    const JsonValue plain_doc = parseJson(documentOf(plain));
    net = plain_doc.find("net");
    ASSERT_NE(net, nullptr);
    EXPECT_FALSE(net->find("enabled")->boolean);
    EXPECT_EQ(service::renderStats({.metrics = plain}).find("Frames In"),
              std::string::npos);
}

TEST(ServiceMetrics, RecordConflictsKeysByMachineAndResource)
{
    const machines::MachineInfo *machine = machines::all().front();
    exp::RunConfig config =
        exp::optimizedConfig(*machine, exp::Rep::AndOrTree);
    config.schedule = false;
    exp::RunResult result = exp::run(config);
    const lmdes::LowMdes &low = result.low;
    ASSERT_GE(low.numResources(), 2u);

    std::vector<uint64_t> per_resource(low.numResources(), 0);
    per_resource[0] = 4;
    per_resource[1] = 9;

    service::ServiceMetrics m;
    m.recordConflicts(low, per_resource);
    ASSERT_EQ(m.resource_conflicts.size(), 2u);
    EXPECT_EQ(m.resource_conflicts[low.machineName() + "." +
                                   low.resourceName(0)],
              4u);
    EXPECT_EQ(m.resource_conflicts[low.machineName() + "." +
                                   low.resourceName(1)],
              9u);
    // Zero entries contribute no keys; a second fold accumulates.
    m.recordConflicts(low, per_resource);
    EXPECT_EQ(m.resource_conflicts.size(), 2u);
    EXPECT_EQ(m.resource_conflicts[low.machineName() + "." +
                                   low.resourceName(1)],
              18u);
}

// --- Sliding windows ---------------------------------------------------

TEST(WindowRing, ViewsDecayWhileLifetimeWouldNot)
{
    service::WindowRing ring;
    const uint64_t now = 1000; // epoch 100
    ring.record(now, service::ErrorCode::Ok, 100);
    ring.record(now + 5, service::ErrorCode::Ok, 200); // same epoch

    service::WindowView w10 = ring.over(now + 5, 10);
    EXPECT_EQ(w10.requests, 2u);
    EXPECT_EQ(w10.ok, 2u);
    EXPECT_EQ(w10.total.count, 2u);
    EXPECT_EQ(w10.total.max_us, 200u);
    EXPECT_DOUBLE_EQ(w10.ratePerS(), 0.2);

    // One epoch later the 10s view is empty but the 60s view still
    // covers the old epoch.
    EXPECT_EQ(ring.over(now + 15, 10).requests, 0u);
    EXPECT_EQ(ring.over(now + 15, 60).requests, 2u);
    // Past the 60s horizon everything has decayed.
    EXPECT_EQ(ring.over(now + 100, 60).requests, 0u);
}

TEST(WindowRing, EmptyWindowPercentilesAreZeroNotGarbage)
{
    service::WindowRing ring;
    service::WindowView v = ring.over(12345, 60);
    EXPECT_EQ(v.requests, 0u);
    EXPECT_EQ(v.total.approxPercentileUs(0.5), 0u);
    EXPECT_EQ(v.total.approxPercentileUs(0.99), 0u);
    EXPECT_DOUBLE_EQ(v.ratePerS(), 0.0);
    EXPECT_DOUBLE_EQ(v.total.meanUs(), 0.0);

    // A ring with data outside the horizon behaves the same.
    ring.record(100, service::ErrorCode::Ok, 500);
    service::WindowView later = ring.over(100 + 700, 60);
    EXPECT_EQ(later.requests, 0u);
    EXPECT_EQ(later.total.approxPercentileUs(0.99), 0u);
}

TEST(WindowRing, RotationReclaimsWrappedSlots)
{
    // One request per epoch across three full ring wraps: each slot is
    // claimed and reset repeatedly, and only the freshest epochs
    // remain visible.
    service::WindowRing ring;
    const uint64_t epochs = uint64_t(service::kWindowSlots) * 3;
    for (uint64_t e = 1; e <= epochs; ++e)
        ring.record(e * service::kWindowSeconds,
                    service::ErrorCode::Ok, 100 * e);
    const uint64_t last_s = epochs * service::kWindowSeconds;
    EXPECT_EQ(ring.over(last_s, 10).requests, 1u);
    // The 60s horizon spans 6 epochs (current plus five back).
    EXPECT_EQ(ring.over(last_s, 60).requests, 6u);
    // No slot survived from an earlier wrap.
    for (size_t i = 0; i < service::kWindowSlots; ++i)
        EXPECT_GT(ring.slot(i).epoch + service::kWindowSlots, epochs)
            << "slot " << i;
}

TEST(WindowRing, ShedCountsAsRequestAndError)
{
    service::WindowRing ring;
    ring.recordShed(200, 3);
    ring.record(200, service::ErrorCode::Ok, 50);
    service::WindowView v = ring.over(200, 10);
    EXPECT_EQ(v.requests, 4u);
    EXPECT_EQ(v.errors, 3u);
    EXPECT_EQ(v.shed, 3u);
    EXPECT_EQ(v.ok, 1u);
    // Shed submissions carry no latency sample.
    EXPECT_EQ(v.total.count, 1u);
}

TEST(WindowRing, MergeIsEpochKeyed)
{
    const uint64_t now = 500; // epoch 50
    // Equal epochs sum.
    service::WindowRing a, b;
    a.record(now, service::ErrorCode::Ok, 100);
    b.record(now, service::ErrorCode::Ok, 300);
    a.merge(b);
    service::WindowView v = a.over(now, 10);
    EXPECT_EQ(v.requests, 2u);
    EXPECT_EQ(v.total.max_us, 300u);

    // A mid-rotation merge: the same slot holds a newer epoch in one
    // ring and a stale previous-wrap epoch in the other. The newer
    // delta replaces; the stale one is dropped, not double-counted.
    service::WindowRing c, d;
    const uint64_t wrapped =
        now + uint64_t(service::kWindowSlots) * service::kWindowSeconds;
    c.record(now, service::ErrorCode::Ok, 100);
    d.record(wrapped, service::ErrorCode::Ok, 300);
    c.merge(d);
    EXPECT_EQ(c.over(wrapped, 10).requests, 1u);
    EXPECT_EQ(c.over(wrapped, 10).total.max_us, 300u);
    // Merging the stale direction changes nothing.
    service::WindowRing e;
    e.record(now, service::ErrorCode::Ok, 100);
    d.merge(e);
    EXPECT_EQ(d.over(wrapped, 10).requests, 1u);
}

// --- The stats document -------------------------------------------------

/**
 * A visitMetrics() walk that fills every field: counters and bucket
 * counts from @p value, every error code, all 65 buckets of every stage
 * series, all seven window slots and every faultsim site; with @p traced
 * also the trace section's attempts/op histogram and conflict table.
 */
template <class Value>
class Filler
{
  public:
    Filler(Value value, bool traced) : value_(value), traced_(traced) {}

    void open(const char *) {}
    void close() {}

    template <class T>
    void
    count(const char *, T &n)
    {
        n = T(value_());
    }

    void flag(const char *, bool &b) { b = value_() & 1; }

    template <class... Ignored>
    void
    derived(const char *, Ignored &&...)
    {
    }

    void
    series(service::StageLatency &s)
    {
        for (size_t b = 0; b < service::kLog2Buckets; ++b) {
            const uint64_t n = value_();
            s.log2_us.addCount(b, n);
            s.count += n;
        }
        s.total_us = value_();
        s.max_us = value_();
    }

    void
    histogram(Histogram &h)
    {
        for (uint64_t v = 0; traced_ && v < 40; ++v)
            h.addCount(v, value_());
    }

    void
    windows(service::WindowRing &ring)
    {
        // Seven consecutive epochs: one per slot.
        const uint64_t top = std::max<uint64_t>(value_(), 7);
        for (uint64_t i = 0; i < service::kWindowSlots; ++i) {
            service::MetricsWindow w;
            w.epoch = top - i;
            w.requests = value_();
            w.ok = value_();
            w.errors = value_();
            w.shed = value_();
            series(w.total);
            ring.add(w);
        }
    }

    void
    faultSites(std::map<std::string, std::pair<uint64_t, uint64_t>> &sites)
    {
        for (size_t i = 0; i < faultsim::kNumSites; ++i)
            sites[faultsim::siteName(faultsim::Site(i))] = {value_(),
                                                            value_()};
    }

    void
    conflicts(std::map<std::string, uint64_t> &conflicts)
    {
        for (int k = 0; traced_ && k < 12; ++k)
            conflicts["M.r" + std::to_string(k)] = value_();
    }

  private:
    Value value_;
    bool traced_;
};

/** Every field of a ServiceMetrics filled from seed @p seed, with
 * values of every magnitude up to 2^64 - 1. */
service::ServiceMetrics
randomMetrics(uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Filler fill([&rng] { return rng() >> (rng() % 64); }, true);
    service::ServiceMetrics m;
    service::visitMetrics(fill, m);
    return m;
}

TEST(StatsProtocol, EveryFieldSurvivesTheRoundTrip)
{
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const service::ServiceMetrics m = randomMetrics(seed);
        ASSERT_NE(m.fault_sites.size(), 0u);
        ASSERT_NE(m.resource_conflicts.size(), 0u);
        const std::string doc = documentOf(m, 12345);
        const service::StatsDocument back = service::parseStats(doc);
        ASSERT_TRUE(back.metrics == m) << "seed " << seed;
        EXPECT_EQ(back.now_s, 12345u);
        EXPECT_EQ(documentOf(back.metrics, 12345), doc) << "seed " << seed;

        // merge() walks the same list: into an empty object it copies.
        service::ServiceMetrics merged;
        merged.merge(m);
        ASSERT_TRUE(merged == m) << "seed " << seed;
    }
}

TEST(StatsProtocol, AFleetOfOneIsThatShard)
{
    // A fleet document differs from its shard's only by per_shard,
    // supervision and its own shards/stale_shards.
    const service::ServiceMetrics m = randomMetrics(7);
    const service::StatsDocument fleet = service::parseStats(
        service::mergeShardStats({documentOf(m, 900)}, 900, {}, {{}}));
    EXPECT_TRUE(fleet.metrics == m);
    EXPECT_EQ(fleet.shards, 1u);
    EXPECT_EQ(fleet.stale_shards, 0u);
    ASSERT_EQ(fleet.per_shard.size(), 1u);
    EXPECT_EQ(fleet.per_shard[0].requests, m.requests);

    JsonValue shard = parseJson(documentOf(m, 900));
    JsonValue whole = parseJson(
        service::mergeShardStats({documentOf(m, 900)}, 900, {}, {{}}));
    std::vector<std::string> extra;
    for (const auto &[key, value] : whole.object) {
        const JsonValue *mine = shard.find(key);
        if (mine == nullptr)
            extra.push_back(key);
        else
            EXPECT_EQ(writeJson(value), writeJson(*mine)) << key;
    }
    EXPECT_EQ(extra, (std::vector<std::string>{"per_shard", "supervision"}));
}

TEST(StatsProtocol, TheLargestShardReplyFitsOneDatagram)
{
    // Every counter, bucket and fault-site count at 20 digits. A serving
    // shard never runs a trace, so its trace section has no attempts/op
    // histogram and no conflict table.
    Filler fill([] { return UINT64_MAX; }, false);
    service::ServiceMetrics m;
    service::visitMetrics(fill, m);
    ASSERT_EQ(m.fault_sites.size(), faultsim::kNumSites);
    ASSERT_TRUE(m.net.enabled);
    const std::string doc = documentOf(m, UINT64_MAX);
    // The poll reply is the 9-byte poll header plus the document.
    EXPECT_LT(9 + doc.size(), service::kStatsDatagramMax) << doc.size();
}

TEST(StatsProtocol, SnapshotRoundTripsThroughJson)
{
    service::ServiceMetrics m = populatedMetrics();
    const uint64_t now = 700; // epoch 70
    m.windows.record(now, service::ErrorCode::Ok, 500);
    m.windows.record(now, service::ErrorCode::CompileFailed, 900);
    m.net.enabled = true;
    m.net.active = 2;
    m.net.stats_requests = 5;
    m.net.stats_coalesced = 1;

    const std::string doc = documentOf(m, now);
    // The document is valid JSON (CI validates the same schema).
    EXPECT_EQ(parseJson(doc).kind, JsonValue::Kind::Object);

    service::StatsDocument snap = service::parseStats(doc);
    EXPECT_EQ(snap.now_s, now);
    EXPECT_EQ(snap.shards, 1u);
    EXPECT_TRUE(snap.metrics == m);
    EXPECT_EQ(snap.metrics.total.approxPercentileUs(0.99),
              m.total.approxPercentileUs(0.99));

    // The window ring survives the round trip slot-for-slot.
    service::WindowView w10 = snap.metrics.windows.over(now, 10);
    EXPECT_EQ(w10.requests, 2u);
    EXPECT_EQ(w10.errors, 1u);
    EXPECT_EQ(w10.total.max_us, 900u);
}

TEST(StatsProtocol, ASeriesHasAtMost65Buckets)
{
    // bit_width(UINT64_MAX) == 64: the top bucket, the 65th.
    service::ServiceMetrics m;
    m.total.record(UINT64_MAX);
    const std::string doc = documentOf(m);
    const service::StatsDocument back = service::parseStats(doc);
    EXPECT_TRUE(back.metrics == m);
    // Its estimate and label stay inside the bucket's u64 range.
    EXPECT_EQ(back.metrics.total.approxPercentileUs(1.0), UINT64_MAX);
    EXPECT_EQ(back.metrics.total.approxPercentileUs(0.5), UINT64_MAX);
    EXPECT_NE(service::renderStats(back).find(
                  "<=18446744073709551615us (9223372036854775808-"),
              std::string::npos);

    // A 66th bucket has no u64 behind it: the document is rejected, and
    // a shard that sent it reads stale.
    std::string bad = doc;
    const size_t at = bad.find("\"buckets\":[") + 11;
    bad.insert(at, "0,");
    EXPECT_THROW(service::parseStats(bad), MdesError);
    const service::StatsDocument fleet = service::parseStats(
        service::mergeShardStats({bad}, 0, {}, {{}}));
    ASSERT_EQ(fleet.per_shard.size(), 1u);
    EXPECT_TRUE(fleet.per_shard[0].stale);
}

TEST(StatsProtocol, MergeShardStatsBuildsTheFleetView)
{
    const uint64_t now = 900; // epoch 90
    service::ServiceMetrics m1;
    m1.recordOutcome(service::ErrorCode::Ok);
    m1.total.record(100);
    m1.windows.record(now, service::ErrorCode::Ok, 100);
    m1.cache.hits = 3;
    service::ServiceMetrics m2;
    m2.recordOutcome(service::ErrorCode::Ok);
    m2.total.record(5000);
    m2.windows.record(now, service::ErrorCode::Ok, 5000);
    m2.cache.hits = 4;

    service::SupervisionInfo sup;
    sup.restarts = 2;
    std::vector<service::ShardSupervision> rows(2);
    rows[0].pid = 101;
    rows[1].pid = 102;
    rows[1].restarts = 2;
    const std::string fleet = service::mergeShardStats(
        {documentOf(m1, now), documentOf(m2, now)}, now, sup, rows);
    service::StatsDocument snap = service::parseStats(fleet);
    EXPECT_EQ(snap.shards, 2u);
    EXPECT_EQ(snap.stale_shards, 0u);
    EXPECT_EQ(snap.metrics.requests, 2u);
    EXPECT_EQ(snap.metrics.cache.hits, 7u);
    EXPECT_EQ(snap.supervision.restarts, 2u);
    ASSERT_EQ(snap.per_shard.size(), 2u);
    EXPECT_EQ(snap.per_shard[0].w60_p99_us, 100u);
    EXPECT_EQ(snap.per_shard[1].w60_p99_us, 5000u);
    EXPECT_EQ(snap.per_shard[0].pid, 101);
    EXPECT_EQ(snap.per_shard[1].restarts, 2u);
    EXPECT_EQ(snap.per_shard[1].state, "live");
    // Fleet percentiles come from the merged distribution - the p99
    // reflects the slow shard's sample, not an average of per-shard
    // percentiles (which would report ~2550).
    EXPECT_EQ(snap.metrics.total.approxPercentileUs(0.99), 5000u);
    EXPECT_EQ(snap.metrics.windows.over(now, 60).total.max_us, 5000u);
}

TEST(StatsProtocol, StalledShardYieldsAPartialFleetViewNotAnError)
{
    const uint64_t now = 900;
    service::ServiceMetrics m1;
    m1.recordOutcome(service::ErrorCode::Ok);
    m1.total.record(100);
    m1.windows.record(now, service::ErrorCode::Ok, 100);

    // Shard 1 timed out (empty answer); shard 2 sent garbage and is
    // down in backoff.
    std::vector<service::ShardSupervision> rows(3);
    rows[2].pid = -1;
    rows[2].state = "backoff";
    const std::string fleet = service::mergeShardStats(
        {documentOf(m1, now), "", "{definitely not json"}, now, {}, rows);
    service::StatsDocument snap = service::parseStats(fleet);
    EXPECT_EQ(snap.shards, 1u);
    EXPECT_EQ(snap.stale_shards, 2u);
    EXPECT_EQ(snap.metrics.requests, 1u); // the live shard's numbers survive
    ASSERT_EQ(snap.per_shard.size(), 3u);
    EXPECT_FALSE(snap.per_shard[0].stale);
    EXPECT_TRUE(snap.per_shard[1].stale);
    EXPECT_TRUE(snap.per_shard[2].stale);
    // Rendering a partial view works: a live shard that missed the poll
    // shows STALE, a down one its supervision state.
    const std::string text = service::renderStats(snap);
    EXPECT_NE(text.find("STALE"), std::string::npos);
    EXPECT_NE(text.find("live"), std::string::npos);
    EXPECT_NE(text.find("backoff"), std::string::npos);

    // Every shard stale: still a well-formed document.
    service::StatsDocument all_stale = service::parseStats(
        service::mergeShardStats({"", ""}, now, {}, {{}, {}}));
    EXPECT_EQ(all_stale.shards, 0u);
    EXPECT_EQ(all_stale.stale_shards, 2u);
    EXPECT_EQ(all_stale.metrics.requests, 0u);
}

TEST(ServiceMetrics, WindowSectionAppearsInTableAndJson)
{
    service::ServiceMetrics m = populatedMetrics();
    const uint64_t now = service::windowNowS();
    m.windows.record(now, service::ErrorCode::Ok, 250);
    const std::string doc = documentOf(m, now);
    JsonValue v = parseJson(doc);
    EXPECT_EQ(writeJson(v), doc);
    const JsonValue *w = v.find("windows");
    ASSERT_NE(w, nullptr);
    ASSERT_NE(w->find("w10"), nullptr);
    EXPECT_EQ(w->find("w10")->find("horizon_s")->number, 10.0);
    ASSERT_NE(w->find("w60"), nullptr);
    EXPECT_EQ(w->find("w60")->find("requests")->number, 1.0);

    const std::string table =
        service::renderStats({.now_s = now, .metrics = m});
    EXPECT_NE(table.find("last 10s"), std::string::npos);
    EXPECT_NE(table.find("last 60s"), std::string::npos);
}

} // namespace
} // namespace mdes

/**
 * @file
 * Service-layer tests: worker-count determinism (the same batch must
 * produce byte-identical schedules at 1 and 8 workers), cache pointer
 * identity and LRU behavior, deadline/cancellation/error surfaces, and
 * metrics accounting.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "machines/machines.h"
#include "service/service.h"
#include "service/stats.h"

#ifndef MDES_SOURCE_DIR
#define MDES_SOURCE_DIR "."
#endif

namespace mdes {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

service::ScheduleRequest
syntheticRequest(const std::string &machine, size_t ops,
                 uint64_t seed = 0)
{
    service::ScheduleRequest req;
    req.machine = machine;
    req.synth_ops = ops;
    req.seed = seed;
    return req;
}

/** A mixed batch covering machines and scheduler kinds. */
std::vector<service::ScheduleRequest>
mixedBatch()
{
    std::vector<service::ScheduleRequest> batch;
    batch.push_back(syntheticRequest("SuperSPARC", 1200));
    batch.push_back(syntheticRequest("SuperSPARC", 1200, 7));
    batch.push_back(syntheticRequest("K5", 800));
    batch.push_back(syntheticRequest("PA7100", 800));
    batch.push_back(syntheticRequest("Pentium", 800));
    batch.back().scheduler = service::SchedulerKind::Backward;
    batch.push_back(syntheticRequest("PA7100", 300));
    batch.back().scheduler = service::SchedulerKind::Modulo;
    return batch;
}

TEST(Service, DeterministicAcrossWorkerCounts)
{
    std::vector<service::ScheduleResponse> one, eight;
    {
        service::MdesService svc({.num_workers = 1});
        one = svc.runBatch(mixedBatch());
    }
    {
        service::MdesService svc({.num_workers = 8});
        eight = svc.runBatch(mixedBatch());
    }
    ASSERT_EQ(one.size(), eight.size());
    for (size_t i = 0; i < one.size(); ++i) {
        ASSERT_TRUE(one[i].ok()) << one[i].error.message;
        ASSERT_TRUE(eight[i].ok()) << eight[i].error.message;
        // Byte-identical schedules, not just equal lengths.
        EXPECT_EQ(one[i].schedules, eight[i].schedules) << "request " << i;
        EXPECT_EQ(one[i].total_cycles, eight[i].total_cycles);
        EXPECT_EQ(service::scheduleFingerprint(one[i]),
                  service::scheduleFingerprint(eight[i]));
        // Identical inputs also mean identical checker work.
        EXPECT_EQ(one[i].stats.checks.attempts,
                  eight[i].stats.checks.attempts);
    }
}

TEST(Service, CacheHitReturnsSamePointer)
{
    service::MdesService svc({.num_workers = 2});
    auto first = svc.wait(svc.submit(syntheticRequest("K5", 500)));
    auto second = svc.wait(svc.submit(syntheticRequest("K5", 500, 9)));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(first.cache_hit);
    EXPECT_TRUE(second.cache_hit);
    // One compiled artifact, shared.
    EXPECT_EQ(first.low.get(), second.low.get());

    // A different pipeline configuration is a different artifact.
    auto req = syntheticRequest("K5", 500);
    req.transforms = PipelineConfig::none();
    auto third = svc.wait(svc.submit(req));
    ASSERT_TRUE(third.ok());
    EXPECT_FALSE(third.cache_hit);
    EXPECT_NE(third.low.get(), first.low.get());
}

TEST(Service, WarmCacheRecompilesNothing)
{
    service::MdesService svc({.num_workers = 4});
    auto cold = svc.runBatch(mixedBatch());
    for (const auto &r : cold)
        ASSERT_TRUE(r.ok()) << r.error.message;
    uint64_t compiles_after_cold = svc.cache().stats().compiles;

    auto warm = svc.runBatch(mixedBatch());
    for (const auto &r : warm) {
        ASSERT_TRUE(r.ok()) << r.error.message;
        EXPECT_TRUE(r.cache_hit);
    }
    EXPECT_EQ(svc.cache().stats().compiles, compiles_after_cold);
}

TEST(Service, LruEvictsLeastRecentlyUsed)
{
    service::MdesService svc({.num_workers = 1, .cache_capacity = 2});
    ASSERT_TRUE(svc.wait(svc.submit(syntheticRequest("K5", 200))).ok());
    ASSERT_TRUE(
        svc.wait(svc.submit(syntheticRequest("PA7100", 200))).ok());
    // Touch K5 so PA7100 is the LRU entry, then insert a third machine.
    ASSERT_TRUE(svc.wait(svc.submit(syntheticRequest("K5", 200))).ok());
    ASSERT_TRUE(
        svc.wait(svc.submit(syntheticRequest("Pentium", 200))).ok());
    EXPECT_EQ(svc.cache().stats().evictions, 1u);
    // K5 survived the eviction; PA7100 did not.
    EXPECT_TRUE(
        svc.wait(svc.submit(syntheticRequest("K5", 200))).cache_hit);
    EXPECT_FALSE(
        svc.wait(svc.submit(syntheticRequest("PA7100", 200))).cache_hit);
}

TEST(Service, SasmWorkloadAndInlineSource)
{
    service::MdesService svc({.num_workers = 2});
    std::string sasm = readFile(std::string(MDES_SOURCE_DIR) +
                                "/descriptions/dotproduct.sasm");

    // .sasm against a built-in machine name.
    service::ScheduleRequest by_name;
    by_name.machine = "SuperSPARC";
    by_name.sasm = sasm;
    by_name.verify = true;
    auto r1 = svc.wait(svc.submit(by_name));
    ASSERT_TRUE(r1.ok()) << r1.error.message;
    EXPECT_GT(r1.total_cycles, 0u);

    // Same description delivered as inline source: same schedule.
    service::ScheduleRequest by_source;
    by_source.source = machines::superSparc().source;
    by_source.sasm = sasm;
    auto r2 = svc.wait(svc.submit(by_source));
    ASSERT_TRUE(r2.ok()) << r2.error.message;
    EXPECT_EQ(r1.schedules, r2.schedules);
    EXPECT_EQ(r2.machine, "SuperSPARC");
}

TEST(Service, TypedErrors)
{
    service::MdesService svc({.num_workers = 2});

    auto unknown =
        svc.wait(svc.submit(syntheticRequest("NotAMachine", 100)));
    EXPECT_EQ(unknown.error.code, service::ErrorCode::UnknownMachine);

    service::ScheduleRequest bad_source;
    bad_source.source = "this is not hmdes";
    bad_source.sasm = "block\nend\n";
    auto compile_failed = svc.wait(svc.submit(bad_source));
    EXPECT_EQ(compile_failed.error.code,
              service::ErrorCode::CompileFailed);
    EXPECT_FALSE(compile_failed.error.message.empty());

    service::ScheduleRequest no_workload;
    no_workload.source = machines::k5().source;
    auto bad_request = svc.wait(svc.submit(no_workload));
    EXPECT_EQ(bad_request.error.code, service::ErrorCode::BadRequest);

    service::ScheduleRequest bad_sasm;
    bad_sasm.machine = "K5";
    bad_sasm.sasm = "block\n  NOT_AN_OPCODE r1 <- r2\nend\n";
    auto bad_workload = svc.wait(svc.submit(bad_sasm));
    EXPECT_EQ(bad_workload.error.code, service::ErrorCode::BadWorkload);

    // A synthetic workload over the cap is refused, not built.
    auto too_big = svc.wait(
        svc.submit(syntheticRequest("PA7100", service::kMaxSynthOps + 1)));
    EXPECT_EQ(too_big.error.code, service::ErrorCode::BadRequest);

    // A failed compile is not cached: the next identical request
    // re-attempts (and fails again) rather than hitting a poisoned
    // entry.
    auto again = svc.wait(svc.submit(bad_source));
    EXPECT_EQ(again.error.code, service::ErrorCode::CompileFailed);
    EXPECT_FALSE(again.cache_hit);
}

TEST(Service, UnissuableOperationIsScheduleFailed)
{
    // STUCK's two OR subtrees both need the single R instance at time
    // 0, so no cycle can ever issue it; ADD runs on its own resource.
    static const char *src = R"(
machine "stuck" {
    resource R[1];
    resource S[1];
    ortree A { option { use R[0] at 0; } }
    ortree B { option { use R[0] at 0; } }
    ortree OnS { option { use S[0] at 0; } }
    table Both = and(A, B);
    table One = OnS;
    operation STUCK { table Both; latency 1; }
    operation ADD { table One; latency 1; }
}
)";
    service::MdesService svc({.num_workers = 1});
    for (auto kind :
         {service::SchedulerKind::List, service::SchedulerKind::Backward,
          service::SchedulerKind::Exact,
          service::SchedulerKind::Portfolio}) {
        SCOPED_TRACE(service::schedulerKindName(kind));
        service::ScheduleRequest req;
        req.source = src;
        req.scheduler = kind;
        req.sasm = "block\n    ADD r1 <- r2\n    STUCK r3 <- r1\nend\n";
        auto stuck = svc.wait(svc.submit(req));
        EXPECT_EQ(stuck.error.code, service::ErrorCode::ScheduleFailed);
        EXPECT_NE(stuck.error.message.find("exceeded cycle bound"),
                  std::string::npos)
            << stuck.error.message;

        // The description itself is fine for operations that can issue.
        req.sasm = "block\n    ADD r1 <- r2\n    ADD r3 <- r1\nend\n";
        auto add_only = svc.wait(svc.submit(req));
        EXPECT_TRUE(add_only.ok()) << add_only.error.message;
    }
}

TEST(Service, OptimizerLeavesOverlappingTablesAsWritten)
{
    // X and Y can both claim R[0] and R[5] at time 0. Sorting would
    // check Y first (fewer options), and Y's first option then blocks
    // all three of X's, so no cycle could issue OP. The Section 8
    // passes skip a table whose subtrees overlap instead.
    static const char *src = R"(
machine "Trap" {
    resource R[6];
    ortree X {
        option { use R[0] at 0; use R[2] at 0; }
        option { use R[5] at 0; use R[3] at 0; }
        option { use R[0] at 0; use R[4] at 0; }
    }
    ortree Y {
        option { use R[0] at 0; use R[5] at 0; }
        option { use R[1] at 0; }
    }
    table T = and(X, Y);
    operation OP { table T; latency 1; }
}
)";
    service::MdesService svc({.num_workers = 1});
    for (auto kind :
         {service::SchedulerKind::List, service::SchedulerKind::Backward,
          service::SchedulerKind::Exact,
          service::SchedulerKind::Portfolio}) {
        SCOPED_TRACE(service::schedulerKindName(kind));
        service::ScheduleRequest req;
        req.source = src;
        req.scheduler = kind;
        req.sasm = "block\n    OP r1 <- r2\nend\n";
        req.verify = true;
        auto optimized = svc.wait(svc.submit(req));
        req.transforms = PipelineConfig::none();
        auto original = svc.wait(svc.submit(req));
        ASSERT_TRUE(optimized.ok()) << optimized.error.message;
        ASSERT_TRUE(original.ok()) << original.error.message;
        ASSERT_EQ(optimized.schedules.size(), 1u);
        EXPECT_EQ(optimized.schedules[0].cycles,
                  original.schedules[0].cycles);
        EXPECT_EQ(service::scheduleFingerprint(optimized),
                  service::scheduleFingerprint(original));
    }
}

TEST(Service, DeadlineExceededWhileQueued)
{
    // One worker, blocked by a large request: the deadline of the
    // queued request lapses before a worker ever picks it up.
    service::MdesService svc({.num_workers = 1});
    auto blocker_id = svc.submit(syntheticRequest("SuperSPARC", 20000));
    auto doomed = syntheticRequest("K5", 100);
    doomed.deadline_ms = 1;
    auto doomed_id = svc.submit(doomed);
    EXPECT_EQ(svc.wait(doomed_id).error.code,
              service::ErrorCode::DeadlineExceeded);
    EXPECT_TRUE(svc.wait(blocker_id).ok());
}

TEST(Service, CancelQueuedRequest)
{
    service::MdesService svc({.num_workers = 1});
    auto blocker_id = svc.submit(syntheticRequest("SuperSPARC", 20000));
    auto victim_id = svc.submit(syntheticRequest("K5", 100));
    EXPECT_TRUE(svc.cancel(victim_id));
    EXPECT_EQ(svc.wait(victim_id).error.code,
              service::ErrorCode::Cancelled);
    EXPECT_TRUE(svc.wait(blocker_id).ok());
    // Unknown / already-waited ids are reported, not UB.
    EXPECT_FALSE(svc.cancel(victim_id));
    EXPECT_EQ(svc.wait(9999).error.code, service::ErrorCode::BadRequest);
}

TEST(Service, MetricsAccounting)
{
    service::MdesService svc({.num_workers = 4});
    auto responses = svc.runBatch(mixedBatch());
    ASSERT_EQ(responses.size(), 6u);
    svc.wait(svc.submit(syntheticRequest("NotAMachine", 1)));

    service::ServiceMetrics m = svc.metricsSnapshot();
    EXPECT_EQ(m.requests, 7u);
    EXPECT_EQ(m.ok, 6u);
    EXPECT_EQ(m.errors[size_t(service::ErrorCode::UnknownMachine)], 1u);
    EXPECT_EQ(m.total.count, 7u);
    EXPECT_EQ(m.schedule.count, 6u);
    EXPECT_GT(m.ops_scheduled, 0u);
    EXPECT_GT(m.attempts, 0u);
    // The unknown-machine request never reaches the cache; the six
    // batch requests cover four distinct keys (the two SuperSPARC
    // requests share one, and the two PA7100 requests share one: the
    // scheduler kind is not part of the compiled artifact).
    EXPECT_EQ(m.cache.hits + m.cache.misses, 6u);
    EXPECT_EQ(m.cache.misses, 4u);
    EXPECT_EQ(m.cache.hits, 2u);

    const service::StatsDocument doc{.metrics = m};
    std::string table = service::renderStats(doc);
    EXPECT_NE(table.find("unknown-machine"), std::string::npos);
    std::string json = service::statsToJson(doc);
    EXPECT_NE(json.find("\"requests\":7"), std::string::npos);
    EXPECT_NE(json.find("\"hit_rate\":"), std::string::npos);
    EXPECT_NE(json.find("\"unknown-machine\":1"), std::string::npos);
}

TEST(Service, VerifyCoversModuloRequests)
{
    service::MdesService svc({.num_workers = 1});
    service::ScheduleRequest loops = syntheticRequest("PA7100", 600);
    loops.scheduler = service::SchedulerKind::Modulo;
    loops.verify = true;
    // A body that ends in a branch, which the loop graph does not keep
    // last.
    service::ScheduleRequest branchy;
    branchy.machine = "SuperSPARC";
    branchy.sasm = readFile(std::string(MDES_SOURCE_DIR) +
                            "/descriptions/dotproduct.sasm");
    branchy.scheduler = service::SchedulerKind::Modulo;
    branchy.verify = true;
    uint64_t verified = 0;
    for (const service::ScheduleRequest &req : {loops, branchy}) {
        auto r = svc.wait(svc.submit(req));
        ASSERT_TRUE(r.ok()) << r.error.message;
        EXPECT_FALSE(r.modulo.empty());
        EXPECT_EQ(svc.metricsSnapshot().verify.count, ++verified);
    }
}

TEST(Service, PortfolioAdmitsCertifiedModuloCandidates)
{
    // Two branch-free Pentium bodies on which the modulo schedule's flat
    // form is the shortest candidate. It is admitted by the options its
    // modulo reservation table chose; a greedy replay in (cycle,
    // priority) order picks other options on the second body and
    // rejects its legal candidate.
    service::MdesService svc({.num_workers = 1});
    service::ScheduleRequest req;
    req.machine = "Pentium";
    req.sasm = R"(
block
    SAR r2 <- r1
    SHL r5 <- r4
    SHL r3 <- r0
    MOV_RM r0 <- r6
    ALU_RI r6 <- r1
    SHL r4 <- r4
    ALU_RR r6 <- r5, r6
end
block
    ALU_RR r5 <- r2, r0
    SHL r2 <- r6
    STOS <- r6, r5
end
)";
    req.scheduler = service::SchedulerKind::Portfolio;
    req.verify = true;
    req.exact_ms = 0; // node budget only: deterministic
    req.exact_nodes = 2000;
    auto r = svc.wait(svc.submit(req));
    ASSERT_TRUE(r.ok()) << r.error.message;
    EXPECT_EQ(r.exact.blocks, 2u);
    EXPECT_EQ(r.exact.wins_modulo, 2u);
    for (const service::BlockOutcome &out : r.outcomes)
        EXPECT_EQ(out.winner, service::SchedulerKind::Modulo);
    EXPECT_EQ(svc.metricsSnapshot().verify.count, 1u);
}

TEST(Service, SchedulerKindNamesRoundTrip)
{
    for (service::SchedulerKind kind :
         {service::SchedulerKind::List, service::SchedulerKind::Backward,
          service::SchedulerKind::Modulo, service::SchedulerKind::Exact,
          service::SchedulerKind::Portfolio})
        EXPECT_EQ(service::parseSchedulerKind(
                      service::schedulerKindName(kind)),
                  kind);
    EXPECT_EQ(service::parseSchedulerKind("greedy"), std::nullopt);
    EXPECT_EQ(service::parseSchedulerKind(""), std::nullopt);
    EXPECT_EQ(service::parseSchedulerKind("List"), std::nullopt);
}

TEST(Service, FingerprintDistinguishesSchedules)
{
    service::MdesService svc({.num_workers = 2});
    auto a = svc.wait(svc.submit(syntheticRequest("K5", 500)));
    auto b = svc.wait(svc.submit(syntheticRequest("K5", 500, 42)));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(service::scheduleFingerprint(a),
              service::scheduleFingerprint(b));
    // And is stable for identical requests.
    auto a2 = svc.wait(svc.submit(syntheticRequest("K5", 500)));
    EXPECT_EQ(service::scheduleFingerprint(a),
              service::scheduleFingerprint(a2));
}

} // namespace
} // namespace mdes

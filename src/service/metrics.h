#ifndef MDES_SERVICE_METRICS_H
#define MDES_SERVICE_METRICS_H

/**
 * @file
 * Service observability: request counters, per-stage latency
 * histograms, and scheduling aggregates.
 *
 * Each worker thread owns one ServiceMetrics and records into it without
 * contention; a snapshot merges every worker's copy (plus the cache's own
 * counters) into one. The stats document (stats.h) is the only
 * serialization: visitMetrics() below lists every field once, and the
 * document's writer, its parser, its text tables and merge() all walk
 * that list.
 *
 * Latencies are recorded in microseconds but bucketed by power of two
 * (value = bit_width(us)), so a histogram stays at most 65 slots even
 * for second-long requests: bucket b covers [2^(b-1), 2^b) us.
 */

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/transforms.h"
#include "service/cache.h"
#include "support/histogram.h"

namespace mdes::service {

/** Why a request failed (Ok = it did not). */
enum class ErrorCode : int {
    Ok = 0,
    UnknownMachine,
    CompileFailed,
    BadWorkload,
    BadRequest,
    DeadlineExceeded,
    Cancelled,
    ScheduleFailed,
    Internal,
    /** Shed at admission: the bounded queue was full. */
    Overloaded,
    /** Failed fast: the description's circuit breaker is open. */
    CircuitOpen,
    /** Reserved for clients that treat a degraded response as an error;
     * the service itself reports degradation via
     * ScheduleResponse::degraded with code Ok. */
    Degraded,
    /** Shed at the socket tier: the server is draining after SIGTERM
     * and no longer admits new requests (DESIGN.md §15). In-flight
     * work still completes; load balancers should retry elsewhere. */
    Draining,
    kNumCodes
};

/** Printable name of @p code. */
const char *errorCodeName(ErrorCode code);

/** Buckets a log2 series can have: bit_width of a u64 is 0..64. */
inline constexpr size_t kLog2Buckets = 65;

/** Latency series for one request stage. */
struct StageLatency
{
    /** Power-of-two buckets: sample = bit_width(microseconds). */
    Histogram log2_us;
    uint64_t count = 0;
    uint64_t total_us = 0;
    uint64_t max_us = 0;

    /** Record one duration of @p us microseconds. */
    void record(uint64_t us);

    /** Combine another series into this one (used lock-free at
     * snapshot time: each input belongs to a quiesced worker). */
    void merge(const StageLatency &other);

    double
    meanUs() const
    {
        return count ? double(total_us) / double(count) : 0.0;
    }

    /**
     * Approximate @p q-quantile (q in [0,1]) in microseconds from the
     * power-of-two buckets. The q-th sample's bucket is located by
     * nearest rank, then the estimate interpolates linearly *within*
     * the bucket (samples assumed evenly spread across [2^(b-1),
     * 2^b)), clamped to the observed maximum. Error is bounded by the
     * sample spread inside one bucket instead of the full bucket
     * width, which matters at the coarse tail buckets where the old
     * upper-edge answer overstated p99 by up to 2x. Returns 0 for an
     * empty series.
     */
    uint64_t approxPercentileUs(double q) const;

    bool operator==(const StageLatency &) const = default;
};

// --- Sliding-window telemetry ------------------------------------------
//
// Lifetime histograms answer "how has this process behaved since
// start"; a dashboard needs "how is it behaving *now*". Each worker's
// metrics carry a small ring of per-10s delta windows: a request lands
// in the slot for epoch now_s/10, claiming (and resetting) the slot
// when its previous tenant is older. A snapshot sums the slots inside
// a horizon (last 10s / last 60s) into current rates and percentiles;
// as epochs age out of the horizon the windowed view decays to zero
// while the lifetime histograms stay monotone.
//
// Slots are keyed by absolute epoch (slot index = epoch % kWindowSlots)
// so windows merge across workers - and across forked shard processes,
// whose steady clocks share the same machine-wide origin - slot by
// slot with Histogram::merge.

/** Window width. Every window boundary is a multiple of this. */
inline constexpr uint64_t kWindowSeconds = 10;
/** Ring length: 60s horizon plus one slot of rotation slack. */
inline constexpr size_t kWindowSlots = 7;

/** Monotonic seconds for window epochs (machine-wide CLOCK_MONOTONIC
 * base, so forked shards stamp the same epoch at the same instant). */
uint64_t windowNowS();

/** One 10-second delta window. epoch == 0 means "empty slot". */
struct MetricsWindow
{
    uint64_t epoch = 0;
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    /** End-to-end request latency deltas for this window. */
    StageLatency total;

    bool operator==(const MetricsWindow &) const = default;
};

/** Aggregate of the windows inside one horizon. */
struct WindowView
{
    uint64_t horizon_s = 0;
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    StageLatency total;

    double
    ratePerS() const
    {
        return horizon_s ? double(requests) / double(horizon_s) : 0.0;
    }
};

/** The rotating ring of per-10s windows. */
class WindowRing
{
  public:
    /** Record one completed request into the window for @p now_s. */
    void record(uint64_t now_s, ErrorCode code, uint64_t total_us);

    /** Record @p n admission-shed submissions into @p now_s's window
     * (counted as requests and errors; no latency sample). */
    void recordShed(uint64_t now_s, uint64_t n);

    /** Fold one window into its slot (epoch % kWindowSlots): an equal
     * epoch sums (histograms via Histogram::merge), a newer epoch
     * replaces, an older one is stale and ignored. */
    void add(const MetricsWindow &window);

    /** Slot-wise add() of every window @p other holds. */
    void merge(const WindowRing &other);

    /** Sum of the windows covering the last @p horizon_s seconds
     * ending at @p now_s (epoch granularity; horizon capped at the
     * ring length). */
    WindowView over(uint64_t now_s, uint64_t horizon_s) const;

    /** Slot access for serialization (stats protocol) and tests. */
    const MetricsWindow &
    slot(size_t i) const
    {
        return slots_[i];
    }

    bool operator==(const WindowRing &) const = default;

  private:
    MetricsWindow &claim(uint64_t now_s);

    std::array<MetricsWindow, kWindowSlots> slots_{};
};

/** Cumulative transform-pipeline effect totals, summed across the
 * cache-miss compiles a service performed (the trace section's per-pass
 * view of what optimization actually bought). */
struct TransformEffects
{
    uint64_t merged_options = 0;
    uint64_t merged_or_trees = 0;
    uint64_t merged_trees = 0;
    uint64_t removed_dead = 0;
    uint64_t redundant_options_removed = 0;
    uint64_t trees_reordered = 0;
    uint64_t usages_hoisted = 0;
    uint64_t resources_shifted = 0;

    /** Accumulate one pipeline run's counters. */
    void add(const PipelineStats &stats);

    bool operator==(const TransformEffects &) const = default;
};

/**
 * Socket-tier counters (mdes::net). Filled at snapshot time by the
 * network server, the same way cache stats are; all zero (and the text
 * tables absent) for an in-process service.
 */
struct NetStats
{
    /** True once a network server contributed to this snapshot. */
    bool enabled = false;

    uint64_t accepted = 0;
    uint64_t closed = 0;
    /** Connections open right now (point-in-time, not monotonic). */
    uint64_t active = 0;
    /** Connections the server closed abruptly (protocol violation or
     * injected peer reset), plus injected accept failures. */
    uint64_t resets = 0;

    uint64_t frames_in = 0;
    uint64_t frames_out = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    /** Connection-fatal framing violations (bad magic/version/length). */
    uint64_t protocol_errors = 0;
    /** Well-framed requests whose payload failed to parse (typed
     * BadRequest response; the connection survives). */
    uint64_t bad_requests = 0;

    /** Responses carrying ErrorCode::Overloaded (admission-queue
     * shedding observed at the socket tier). */
    uint64_t shed = 0;
    /** Responses carrying ErrorCode::DeadlineExceeded (the wire
     * deadline propagated into a cancellation). */
    uint64_t deadline_expired = 0;
    /** Times a connection's reads were paused because its in-flight
     * count or outbound buffer crossed the backpressure high-water
     * mark. */
    uint64_t backpressure_stalls = 0;
    /** In-flight requests cancelled because their connection closed. */
    uint64_t cancelled_on_close = 0;

    /** Stats (STAT frame / {"op":"stats"}) requests served. */
    uint64_t stats_requests = 0;
    /** Stats requests coalesced because an earlier stats response was
     * still draining on the same connection (the reply they got
     * carries the latest request's id and a fresh snapshot). */
    uint64_t stats_coalesced = 0;

    /** Requests answered with ErrorCode::Draining because they arrived
     * after SIGTERM flipped the server to draining (DESIGN.md §15). */
    uint64_t draining_shed = 0;

    bool operator==(const NetStats &) const = default;
};

/** Search totals across exact/portfolio blocks: one request's (its
 * response) or many requests' (ServiceMetrics). */
struct ExactSearchTotals
{
    uint64_t blocks = 0;
    /** Blocks whose delivered length matched the proven lower bound. */
    uint64_t proven_optimal = 0;
    /** Proven blocks the root bound settled with no search node: over
     * every legal schedule, where a completed search proves optimality
     * over canonical schedules only. */
    uint64_t root_proofs = 0;
    /** Blocks whose search hit its node/time budget. */
    uint64_t budget_exhausted = 0;
    uint64_t nodes = 0;
    uint64_t bound_prunes = 0;
    uint64_t dominance_prunes = 0;
    /** Pure eachSubtreeFits() propagation probes spent in searches. */
    uint64_t probes = 0;
    /** Sum over blocks of (delivered length - proven lower bound). */
    uint64_t gap_cycles = 0;
    /** Portfolio win counts by backend. */
    uint64_t wins_list = 0;
    uint64_t wins_backward = 0;
    uint64_t wins_modulo = 0;
    uint64_t wins_exact = 0;

    /** Sum @p other into this (see visitExact()). */
    void merge(const ExactSearchTotals &other);

    bool operator==(const ExactSearchTotals &) const = default;
};

/** Everything the service counts. */
struct ServiceMetrics
{
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t errors[size_t(ErrorCode::kNumCodes)] = {};

    /** Filled from DescriptionCache::stats() at snapshot time. */
    DescriptionCache::Stats cache;

    /** Per-10s delta windows behind the live ("now") view. */
    WindowRing windows;

    StageLatency compile;
    StageLatency workload;
    StageLatency schedule;
    /** The optional verify pass (requests with verify set). */
    StageLatency verify;
    StageLatency total;
    /** Time jobs spent in the admission queue before a worker picked
     * them up (the bounded-queue/shedding tradeoff made visible). */
    StageLatency queue_wait;

    /** Scheduling aggregates summed across completed requests. */
    uint64_t ops_scheduled = 0;
    /** Blocks (or loops, for modulo requests) scheduled. */
    uint64_t blocks_scheduled = 0;
    /** Sum of delivered schedule lengths (SchedStats accumulation). */
    uint64_t total_schedule_length = 0;
    uint64_t attempts = 0;
    uint64_t resource_checks = 0;
    /** Attempts rejected outright by the collision-vector prefilter. */
    uint64_t prefilter_hits = 0;
    /** Attempts that took the checker's slot-addressed fast path. */
    uint64_t probe_fastpath = 0;

    /** Exact/portfolio search totals. */
    ExactSearchTotals exact;

    // --- Robustness section -------------------------------------------

    /**
     * Submissions rejected at admission. Shed requests are requests
     * and they failed with Overloaded, so recordShed() — the single
     * authority for this relationship — bumps `requests`,
     * `errors[Overloaded]`, and this counter together; the invariant
     * `requests_shed == errors[Overloaded]` holds for every snapshot
     * and survives merge() (asserted by shedConsistent() and
     * test_metrics). The stats document's `errors.overloaded` is the
     * authoritative error count; `robustness.requests_shed` mirrors it
     * for dashboards that read only the robustness section.
     */
    uint64_t requests_shed = 0;
    /** Requests served from the degraded (unoptimized) fallback. */
    uint64_t degraded_responses = 0;
    /** Per-injection-site (evaluations, fires) while faultsim was
     * armed; empty in normal operation. Filled at snapshot time. */
    std::map<std::string, std::pair<uint64_t, uint64_t>> fault_sites;

    // --- Trace section (mdes::trace telemetry) ------------------------

    /** What each transform pass removed/moved, across compiles. */
    TransformEffects transform_effects;
    /** Scheduling attempts per operation (probe hooks; populated only
     * for requests processed while tracing was enabled). */
    Histogram attempts_per_op;
    /** Conflict heat: failed RU-map probes per resource instance, keyed
     * "Machine.Resource" so different machines never alias (populated
     * only while tracing is enabled). */
    std::map<std::string, uint64_t> resource_conflicts;

    // --- Net section (socket front end) -------------------------------

    /** Socket-tier counters; zero without a network server. */
    NetStats net;

    void recordOutcome(ErrorCode code);

    /** Failed requests: every error code's count. */
    uint64_t errorTotal() const;

    /** Record @p n admission-shed submissions (see requests_shed). */
    void recordShed(uint64_t n);

    /** The shed/Overloaded relationship recordShed() maintains. */
    bool
    shedConsistent() const
    {
        return requests_shed == errors[size_t(ErrorCode::Overloaded)];
    }

    /** Sum @p other into this (see visitMetrics() for what sums how). */
    void merge(const ServiceMetrics &other);

    /** Fold one request's conflict table in under @p low's names. */
    void recordConflicts(const lmdes::LowMdes &low,
                         const std::vector<uint64_t> &per_resource);

    bool operator==(const ServiceMetrics &) const = default;
};

/**
 * The exact section of visitMetrics(): every ExactSearchTotals field,
 * once. ExactSearchTotals::merge() walks it too, so the service sums a
 * response's totals into its metrics with the list the document uses.
 */
template <class V, class... E>
void
visitExact(V &v, E &...e)
{
    v.count("blocks", e.blocks...);
    v.count("proven_optimal", e.proven_optimal...);
    v.count("root_proofs", e.root_proofs...);
    v.count("budget_exhausted", e.budget_exhausted...);
    v.count("gap_cycles", e.gap_cycles...);
    v.count("nodes", e.nodes...);
    v.count("bound_prunes", e.bound_prunes...);
    v.count("dominance_prunes", e.dominance_prunes...);
    v.count("probes", e.probes...);
    v.open("wins");
    v.count("list", e.wins_list...);
    v.count("backward", e.wins_backward...);
    v.count("modulo", e.wins_modulo...);
    v.count("exact", e.wins_exact...);
    v.close();
}

/**
 * The stats document's schema: every ServiceMetrics field, once, in
 * document order. The document writer and parser, its text tables
 * (stats.cpp) and merge() walk this one list, so a new counter is one
 * line here.
 *
 * @p v gets open(key)/close() around each JSON object and one call per
 * field, passing the matching member of each of @p m (one metrics
 * object to write or to parse into, two to merge):
 *  - count(key, n...): a u64 counter, summed by merge;
 *  - flag(key, b...): a bool, OR-ed by merge;
 *  - series(s...): a StageLatency's fields, inline in the open object;
 *  - histogram(h...), windows(r...), faultSites(f...), conflicts(c...):
 *    the whole content of the open object;
 *  - derived(key, fn, m...): fn(m), written for readers of the document
 *    and never parsed back.
 */
template <class V, class... M>
void
visitMetrics(V &v, M &...m)
{
    using Metrics = const ServiceMetrics &;
    auto section = [&v](const char *key, auto &&body) {
        v.open(key);
        body();
        v.close();
    };
    section("lifetime", [&] {
        v.count("requests", m.requests...);
        v.count("ok", m.ok...);
        v.derived("errors", [](Metrics x) { return x.errorTotal(); }, m...);
        v.derived("shed", [](Metrics x) { return x.requests_shed; }, m...);
        v.series(m.total...);
    });
    section("errors", [&] {
        for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i)
            v.count(errorCodeName(ErrorCode(i)), m.errors[i]...);
    });
    section("cache", [&] {
        v.count("hits", m.cache.hits...);
        v.count("misses", m.cache.misses...);
        v.derived("hit_rate", [](Metrics x) { return x.cache.hitRate(); },
                  m...);
        v.count("compiles", m.cache.compiles...);
        v.count("evictions", m.cache.evictions...);
        v.count("size", m.cache.size...);
        v.count("capacity", m.cache.capacity...);
        section("disk", [&] {
            v.flag("enabled", m.cache.disk_enabled...);
            v.count("hits", m.cache.disk_hits...);
            v.count("misses", m.cache.disk_misses...);
            v.derived("hit_rate",
                      [](Metrics x) { return x.cache.diskHitRate(); },
                      m...);
            v.count("stores", m.cache.disk_stores...);
            v.count("corrupt", m.cache.disk_corrupt...);
            v.count("stale", m.cache.disk_stale...);
            v.count("evictions", m.cache.disk_evictions...);
            v.count("retries", m.cache.disk_retries...);
        });
    });
    section("robustness", [&] {
        v.count("requests_shed", m.requests_shed...);
        v.count("degraded_responses", m.degraded_responses...);
        v.derived("retries", [](Metrics x) { return x.cache.disk_retries; },
                  m...);
        v.count("breaker_trips", m.cache.breaker_trips...);
        v.count("breaker_fast_fails", m.cache.breaker_fast_fails...);
        v.count("degraded_compiles", m.cache.degraded_compiles...);
        section("fault_sites", [&] { v.faultSites(m.fault_sites...); });
    });
    section("latency", [&] {
        section("queue", [&] { v.series(m.queue_wait...); });
        section("compile", [&] { v.series(m.compile...); });
        section("workload", [&] { v.series(m.workload...); });
        section("schedule", [&] { v.series(m.schedule...); });
        section("verify", [&] { v.series(m.verify...); });
    });
    section("windows", [&] { v.windows(m.windows...); });
    section("scheduling", [&] {
        v.count("ops_scheduled", m.ops_scheduled...);
        v.count("blocks_scheduled", m.blocks_scheduled...);
        v.count("total_schedule_length", m.total_schedule_length...);
        v.count("attempts", m.attempts...);
        v.count("resource_checks", m.resource_checks...);
        v.derived("checks_per_attempt",
                  [](Metrics x) {
                      return x.attempts ? double(x.resource_checks) /
                                              double(x.attempts)
                                        : 0.0;
                  },
                  m...);
        v.count("prefilter_hits", m.prefilter_hits...);
        v.count("probe_fastpath", m.probe_fastpath...);
    });
    section("exact", [&] { visitExact(v, m.exact...); });
    section("trace", [&] {
        section("transform_effects", [&] {
            v.count("merged_options", m.transform_effects.merged_options...);
            v.count("merged_or_trees",
                    m.transform_effects.merged_or_trees...);
            v.count("merged_trees", m.transform_effects.merged_trees...);
            v.count("removed_dead", m.transform_effects.removed_dead...);
            v.count("redundant_options_removed",
                    m.transform_effects.redundant_options_removed...);
            v.count("trees_reordered",
                    m.transform_effects.trees_reordered...);
            v.count("usages_hoisted", m.transform_effects.usages_hoisted...);
            v.count("resources_shifted",
                    m.transform_effects.resources_shifted...);
        });
        section("attempts_per_op",
                [&] { v.histogram(m.attempts_per_op...); });
        section("resource_conflicts",
                [&] { v.conflicts(m.resource_conflicts...); });
    });
    section("net", [&] {
        v.flag("enabled", m.net.enabled...);
        v.count("accepted", m.net.accepted...);
        v.count("closed", m.net.closed...);
        v.count("active", m.net.active...);
        v.count("resets", m.net.resets...);
        v.count("frames_in", m.net.frames_in...);
        v.count("frames_out", m.net.frames_out...);
        v.count("bytes_in", m.net.bytes_in...);
        v.count("bytes_out", m.net.bytes_out...);
        v.count("protocol_errors", m.net.protocol_errors...);
        v.count("bad_requests", m.net.bad_requests...);
        v.count("shed", m.net.shed...);
        v.count("deadline_expired", m.net.deadline_expired...);
        v.count("backpressure_stalls", m.net.backpressure_stalls...);
        v.count("cancelled_on_close", m.net.cancelled_on_close...);
        v.count("stats_requests", m.net.stats_requests...);
        v.count("stats_coalesced", m.net.stats_coalesced...);
        v.count("draining_shed", m.net.draining_shed...);
    });
}

} // namespace mdes::service

#endif // MDES_SERVICE_METRICS_H

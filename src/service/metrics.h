#ifndef MDES_SERVICE_METRICS_H
#define MDES_SERVICE_METRICS_H

/**
 * @file
 * Service observability: request counters, per-stage latency
 * histograms, and scheduling aggregates.
 *
 * Each worker thread owns one ServiceMetrics and records into it without
 * contention; a snapshot merges every worker's copy with
 * Histogram::merge() (plus the cache's own counters) into one report,
 * dumpable as a text table or as JSON.
 *
 * Latencies are recorded in microseconds but bucketed by power of two
 * (value = bit_width(us)), so a histogram stays a few dozen slots even
 * for second-long requests: bucket b covers [2^(b-1), 2^b) us.
 */

#include <array>
#include <cstdint>
#include <map>
#include <string>
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

    /** Slot-wise merge keyed by epoch: equal epochs sum (histograms
     * via Histogram::merge), a newer epoch replaces, an older one is
     * stale and ignored. */
    void merge(const WindowRing &other);

    /** Sum of the windows covering the last @p horizon_s seconds
     * ending at @p now_s (epoch granularity; horizon capped at the
     * ring length). */
    WindowView over(uint64_t now_s, uint64_t horizon_s) const;

    /** True when no window holds any data. */
    bool empty() const;

    /** Slot access for serialization (stats protocol) and tests. */
    const MetricsWindow &
    slot(size_t i) const
    {
        return slots_[i];
    }
    MetricsWindow &
    slot(size_t i)
    {
        return slots_[i];
    }

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
    void merge(const TransformEffects &other);

    uint64_t
    total() const
    {
        return merged_options + merged_or_trees + merged_trees +
               removed_dead + redundant_options_removed + trees_reordered +
               usages_hoisted + resources_shifted;
    }
};

/**
 * Socket-tier counters (mdes::net). Filled at snapshot time by the
 * network server, the same way cache stats are; all zero (and the
 * table/JSON sections absent) for an in-process service.
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

    void merge(const NetStats &other);
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

    // --- Exact/portfolio search section -------------------------------
    // Populated only by exact/portfolio requests; the table and JSON
    // sections stay silent while exact_blocks is zero.
    uint64_t exact_blocks = 0;
    /** Blocks whose delivered length matched the proven lower bound. */
    uint64_t exact_proven_optimal = 0;
    /** Blocks whose search hit its node/time budget. */
    uint64_t exact_budget_exhausted = 0;
    uint64_t exact_nodes = 0;
    uint64_t exact_bound_prunes = 0;
    uint64_t exact_dominance_prunes = 0;
    /** Pure wouldFit() propagation probes spent in searches. */
    uint64_t exact_probes = 0;
    /** Sum over blocks of (delivered length - proven lower bound). */
    uint64_t exact_gap_cycles = 0;
    /** Portfolio win counts by backend. */
    uint64_t portfolio_wins_list = 0;
    uint64_t portfolio_wins_backward = 0;
    uint64_t portfolio_wins_modulo = 0;
    uint64_t portfolio_wins_exact = 0;

    // --- Robustness section -------------------------------------------

    /**
     * Submissions rejected at admission. Shed requests are requests
     * and they failed with Overloaded, so recordShed() — the single
     * authority for this relationship — bumps `requests`,
     * `errors[Overloaded]`, and this counter together; the invariant
     * `requests_shed == errors[Overloaded]` holds for every snapshot
     * and survives merge() (asserted by shedConsistent() and
     * test_metrics). The JSON dump's `errors.overloaded` is the
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

    /** Socket-tier counters; zero/absent without a network server. */
    NetStats net;

    void recordOutcome(ErrorCode code);

    /** Record @p n admission-shed submissions (see requests_shed). */
    void recordShed(uint64_t n);

    /** The shed/Overloaded relationship recordShed() maintains. */
    bool
    shedConsistent() const
    {
        return requests_shed == errors[size_t(ErrorCode::Overloaded)];
    }

    void merge(const ServiceMetrics &other);

    /** Fold one request's conflict table in under @p low's names. */
    void recordConflicts(const lmdes::LowMdes &low,
                         const std::vector<uint64_t> &per_resource);

    /** Human-readable dump (text table). */
    std::string toTable() const;

    /** Machine-readable dump (single JSON object). */
    std::string toJson() const;
};

} // namespace mdes::service

#endif // MDES_SERVICE_METRICS_H

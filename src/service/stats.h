#ifndef MDES_SERVICE_STATS_H
#define MDES_SERVICE_STATS_H

/**
 * @file
 * The stats document: the one serialization of ServiceMetrics. `mdesc
 * batch --json`, the `mdesc serve --json` exit dump, a server's STAT
 * frame and {"op":"stats"} answer, a shard's poll reply and the fleet
 * STAT all write it; `mdesc stat`/`top`, the fleet merge and the
 * crash-chaos harness parse it; renderStats() is its one text form.
 *
 * Every histogram travels as its raw log2 bucket array, so the fleet
 * merge parses each shard's document, runs ServiceMetrics::merge (which
 * merges histograms with Histogram::merge) and computes percentiles
 * over the merged distribution - never averaged from per-shard
 * percentiles, which would be wrong.
 *
 * Schema (stable; validated by scripts/check_stats_schema.py). The
 * metrics sections come from visitMetrics() (metrics.h) and are written
 * in full every time, so parsing a document gives back the metrics that
 * wrote it, field for field:
 *
 *   {"now_s":..,"shards":N,"stale_shards":N,
 *    "lifetime":{"requests","ok","errors","shed",<series>},
 *    "errors":{"<code>":..},
 *    "cache":{"hits",..,"disk":{"enabled",..}},
 *    "robustness":{..,"fault_sites":{"<site>":{"evaluations","fires"}}},
 *    "latency":{"queue"|"compile"|"workload"|"schedule"|"verify":<series>},
 *    "windows":{"slots":[{"epoch","requests","ok","errors","shed",
 *                         <series>},..],"w10":<view>,"w60":<view>},
 *    "scheduling":{..},"exact":{..,"wins":{..}},
 *    "trace":{"transform_effects":{..},"attempts_per_op":{..},
 *             "resource_conflicts":{..}},
 *    "net":{"enabled",..},
 *    "per_shard":[{"shard","stale","requests","w60_requests",
 *                  "w60_rate_per_s","w60_p99_us","pid","restarts",
 *                  "state"},..],
 *    "supervision":{"health","restarts","crashes","wedged_shards",
 *                   "quarantined"}}
 *
 * A <series> is {"count","total_us","max_us","mean_us","p50_us",
 * "p95_us","p99_us","buckets":[at most kLog2Buckets counts]}; "lifetime"
 * holds the end-to-end series inline. A <view> is {"horizon_s",
 * "requests","ok","errors","shed","rate_per_s","p50_us","p95_us",
 * "p99_us","mean_us","max_us"}. Only a fleet document (the supervisor's
 * answer, DESIGN.md §15) has "per_shard" and "supervision".
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/metrics.h"

namespace mdes::service {

/** A shard answers a stats poll with one datagram, which the supervisor
 * reads into a buffer this size; a longer reply is dropped as truncated
 * and that shard reads stale. */
inline constexpr size_t kStatsDatagramMax = size_t(1) << 16;

/**
 * Supervisor-side state for one shard (DESIGN.md §15). The shards
 * themselves know nothing about restarts; only the supervisor can
 * account them.
 */
struct ShardSupervision
{
    /** Kernel pid, -1 while the shard is down (backoff/quarantine). */
    int64_t pid = -1;
    /** Respawns performed for this slot. */
    uint64_t restarts = 0;
    /** Unexpected exits (crash or kill) observed for this slot. */
    uint64_t crashes = 0;
    /** Watchdog SIGKILLs (heartbeat deadline missed) for this slot. */
    uint64_t wedges = 0;
    /** "live" | "backoff" | "quarantined" | "exited". */
    std::string state = "live";
};

/** Fleet-level supervision summary. */
struct SupervisionInfo
{
    /** "ready" | "draining" | "degraded". */
    std::string health = "ready";
    uint64_t restarts = 0;
    uint64_t crashes = 0;
    /** Watchdog kills: shards that stopped heartbeating and were
     * SIGKILLed — accounted distinctly from crashes. */
    uint64_t wedged_shards = 0;
    /** Shards currently quarantined after rapid crash loops. */
    uint64_t quarantined = 0;
};

/** One fleet row: a shard's own totals and the supervisor's view. */
struct ShardRow
{
    uint64_t shard = 0;
    /** The shard's answer missed the poll or did not parse. */
    bool stale = false;
    uint64_t requests = 0;
    uint64_t w60_requests = 0;
    double w60_rate_per_s = 0.0;
    uint64_t w60_p99_us = 0;
    int64_t pid = -1;
    uint64_t restarts = 0;
    /** "live" | "backoff" | "quarantined" | "exited". */
    std::string state = "live";
};

/** In-memory form of one stats document. */
struct StatsDocument
{
    /** Window clock (windowNowS()) the w10/w60 views are taken at. */
    uint64_t now_s = 0;
    /** Processes contributing to this document (1 = single server). */
    uint64_t shards = 1;
    /** Shards that failed to answer the fleet poll in time; their
     * numbers are missing from this document. */
    uint64_t stale_shards = 0;
    ServiceMetrics metrics{};
    /** Fleet documents only: one row per shard slot. */
    std::vector<ShardRow> per_shard{};
    /** Fleet documents only (written when per_shard is not empty). */
    SupervisionInfo supervision{};
};

/** Serialize @p doc as one JSON object. */
std::string statsToJson(const StatsDocument &doc);

/** Parse a stats document. Throws MdesError when a section or field is
 * missing or mistyped, a count is not an integer in [0, 2^64), or a
 * series has more than kLog2Buckets buckets. */
StatsDocument parseStats(std::string_view json);

/**
 * The fleet document at @p now_s: each of @p shard_jsons parsed and
 * merged with ServiceMetrics::merge, then one row per shard and the
 * supervision block. An empty answer (the shard missed the poll) or
 * one that does not parse leaves that shard stale and its numbers
 * missing - a partial fleet view beats a blocked one. @p shard_sup[i]
 * fills shard i's pid/restarts/state.
 */
std::string
mergeShardStats(const std::vector<std::string> &shard_jsons,
                uint64_t now_s, const SupervisionInfo &sup,
                const std::vector<ShardSupervision> &shard_sup);

/** The text form of @p doc (`mdesc batch`, the serve exit dump, `mdesc
 * stat` and `mdesc top`): one visitMetrics() walk renders the metrics'
 * tables, between a fleet document's supervision and per-shard rows.
 * Rows and tables with nothing to show are left out. */
std::string renderStats(const StatsDocument &doc);

} // namespace mdes::service

#endif // MDES_SERVICE_STATS_H

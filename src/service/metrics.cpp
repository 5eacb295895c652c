#include "service/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "support/json.h"
#include "support/text_table.h"

namespace mdes::service {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::UnknownMachine: return "unknown-machine";
    case ErrorCode::CompileFailed: return "compile-failed";
    case ErrorCode::BadWorkload: return "bad-workload";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::ScheduleFailed: return "schedule-failed";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::CircuitOpen: return "circuit-open";
    case ErrorCode::Degraded: return "degraded";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::kNumCodes: break;
    }
    return "?";
}

void
StageLatency::record(uint64_t us)
{
    log2_us.add(std::bit_width(us));
    ++count;
    total_us += us;
    if (us > max_us)
        max_us = us;
}

void
StageLatency::merge(const StageLatency &other)
{
    log2_us.merge(other.log2_us);
    count += other.count;
    total_us += other.total_us;
    if (other.max_us > max_us)
        max_us = other.max_us;
}

uint64_t
StageLatency::approxPercentileUs(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Nearest-rank of the q-th sample, 1-based; walk buckets until
    // reached. Ceiling keeps the estimate conservative: p99 of 10
    // samples is the 10th, not the 9th.
    uint64_t rank = uint64_t(std::ceil(q * double(count)));
    if (rank < 1)
        rank = 1;
    uint64_t seen = 0;
    for (uint64_t b = 0; b <= log2_us.maxValue(); ++b) {
        const uint64_t here = log2_us.countAt(b);
        seen += here;
        if (seen < rank)
            continue;
        if (b == 0)
            return 0; // the zero-microsecond bucket
        const uint64_t lo = b == 1 ? 1 : (1ull << (b - 1));
        const uint64_t hi = b >= 64 ? UINT64_MAX : (1ull << b) - 1;
        // Interpolate within the bucket: its `here` samples are
        // assumed evenly spread over [lo, hi], and the rank-th sits
        // pos/here of the way up. The old upper-edge answer overstated
        // by the full bucket width (2x at the coarse tail buckets).
        const uint64_t pos = rank - (seen - here);
        uint64_t est = lo;
        if (hi > lo)
            est += uint64_t(double(hi - lo) *
                            (double(pos) / double(here)));
        return est < max_us ? est : max_us;
    }
    return max_us;
}

uint64_t
windowNowS()
{
    // steady_clock is CLOCK_MONOTONIC on Linux: one machine-wide
    // origin, so epochs agree across forked shard processes.
    return uint64_t(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

MetricsWindow &
WindowRing::claim(uint64_t now_s)
{
    const uint64_t epoch = now_s / kWindowSeconds;
    MetricsWindow &slot = slots_[epoch % kWindowSlots];
    if (slot.epoch != epoch) {
        // Rotation: evict the slot's previous (ring-length-old)
        // tenant. Its deltas are already past every horizon.
        slot = MetricsWindow{};
        slot.epoch = epoch;
    }
    return slot;
}

void
WindowRing::record(uint64_t now_s, ErrorCode code, uint64_t total_us)
{
    MetricsWindow &slot = claim(now_s);
    ++slot.requests;
    if (code == ErrorCode::Ok)
        ++slot.ok;
    else
        ++slot.errors;
    slot.total.record(total_us);
}

void
WindowRing::recordShed(uint64_t now_s, uint64_t n)
{
    MetricsWindow &slot = claim(now_s);
    slot.requests += n;
    slot.errors += n;
    slot.shed += n;
}

void
WindowRing::merge(const WindowRing &other)
{
    for (size_t i = 0; i < kWindowSlots; ++i) {
        const MetricsWindow &theirs = other.slots_[i];
        if (theirs.epoch == 0)
            continue;
        MetricsWindow &mine = slots_[i];
        if (mine.epoch == theirs.epoch) {
            mine.requests += theirs.requests;
            mine.ok += theirs.ok;
            mine.errors += theirs.errors;
            mine.shed += theirs.shed;
            mine.total.merge(theirs.total);
        } else if (theirs.epoch > mine.epoch) {
            mine = theirs;
        }
        // theirs.epoch < mine.epoch: stale by a full ring; drop.
    }
}

WindowView
WindowRing::over(uint64_t now_s, uint64_t horizon_s) const
{
    WindowView view;
    view.horizon_s = horizon_s;
    const uint64_t cur = now_s / kWindowSeconds;
    uint64_t span = horizon_s / kWindowSeconds;
    if (span == 0)
        span = 1;
    // Leave one slot of slack so a claim racing this snapshot can
    // only touch a slot already outside the horizon.
    if (span > kWindowSlots - 1)
        span = kWindowSlots - 1;
    const uint64_t min_epoch = cur >= span - 1 ? cur - (span - 1) : 0;
    for (const MetricsWindow &slot : slots_) {
        if (slot.epoch == 0 || slot.epoch < min_epoch ||
            slot.epoch > cur)
            continue;
        view.requests += slot.requests;
        view.ok += slot.ok;
        view.errors += slot.errors;
        view.shed += slot.shed;
        view.total.merge(slot.total);
    }
    return view;
}

bool
WindowRing::empty() const
{
    for (const MetricsWindow &slot : slots_)
        if (slot.epoch != 0 && slot.requests != 0)
            return false;
    return true;
}

void
TransformEffects::add(const PipelineStats &stats)
{
    merged_options += stats.cse.merged_options;
    merged_or_trees += stats.cse.merged_or_trees;
    merged_trees += stats.cse.merged_trees;
    removed_dead += stats.cse.removed_dead;
    redundant_options_removed += stats.redundant_options_removed;
    trees_reordered += stats.trees_reordered;
    usages_hoisted += stats.usages_hoisted;
    resources_shifted += stats.resources_shifted;
}

void
TransformEffects::merge(const TransformEffects &other)
{
    merged_options += other.merged_options;
    merged_or_trees += other.merged_or_trees;
    merged_trees += other.merged_trees;
    removed_dead += other.removed_dead;
    redundant_options_removed += other.redundant_options_removed;
    trees_reordered += other.trees_reordered;
    usages_hoisted += other.usages_hoisted;
    resources_shifted += other.resources_shifted;
}

void
NetStats::merge(const NetStats &other)
{
    enabled = enabled || other.enabled;
    accepted += other.accepted;
    closed += other.closed;
    active += other.active;
    resets += other.resets;
    frames_in += other.frames_in;
    frames_out += other.frames_out;
    bytes_in += other.bytes_in;
    bytes_out += other.bytes_out;
    protocol_errors += other.protocol_errors;
    bad_requests += other.bad_requests;
    shed += other.shed;
    deadline_expired += other.deadline_expired;
    backpressure_stalls += other.backpressure_stalls;
    cancelled_on_close += other.cancelled_on_close;
    stats_requests += other.stats_requests;
    stats_coalesced += other.stats_coalesced;
    draining_shed += other.draining_shed;
}

void
ServiceMetrics::recordOutcome(ErrorCode code)
{
    ++requests;
    if (code == ErrorCode::Ok)
        ++ok;
    else
        ++errors[size_t(code)];
}

void
ServiceMetrics::recordShed(uint64_t n)
{
    // The one place the two shed views move, so they cannot drift:
    // a shed submission is a request that failed with Overloaded.
    requests += n;
    errors[size_t(ErrorCode::Overloaded)] += n;
    requests_shed += n;
}

void
ServiceMetrics::merge(const ServiceMetrics &other)
{
    requests += other.requests;
    ok += other.ok;
    for (size_t i = 0; i < size_t(ErrorCode::kNumCodes); ++i)
        errors[i] += other.errors[i];
    compile.merge(other.compile);
    workload.merge(other.workload);
    schedule.merge(other.schedule);
    verify.merge(other.verify);
    total.merge(other.total);
    queue_wait.merge(other.queue_wait);
    windows.merge(other.windows);
    ops_scheduled += other.ops_scheduled;
    blocks_scheduled += other.blocks_scheduled;
    total_schedule_length += other.total_schedule_length;
    attempts += other.attempts;
    resource_checks += other.resource_checks;
    prefilter_hits += other.prefilter_hits;
    probe_fastpath += other.probe_fastpath;
    exact_blocks += other.exact_blocks;
    exact_proven_optimal += other.exact_proven_optimal;
    exact_budget_exhausted += other.exact_budget_exhausted;
    exact_nodes += other.exact_nodes;
    exact_bound_prunes += other.exact_bound_prunes;
    exact_dominance_prunes += other.exact_dominance_prunes;
    exact_probes += other.exact_probes;
    exact_gap_cycles += other.exact_gap_cycles;
    portfolio_wins_list += other.portfolio_wins_list;
    portfolio_wins_backward += other.portfolio_wins_backward;
    portfolio_wins_modulo += other.portfolio_wins_modulo;
    portfolio_wins_exact += other.portfolio_wins_exact;
    requests_shed += other.requests_shed;
    degraded_responses += other.degraded_responses;
    for (const auto &[name, counts] : other.fault_sites) {
        auto &mine = fault_sites[name];
        mine.first += counts.first;
        mine.second += counts.second;
    }
    transform_effects.merge(other.transform_effects);
    attempts_per_op.merge(other.attempts_per_op);
    for (const auto &[name, n] : other.resource_conflicts)
        resource_conflicts[name] += n;
    net.merge(other.net);
}

void
ServiceMetrics::recordConflicts(const lmdes::LowMdes &low,
                                const std::vector<uint64_t> &per_resource)
{
    for (size_t r = 0; r < per_resource.size(); ++r) {
        if (per_resource[r] == 0)
            continue;
        resource_conflicts[low.machineName() + "." +
                           low.resourceName(uint32_t(r))] +=
            per_resource[r];
    }
}

namespace {

/** "[2^(b-1), 2^b) us" rendered compactly for the latency table. */
std::string
bucketLabel(uint64_t bucket)
{
    if (bucket == 0)
        return "0us";
    uint64_t lo = bucket == 1 ? 1 : (1ull << (bucket - 1));
    uint64_t hi = (1ull << bucket) - 1;
    return "<=" + std::to_string(hi) + "us (" + std::to_string(lo) + "-" +
           std::to_string(hi) + ")";
}

void
addLatencyRow(TextTable &table, const char *name, const StageLatency &s)
{
    table.addRow({name, std::to_string(s.count),
                  TextTable::num(s.meanUs(), 1),
                  std::to_string(s.max_us),
                  s.count ? bucketLabel(s.log2_us.maxValue()) : "-"});
}

/** Conflict entries sorted most-contended first (the heat ranking). */
std::vector<std::pair<std::string, uint64_t>>
rankedConflicts(const std::map<std::string, uint64_t> &conflicts)
{
    std::vector<std::pair<std::string, uint64_t>> ranked(conflicts.begin(),
                                                         conflicts.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return ranked;
}

void
addWindowRow(TextTable &table, const char *name, const WindowView &v)
{
    table.addRow({name, std::to_string(v.requests),
                  TextTable::num(v.ratePerS(), 1),
                  std::to_string(v.errors), std::to_string(v.shed),
                  std::to_string(v.total.approxPercentileUs(0.50)),
                  std::to_string(v.total.approxPercentileUs(0.95)),
                  std::to_string(v.total.approxPercentileUs(0.99))});
}

void
jsonWindowView(JsonWriter &w, const char *name, const WindowView &v)
{
    w.key(name).beginObject();
    w.key("horizon_s").value(v.horizon_s);
    w.key("requests").value(v.requests);
    w.key("ok").value(v.ok);
    w.key("errors").value(v.errors);
    w.key("shed").value(v.shed);
    w.key("rate_per_s").value(v.ratePerS());
    w.key("p50_us").value(v.total.approxPercentileUs(0.50));
    w.key("p95_us").value(v.total.approxPercentileUs(0.95));
    w.key("p99_us").value(v.total.approxPercentileUs(0.99));
    w.key("mean_us").value(v.total.meanUs());
    w.key("max_us").value(v.total.max_us);
    w.endObject();
}

void
jsonLatency(JsonWriter &w, const char *name, const StageLatency &s)
{
    w.key(name).beginObject();
    w.key("count").value(s.count);
    w.key("total_us").value(s.total_us);
    w.key("mean_us").value(s.meanUs());
    w.key("max_us").value(s.max_us);
    w.key("log2_us_buckets").beginArray();
    for (uint64_t b = 0; b <= s.log2_us.maxValue(); ++b)
        w.value(s.log2_us.countAt(b));
    w.endArray();
    w.endObject();
}

} // namespace

std::string
ServiceMetrics::toTable() const
{
    std::string out;

    TextTable reqs;
    reqs.setHeader({"Requests", "OK", "Errors", "Cache Hits",
                    "Cache Misses", "Hit Rate", "Compiles", "Evictions"});
    uint64_t total_errors = 0;
    for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i)
        total_errors += errors[i];
    reqs.addRow({std::to_string(requests), std::to_string(ok),
                 std::to_string(total_errors),
                 std::to_string(cache.hits), std::to_string(cache.misses),
                 TextTable::percent(cache.hitRate()),
                 std::to_string(cache.compiles),
                 std::to_string(cache.evictions)});
    out += reqs.toString();

    if (cache.disk_enabled) {
        TextTable disk;
        disk.setHeader({"Store Hits", "Mapped", "Store Misses",
                        "Store Hit Rate", "Publishes", "Corrupt", "Stale",
                        "Store Evictions"});
        disk.addRow({std::to_string(cache.disk_hits),
                     std::to_string(cache.disk_mapped),
                     std::to_string(cache.disk_misses),
                     TextTable::percent(cache.diskHitRate()),
                     std::to_string(cache.disk_stores),
                     std::to_string(cache.disk_corrupt),
                     std::to_string(cache.disk_stale),
                     std::to_string(cache.disk_evictions)});
        out += disk.toString();
    }

    if (total_errors) {
        TextTable errs;
        errs.setHeader({"Error", "Count"});
        for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i) {
            if (errors[i])
                errs.addRow({errorCodeName(ErrorCode(i)),
                             std::to_string(errors[i])});
        }
        out += errs.toString();
    }

    // Robustness counters surface only once something interesting
    // happened, so healthy runs keep the short report they had.
    uint64_t retries = cache.disk_retries;
    if (requests_shed || degraded_responses || retries ||
        cache.breaker_trips || cache.breaker_fast_fails ||
        cache.degraded_compiles) {
        TextTable robust;
        robust.setHeader({"Shed", "Degraded", "Store Retries",
                          "Breaker Trips", "Breaker Fast-Fails"});
        robust.addRow({std::to_string(requests_shed),
                       std::to_string(degraded_responses),
                       std::to_string(retries),
                       std::to_string(cache.breaker_trips),
                       std::to_string(cache.breaker_fast_fails)});
        out += robust.toString();
    }
    if (!fault_sites.empty()) {
        TextTable faults;
        faults.setHeader({"Fault Site", "Evaluations", "Fires"});
        for (const auto &[name, counts] : fault_sites)
            faults.addRow({name, std::to_string(counts.first),
                           std::to_string(counts.second)});
        out += faults.toString();
    }

    TextTable lat;
    lat.setHeader({"Stage", "Count", "Mean us", "Max us", "Peak bucket"});
    addLatencyRow(lat, "queue", queue_wait);
    addLatencyRow(lat, "compile", compile);
    addLatencyRow(lat, "workload", workload);
    addLatencyRow(lat, "schedule", schedule);
    addLatencyRow(lat, "verify", verify);
    addLatencyRow(lat, "total", total);
    out += lat.toString();

    if (!windows.empty()) {
        const uint64_t now_s = windowNowS();
        TextTable win;
        win.setHeader({"Window", "Requests", "Rate/s", "Errors", "Shed",
                       "p50 us", "p95 us", "p99 us"});
        addWindowRow(win, "last 10s", windows.over(now_s, 10));
        addWindowRow(win, "last 60s", windows.over(now_s, 60));
        out += win.toString();
    }

    TextTable sched;
    sched.setHeader({"Ops Scheduled", "Blocks", "Total Length",
                     "Attempts", "Resource Checks", "Checks/Attempt",
                     "Prefilter Hits", "Fast Path"});
    sched.addRow({std::to_string(ops_scheduled),
                  std::to_string(blocks_scheduled),
                  std::to_string(total_schedule_length),
                  std::to_string(attempts),
                  std::to_string(resource_checks),
                  TextTable::num(attempts ? double(resource_checks) /
                                                double(attempts)
                                          : 0.0,
                                 2),
                  std::to_string(prefilter_hits),
                  std::to_string(probe_fastpath)});
    out += sched.toString();

    // --- Exact/portfolio search section (exact requests only) ---------
    if (exact_blocks != 0) {
        TextTable ex;
        ex.setHeader({"Exact Blocks", "Proven Optimal", "Budget Out",
                      "Gap Cycles", "Nodes", "Bound Prunes",
                      "Dominance Prunes", "Probes"});
        ex.addRow({std::to_string(exact_blocks),
                   std::to_string(exact_proven_optimal),
                   std::to_string(exact_budget_exhausted),
                   std::to_string(exact_gap_cycles),
                   std::to_string(exact_nodes),
                   std::to_string(exact_bound_prunes),
                   std::to_string(exact_dominance_prunes),
                   std::to_string(exact_probes)});
        out += ex.toString();
        uint64_t wins = portfolio_wins_list + portfolio_wins_backward +
                        portfolio_wins_modulo + portfolio_wins_exact;
        if (wins != 0) {
            TextTable pw;
            pw.setHeader({"Portfolio Winner", "Blocks"});
            auto row = [&](const char *name, uint64_t v) {
                if (v)
                    pw.addRow({name, std::to_string(v)});
            };
            row("list", portfolio_wins_list);
            row("backward", portfolio_wins_backward);
            row("modulo", portfolio_wins_modulo);
            row("exact", portfolio_wins_exact);
            out += pw.toString();
        }
    }

    // --- Trace section ------------------------------------------------
    if (transform_effects.total() != 0) {
        TextTable fx;
        fx.setHeader({"Transform Effect", "Total"});
        auto row = [&](const char *name, uint64_t v) {
            if (v)
                fx.addRow({name, std::to_string(v)});
        };
        row("options merged", transform_effects.merged_options);
        row("OR-trees merged", transform_effects.merged_or_trees);
        row("AND/OR-trees merged", transform_effects.merged_trees);
        row("dead entities removed", transform_effects.removed_dead);
        row("redundant options removed",
            transform_effects.redundant_options_removed);
        row("trees reordered", transform_effects.trees_reordered);
        row("usages hoisted", transform_effects.usages_hoisted);
        row("resources shifted", transform_effects.resources_shifted);
        out += fx.toString();
    }
    if (!resource_conflicts.empty()) {
        TextTable heat;
        heat.setHeader({"Contended Resource", "Conflicts"});
        auto ranked = rankedConflicts(resource_conflicts);
        constexpr size_t kTopN = 8;
        for (size_t i = 0; i < ranked.size() && i < kTopN; ++i)
            heat.addRow({ranked[i].first,
                         std::to_string(ranked[i].second)});
        out += heat.toString();
    }
    if (attempts_per_op.total() != 0) {
        TextTable apo;
        apo.setHeader({"Traced Ops", "Mean Attempts/Op",
                       "Max Attempts/Op"});
        apo.addRow({std::to_string(attempts_per_op.total()),
                    TextTable::num(attempts_per_op.mean(), 2),
                    std::to_string(attempts_per_op.maxValue())});
        out += apo.toString();
    }

    // --- Net section (only when a socket server contributed) ----------
    if (net.enabled) {
        TextTable conns;
        conns.setHeader({"Conns Accepted", "Closed", "Active", "Resets",
                         "Backpressure Stalls"});
        conns.addRow({std::to_string(net.accepted),
                      std::to_string(net.closed),
                      std::to_string(net.active),
                      std::to_string(net.resets),
                      std::to_string(net.backpressure_stalls)});
        out += conns.toString();

        TextTable frames;
        frames.setHeader({"Frames In", "Frames Out", "Bytes In",
                          "Bytes Out", "Proto Errors", "Bad Requests"});
        frames.addRow({std::to_string(net.frames_in),
                       std::to_string(net.frames_out),
                       std::to_string(net.bytes_in),
                       std::to_string(net.bytes_out),
                       std::to_string(net.protocol_errors),
                       std::to_string(net.bad_requests)});
        out += frames.toString();

        if (net.shed || net.deadline_expired || net.cancelled_on_close ||
            net.stats_requests || net.draining_shed) {
            TextTable pressure;
            pressure.setHeader({"Net Shed", "Deadline Expired",
                                "Cancelled On Close", "Stats Reqs",
                                "Stats Coalesced", "Draining Shed"});
            pressure.addRow({std::to_string(net.shed),
                             std::to_string(net.deadline_expired),
                             std::to_string(net.cancelled_on_close),
                             std::to_string(net.stats_requests),
                             std::to_string(net.stats_coalesced),
                             std::to_string(net.draining_shed)});
            out += pressure.toString();
        }
    }
    return out;
}

std::string
ServiceMetrics::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("requests").value(requests);
    w.key("ok").value(ok);
    w.key("errors").beginObject();
    for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i) {
        if (errors[i])
            w.key(errorCodeName(ErrorCode(i))).value(errors[i]);
    }
    w.endObject();
    w.key("cache").beginObject();
    w.key("hits").value(cache.hits);
    w.key("misses").value(cache.misses);
    w.key("hit_rate").value(cache.hitRate());
    w.key("compiles").value(cache.compiles);
    w.key("evictions").value(cache.evictions);
    w.key("size").value(uint64_t(cache.size));
    w.key("capacity").value(uint64_t(cache.capacity));
    if (cache.disk_enabled) {
        w.key("disk").beginObject();
        w.key("hits").value(cache.disk_hits);
        w.key("mapped").value(cache.disk_mapped);
        w.key("misses").value(cache.disk_misses);
        w.key("hit_rate").value(cache.diskHitRate());
        w.key("stores").value(cache.disk_stores);
        w.key("corrupt").value(cache.disk_corrupt);
        w.key("stale").value(cache.disk_stale);
        w.key("evictions").value(cache.disk_evictions);
        w.key("retries").value(cache.disk_retries);
        w.endObject();
    }
    w.endObject();
    w.key("robustness").beginObject();
    w.key("requests_shed").value(requests_shed);
    w.key("degraded_responses").value(degraded_responses);
    w.key("retries").value(cache.disk_retries);
    w.key("breaker_trips").value(cache.breaker_trips);
    w.key("breaker_fast_fails").value(cache.breaker_fast_fails);
    w.key("degraded_compiles").value(cache.degraded_compiles);
    if (!fault_sites.empty()) {
        w.key("fault_sites").beginObject();
        for (const auto &[name, counts] : fault_sites) {
            w.key(name).beginObject();
            w.key("evaluations").value(counts.first);
            w.key("fires").value(counts.second);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    w.key("latency").beginObject();
    jsonLatency(w, "queue", queue_wait);
    jsonLatency(w, "compile", compile);
    jsonLatency(w, "workload", workload);
    jsonLatency(w, "schedule", schedule);
    jsonLatency(w, "verify", verify);
    jsonLatency(w, "total", total);
    w.endObject();
    {
        const uint64_t now_s = windowNowS();
        w.key("windows").beginObject();
        w.key("now_s").value(now_s);
        jsonWindowView(w, "w10", windows.over(now_s, 10));
        jsonWindowView(w, "w60", windows.over(now_s, 60));
        w.endObject();
    }
    w.key("scheduling").beginObject();
    w.key("ops_scheduled").value(ops_scheduled);
    w.key("blocks_scheduled").value(blocks_scheduled);
    w.key("total_schedule_length").value(total_schedule_length);
    w.key("attempts").value(attempts);
    w.key("resource_checks").value(resource_checks);
    w.key("prefilter_hits").value(prefilter_hits);
    w.key("probe_fastpath").value(probe_fastpath);
    w.endObject();
    if (exact_blocks != 0) {
        w.key("exact").beginObject();
        w.key("blocks").value(exact_blocks);
        w.key("proven_optimal").value(exact_proven_optimal);
        w.key("budget_exhausted").value(exact_budget_exhausted);
        w.key("gap_cycles").value(exact_gap_cycles);
        w.key("nodes").value(exact_nodes);
        w.key("bound_prunes").value(exact_bound_prunes);
        w.key("dominance_prunes").value(exact_dominance_prunes);
        w.key("probes").value(exact_probes);
        w.key("wins").beginObject();
        w.key("list").value(portfolio_wins_list);
        w.key("backward").value(portfolio_wins_backward);
        w.key("modulo").value(portfolio_wins_modulo);
        w.key("exact").value(portfolio_wins_exact);
        w.endObject();
        w.endObject();
    }
    w.key("trace").beginObject();
    w.key("transform_effects").beginObject();
    w.key("merged_options").value(transform_effects.merged_options);
    w.key("merged_or_trees").value(transform_effects.merged_or_trees);
    w.key("merged_trees").value(transform_effects.merged_trees);
    w.key("removed_dead").value(transform_effects.removed_dead);
    w.key("redundant_options_removed")
        .value(transform_effects.redundant_options_removed);
    w.key("trees_reordered").value(transform_effects.trees_reordered);
    w.key("usages_hoisted").value(transform_effects.usages_hoisted);
    w.key("resources_shifted").value(transform_effects.resources_shifted);
    w.endObject();
    w.key("attempts_per_op").beginObject();
    w.key("count").value(attempts_per_op.total());
    w.key("mean").value(attempts_per_op.mean());
    w.key("max").value(attempts_per_op.maxValue());
    w.key("buckets").beginArray();
    for (uint64_t b = 0; b <= attempts_per_op.maxValue(); ++b)
        w.value(attempts_per_op.countAt(b));
    w.endArray();
    w.endObject();
    w.key("resource_conflicts").beginObject();
    for (const auto &[name, n] : rankedConflicts(resource_conflicts))
        w.key(name).value(n);
    w.endObject();
    w.endObject();
    if (net.enabled) {
        w.key("net").beginObject();
        w.key("accepted").value(net.accepted);
        w.key("closed").value(net.closed);
        w.key("active").value(net.active);
        w.key("resets").value(net.resets);
        w.key("frames_in").value(net.frames_in);
        w.key("frames_out").value(net.frames_out);
        w.key("bytes_in").value(net.bytes_in);
        w.key("bytes_out").value(net.bytes_out);
        w.key("protocol_errors").value(net.protocol_errors);
        w.key("bad_requests").value(net.bad_requests);
        w.key("shed").value(net.shed);
        w.key("deadline_expired").value(net.deadline_expired);
        w.key("backpressure_stalls").value(net.backpressure_stalls);
        w.key("cancelled_on_close").value(net.cancelled_on_close);
        w.key("stats_requests").value(net.stats_requests);
        w.key("stats_coalesced").value(net.stats_coalesced);
        w.key("draining_shed").value(net.draining_shed);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

} // namespace mdes::service

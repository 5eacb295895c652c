#include "service/stats.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "support/diagnostics.h"
#include "support/json.h"
#include "support/text_table.h"

namespace mdes::service {

namespace {

using FaultSites = decltype(ServiceMetrics::fault_sites);
using Conflicts = decltype(ServiceMetrics::resource_conflicts);

/** Conflict entries sorted most-contended first (the heat ranking). */
std::vector<std::pair<std::string, uint64_t>>
rankedConflicts(const Conflicts &conflicts)
{
    std::vector<std::pair<std::string, uint64_t>> ranked(conflicts.begin(),
                                                         conflicts.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return ranked;
}

/** The visitMetrics() walk that writes the metrics sections. */
class Writer
{
  public:
    Writer(JsonWriter &w, uint64_t now_s) : w_(w), now_s_(now_s) {}

    void open(const char *key) { w_.key(key).beginObject(); }
    void close() { w_.endObject(); }

    template <class T>
    void
    count(const char *key, const T &n)
    {
        w_.key(key).value(uint64_t(n));
    }

    void flag(const char *key, bool b) { w_.key(key).value(b); }

    template <class F>
    void
    derived(const char *key, F fn, const ServiceMetrics &m)
    {
        w_.key(key).value(fn(m));
    }

    void
    series(const StageLatency &s)
    {
        w_.key("count").value(s.count);
        w_.key("total_us").value(s.total_us);
        w_.key("max_us").value(s.max_us);
        w_.key("mean_us").value(s.meanUs());
        w_.key("p50_us").value(s.approxPercentileUs(0.50));
        w_.key("p95_us").value(s.approxPercentileUs(0.95));
        w_.key("p99_us").value(s.approxPercentileUs(0.99));
        buckets(s.log2_us);
    }

    void
    histogram(const Histogram &h)
    {
        w_.key("count").value(h.total());
        w_.key("mean").value(h.mean());
        w_.key("max").value(h.maxValue());
        buckets(h);
    }

    void
    windows(const WindowRing &ring)
    {
        w_.key("slots").beginArray();
        for (size_t i = 0; i < kWindowSlots; ++i) {
            const MetricsWindow &slot = ring.slot(i);
            if (slot.epoch == 0)
                continue;
            w_.beginObject();
            w_.key("epoch").value(slot.epoch);
            w_.key("requests").value(slot.requests);
            w_.key("ok").value(slot.ok);
            w_.key("errors").value(slot.errors);
            w_.key("shed").value(slot.shed);
            series(slot.total);
            w_.endObject();
        }
        w_.endArray();
        view("w10", ring.over(now_s_, 10));
        view("w60", ring.over(now_s_, 60));
    }

    void
    faultSites(const FaultSites &sites)
    {
        for (const auto &[name, counts] : sites) {
            w_.key(name).beginObject();
            w_.key("evaluations").value(counts.first);
            w_.key("fires").value(counts.second);
            w_.endObject();
        }
    }

    void
    conflicts(const Conflicts &conflicts)
    {
        for (const auto &[name, n] : rankedConflicts(conflicts))
            w_.key(name).value(n);
    }

  private:
    void
    buckets(const Histogram &h)
    {
        w_.key("buckets").beginArray();
        for (uint64_t b = 0; b <= h.maxValue(); ++b)
            w_.value(h.countAt(b));
        w_.endArray();
    }

    void
    view(const char *key, const WindowView &v)
    {
        w_.key(key).beginObject();
        w_.key("horizon_s").value(v.horizon_s);
        w_.key("requests").value(v.requests);
        w_.key("ok").value(v.ok);
        w_.key("errors").value(v.errors);
        w_.key("shed").value(v.shed);
        w_.key("rate_per_s").value(v.ratePerS());
        w_.key("p50_us").value(v.total.approxPercentileUs(0.50));
        w_.key("p95_us").value(v.total.approxPercentileUs(0.95));
        w_.key("p99_us").value(v.total.approxPercentileUs(0.99));
        w_.key("mean_us").value(v.total.meanUs());
        w_.key("max_us").value(v.total.max_us);
        w_.endObject();
    }

    JsonWriter &w_;
    uint64_t now_s_;
};

/**
 * The visitMetrics() walk that reads the metrics sections back. Every
 * field must be present with its type, and every count must be an
 * integer in [0, 2^64): the document arrives from other processes.
 */
class Reader
{
  public:
    explicit Reader(const JsonValue &root) : cur_(&root) {}

    void
    open(const char *key)
    {
        enter(at(key, JsonValue::Kind::Object), key);
    }

    void
    close()
    {
        cur_ = parents_.back().first;
        path_.resize(parents_.back().second);
        parents_.pop_back();
    }

    /** Descend into @p obj, an element of the open object's @p key. */
    void
    enter(const JsonValue &obj, std::string_view key)
    {
        if (obj.kind != JsonValue::Kind::Object)
            fail(key, "is not an object");
        parents_.push_back({cur_, path_.size()});
        path_.append(key).push_back('.');
        cur_ = &obj;
    }

    template <class T>
    void
    count(std::string_view key, T &n)
    {
        n = T(number(at(key, JsonValue::Kind::Number), key));
    }

    void
    flag(const char *key, bool &b)
    {
        b = at(key, JsonValue::Kind::Bool).boolean;
    }

    template <class... Ignored>
    void
    derived(const char *, Ignored &&...)
    {
    }

    void
    series(StageLatency &s)
    {
        count("count", s.count);
        count("total_us", s.total_us);
        count("max_us", s.max_us);
        if (array("buckets").size() > kLog2Buckets)
            fail("buckets", "has more than 65 buckets");
        histogram(s.log2_us);
    }

    void
    histogram(Histogram &h)
    {
        const std::vector<JsonValue> &counts = array("buckets");
        for (size_t b = 0; b < counts.size(); ++b)
            h.addCount(b, number(counts[b], "buckets"));
    }

    void
    windows(WindowRing &ring)
    {
        for (const JsonValue &slot : array("slots")) {
            enter(slot, "slots");
            MetricsWindow w;
            count("epoch", w.epoch);
            count("requests", w.requests);
            count("ok", w.ok);
            count("errors", w.errors);
            count("shed", w.shed);
            series(w.total);
            close();
            if (w.epoch != 0)
                ring.add(w);
        }
    }

    void
    faultSites(FaultSites &sites)
    {
        for (const auto &[name, site] : cur_->object) {
            enter(site, name);
            count("evaluations", sites[name].first);
            count("fires", sites[name].second);
            close();
        }
    }

    void
    conflicts(Conflicts &conflicts)
    {
        for (const auto &[name, n] : cur_->object)
            conflicts[name] = number(n, name);
    }

    const std::vector<JsonValue> &
    array(const char *key)
    {
        return at(key, JsonValue::Kind::Array).array;
    }

    const std::string &
    text(const char *key)
    {
        return at(key, JsonValue::Kind::String).string;
    }

    double
    real(const char *key)
    {
        return at(key, JsonValue::Kind::Number).number;
    }

    /** A pid: -1 (no process) or a non-negative 32-bit integer. */
    int64_t
    pid(const char *key)
    {
        const double v = at(key, JsonValue::Kind::Number).number;
        if (!(v >= -1.0 && v <= double(INT32_MAX)) || v != std::trunc(v))
            fail(key, "is not a pid");
        return int64_t(v);
    }

  private:
    const JsonValue &
    at(std::string_view key, JsonValue::Kind kind) const
    {
        const JsonValue *v = cur_->find(key);
        if (v == nullptr)
            fail(key, "is missing");
        if (v->kind != kind)
            fail(key, "has the wrong type");
        return *v;
    }

    uint64_t
    number(const JsonValue &v, std::string_view key) const
    {
        if (v.kind == JsonValue::Kind::Number) {
            try {
                return jsonU64(v);
            } catch (const MdesError &) {
            }
        }
        fail(key, "is not an integer in [0, 2^64)");
    }

    [[noreturn]] void
    fail(std::string_view key, const char *why) const
    {
        throw MdesError("stats document: '" + path_ + std::string(key) +
                        "' " + why);
    }

    const JsonValue *cur_;
    /** Enclosing objects and the path_ length to restore on close(). */
    std::vector<std::pair<const JsonValue *, size_t>> parents_;
    /** Dotted path of the open object, for error messages. */
    std::string path_;
};

} // namespace

std::string
statsToJson(const StatsDocument &doc)
{
    JsonWriter w;
    w.beginObject();
    w.key("now_s").value(doc.now_s);
    w.key("shards").value(doc.shards);
    w.key("stale_shards").value(doc.stale_shards);
    Writer writer(w, doc.now_s);
    visitMetrics(writer, doc.metrics);
    if (!doc.per_shard.empty()) {
        w.key("per_shard").beginArray();
        for (const ShardRow &row : doc.per_shard) {
            w.beginObject();
            w.key("shard").value(row.shard);
            w.key("stale").value(row.stale);
            w.key("requests").value(row.requests);
            w.key("w60_requests").value(row.w60_requests);
            w.key("w60_rate_per_s").value(row.w60_rate_per_s);
            w.key("w60_p99_us").value(row.w60_p99_us);
            w.key("pid").value(row.pid);
            w.key("restarts").value(row.restarts);
            w.key("state").value(row.state);
            w.endObject();
        }
        w.endArray();
        const SupervisionInfo &sup = doc.supervision;
        w.key("supervision").beginObject();
        w.key("health").value(sup.health);
        w.key("restarts").value(sup.restarts);
        w.key("crashes").value(sup.crashes);
        w.key("wedged_shards").value(sup.wedged_shards);
        w.key("quarantined").value(sup.quarantined);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

StatsDocument
parseStats(std::string_view json)
{
    const JsonValue root = parseJson(json);
    if (root.kind != JsonValue::Kind::Object)
        throw MdesError("stats document: not a JSON object");
    StatsDocument doc;
    Reader r(root);
    r.count("now_s", doc.now_s);
    r.count("shards", doc.shards);
    r.count("stale_shards", doc.stale_shards);
    visitMetrics(r, doc.metrics);
    if (root.find("per_shard") == nullptr)
        return doc;
    for (const JsonValue &obj : r.array("per_shard")) {
        r.enter(obj, "per_shard");
        ShardRow row;
        r.count("shard", row.shard);
        r.flag("stale", row.stale);
        r.count("requests", row.requests);
        r.count("w60_requests", row.w60_requests);
        row.w60_rate_per_s = r.real("w60_rate_per_s");
        r.count("w60_p99_us", row.w60_p99_us);
        row.pid = r.pid("pid");
        r.count("restarts", row.restarts);
        row.state = r.text("state");
        r.close();
        doc.per_shard.push_back(std::move(row));
    }
    r.open("supervision");
    doc.supervision.health = r.text("health");
    r.count("restarts", doc.supervision.restarts);
    r.count("crashes", doc.supervision.crashes);
    r.count("wedged_shards", doc.supervision.wedged_shards);
    r.count("quarantined", doc.supervision.quarantined);
    r.close();
    return doc;
}

std::string
mergeShardStats(const std::vector<std::string> &shard_jsons,
                uint64_t now_s, const SupervisionInfo &sup,
                const std::vector<ShardSupervision> &shard_sup)
{
    StatsDocument fleet;
    fleet.now_s = now_s;
    fleet.shards = 0;
    fleet.supervision = sup;
    for (size_t i = 0; i < shard_jsons.size(); ++i) {
        ShardRow row;
        row.shard = i;
        if (i < shard_sup.size()) {
            row.pid = shard_sup[i].pid;
            row.restarts = shard_sup[i].restarts;
            row.state = shard_sup[i].state;
        }
        try {
            const ServiceMetrics shard = parseStats(shard_jsons[i]).metrics;
            fleet.metrics.merge(shard);
            ++fleet.shards;
            const WindowView w60 = shard.windows.over(now_s, 60);
            row.requests = shard.requests;
            row.w60_requests = w60.requests;
            row.w60_rate_per_s = w60.ratePerS();
            row.w60_p99_us = w60.total.approxPercentileUs(0.99);
        } catch (const std::exception &) {
            row.stale = true;
            ++fleet.stale_shards;
        }
        fleet.per_shard.push_back(std::move(row));
    }
    return statsToJson(fleet);
}

namespace {

/** "<=hi us (lo-hi)" for log2 bucket @p b, compactly. */
std::string
bucketLabel(uint64_t b)
{
    if (b == 0)
        return "0us";
    const auto [lo, hi] = StageLatency::bucketRange(b);
    return "<=" + std::to_string(hi) + "us (" + std::to_string(lo) + "-" +
           std::to_string(hi) + ")";
}

void
addLatencyRow(TextTable &table, const char *name, const StageLatency &s)
{
    table.addRow({name, std::to_string(s.count),
                  TextTable::num(s.meanUs(), 1),
                  std::to_string(s.approxPercentileUs(0.50)),
                  std::to_string(s.approxPercentileUs(0.99)),
                  std::to_string(s.max_us),
                  s.count ? bucketLabel(s.log2_us.maxValue()) : "-"});
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

/** A two-column table of the non-zero (name, value) @p rows. */
std::string
nonZeroTable(const char *name_column, const char *value_column,
             std::initializer_list<std::pair<const char *, uint64_t>> rows)
{
    TextTable table;
    table.setHeader({name_column, value_column});
    for (const auto &[name, v] : rows)
        if (v != 0)
            table.addRow({name, std::to_string(v)});
    return table.toString();
}

} // namespace

std::string
renderStats(const StatsDocument &doc)
{
    const ServiceMetrics &m = doc.metrics;
    const DescriptionCache::Stats &cache = m.cache;
    std::string out;

    if (!doc.per_shard.empty()) {
        const SupervisionInfo &sup = doc.supervision;
        TextTable fleet;
        fleet.setHeader({"Shards", "Stale", "Health", "Restarts",
                         "Crashes", "Wedged", "Quarantined"});
        fleet.addRow({std::to_string(doc.shards),
                      std::to_string(doc.stale_shards), sup.health,
                      std::to_string(sup.restarts),
                      std::to_string(sup.crashes),
                      std::to_string(sup.wedged_shards),
                      std::to_string(sup.quarantined)});
        out += fleet.toString();
    }

    TextTable reqs;
    reqs.setHeader({"Requests", "OK", "Errors", "Cache Hits",
                    "Cache Misses", "Hit Rate", "Compiles", "Evictions"});
    reqs.addRow({std::to_string(m.requests), std::to_string(m.ok),
                 std::to_string(m.errorTotal()), std::to_string(cache.hits),
                 std::to_string(cache.misses),
                 TextTable::percent(cache.hitRate()),
                 std::to_string(cache.compiles),
                 std::to_string(cache.evictions)});
    out += reqs.toString();

    if (cache.disk_enabled) {
        TextTable disk;
        disk.setHeader({"Store Hits", "Store Misses", "Store Hit Rate",
                        "Publishes", "Corrupt", "Stale", "Store Evictions"});
        disk.addRow({std::to_string(cache.disk_hits),
                     std::to_string(cache.disk_misses),
                     TextTable::percent(cache.diskHitRate()),
                     std::to_string(cache.disk_stores),
                     std::to_string(cache.disk_corrupt),
                     std::to_string(cache.disk_stale),
                     std::to_string(cache.disk_evictions)});
        out += disk.toString();
    }

    if (m.errorTotal() != 0) {
        TextTable errs;
        errs.setHeader({"Error", "Count"});
        for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i)
            if (m.errors[i])
                errs.addRow({errorCodeName(ErrorCode(i)),
                             std::to_string(m.errors[i])});
        out += errs.toString();
    }

    // Robustness counters surface only once something interesting
    // happened, so healthy runs keep the short report they had.
    if (m.requests_shed || m.degraded_responses || cache.disk_retries ||
        cache.breaker_trips || cache.breaker_fast_fails ||
        cache.degraded_compiles) {
        TextTable robust;
        robust.setHeader({"Shed", "Degraded", "Store Retries",
                          "Breaker Trips", "Breaker Fast-Fails"});
        robust.addRow({std::to_string(m.requests_shed),
                       std::to_string(m.degraded_responses),
                       std::to_string(cache.disk_retries),
                       std::to_string(cache.breaker_trips),
                       std::to_string(cache.breaker_fast_fails)});
        out += robust.toString();
    }
    if (!m.fault_sites.empty()) {
        TextTable faults;
        faults.setHeader({"Fault Site", "Evaluations", "Fires"});
        for (const auto &[name, counts] : m.fault_sites)
            faults.addRow({name, std::to_string(counts.first),
                           std::to_string(counts.second)});
        out += faults.toString();
    }

    TextTable lat;
    lat.setHeader({"Stage", "Count", "Mean us", "p50 us", "p99 us",
                   "Max us", "Peak bucket"});
    addLatencyRow(lat, "queue", m.queue_wait);
    addLatencyRow(lat, "compile", m.compile);
    addLatencyRow(lat, "workload", m.workload);
    addLatencyRow(lat, "schedule", m.schedule);
    addLatencyRow(lat, "verify", m.verify);
    addLatencyRow(lat, "total", m.total);
    out += lat.toString();

    TextTable win;
    win.setHeader({"Window", "Requests", "Rate/s", "Errors", "Shed",
                   "p50 us", "p95 us", "p99 us"});
    addWindowRow(win, "last 10s", m.windows.over(doc.now_s, 10));
    addWindowRow(win, "last 60s", m.windows.over(doc.now_s, 60));
    out += win.toString();

    TextTable sched;
    sched.setHeader({"Ops Scheduled", "Blocks", "Total Length",
                     "Attempts", "Resource Checks", "Checks/Attempt",
                     "Prefilter Hits", "Fast Path"});
    sched.addRow({std::to_string(m.ops_scheduled),
                  std::to_string(m.blocks_scheduled),
                  std::to_string(m.total_schedule_length),
                  std::to_string(m.attempts),
                  std::to_string(m.resource_checks),
                  TextTable::num(m.attempts ? double(m.resource_checks) /
                                                  double(m.attempts)
                                            : 0.0,
                                 2),
                  std::to_string(m.prefilter_hits),
                  std::to_string(m.probe_fastpath)});
    out += sched.toString();

    if (m.exact.blocks != 0) {
        TextTable ex;
        ex.setHeader({"Exact Blocks", "Proven Optimal", "Root Proofs",
                      "Budget Out", "Gap Cycles", "Nodes", "Bound Prunes",
                      "Dominance Prunes", "Probes"});
        ex.addRow({std::to_string(m.exact.blocks),
                   std::to_string(m.exact.proven_optimal),
                   std::to_string(m.exact.root_proofs),
                   std::to_string(m.exact.budget_exhausted),
                   std::to_string(m.exact.gap_cycles),
                   std::to_string(m.exact.nodes),
                   std::to_string(m.exact.bound_prunes),
                   std::to_string(m.exact.dominance_prunes),
                   std::to_string(m.exact.probes)});
        out += ex.toString();
        if (m.exact.wins_list + m.exact.wins_backward +
                m.exact.wins_modulo + m.exact.wins_exact !=
            0)
            out += nonZeroTable("Portfolio Winner", "Blocks",
                                {{"list", m.exact.wins_list},
                                 {"backward", m.exact.wins_backward},
                                 {"modulo", m.exact.wins_modulo},
                                 {"exact", m.exact.wins_exact}});
    }

    const TransformEffects &fx = m.transform_effects;
    if (fx.total() != 0)
        out += nonZeroTable(
            "Transform Effect", "Total",
            {{"options merged", fx.merged_options},
             {"OR-trees merged", fx.merged_or_trees},
             {"AND/OR-trees merged", fx.merged_trees},
             {"dead entities removed", fx.removed_dead},
             {"redundant options removed", fx.redundant_options_removed},
             {"trees reordered", fx.trees_reordered},
             {"usages hoisted", fx.usages_hoisted},
             {"resources shifted", fx.resources_shifted}});
    if (!m.resource_conflicts.empty()) {
        TextTable heat;
        heat.setHeader({"Contended Resource", "Conflicts"});
        auto ranked = rankedConflicts(m.resource_conflicts);
        constexpr size_t kTopN = 8;
        for (size_t i = 0; i < ranked.size() && i < kTopN; ++i)
            heat.addRow({ranked[i].first,
                         std::to_string(ranked[i].second)});
        out += heat.toString();
    }
    if (m.attempts_per_op.total() != 0) {
        TextTable apo;
        apo.setHeader({"Traced Ops", "Mean Attempts/Op",
                       "Max Attempts/Op"});
        apo.addRow({std::to_string(m.attempts_per_op.total()),
                    TextTable::num(m.attempts_per_op.mean(), 2),
                    std::to_string(m.attempts_per_op.maxValue())});
        out += apo.toString();
    }

    const NetStats &net = m.net;
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

    if (!doc.per_shard.empty()) {
        TextTable shards;
        shards.setHeader({"Shard", "State", "Pid", "Restarts", "Requests",
                          "60s Requests", "60s Rate/s", "60s p99 us"});
        for (const ShardRow &row : doc.per_shard) {
            // A down shard shows its supervision state (backoff,
            // quarantined, exited); a live one that missed the poll is
            // STALE.
            const std::string state =
                row.stale && row.state == "live" ? "STALE" : row.state;
            auto cell = [&](std::string s) {
                return row.stale ? std::string("-") : s;
            };
            shards.addRow({std::to_string(row.shard), state,
                           row.pid >= 0 ? std::to_string(row.pid) : "-",
                           std::to_string(row.restarts),
                           cell(std::to_string(row.requests)),
                           cell(std::to_string(row.w60_requests)),
                           cell(TextTable::num(row.w60_rate_per_s, 1)),
                           cell(std::to_string(row.w60_p99_us))});
        }
        out += shards.toString();
    }
    return out;
}

} // namespace mdes::service

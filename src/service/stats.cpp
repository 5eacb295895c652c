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

/**
 * The visitMetrics() walk behind renderStats(). A section's values form
 * one table headed by its dotted path and the document's keys; one too
 * wide for a single row prints as name/value rows. Every stage series
 * is one row of the latency table, the windows section's views are the
 * rows of its table, and fault sites and the top resource conflicts are
 * the rows of theirs. A row whose values are all zero is left out, and
 * so is a table with no row left or whose section has its enabled flag
 * off; the lifetime table always prints, so an idle service still shows
 * its counts.
 */
class TableWriter
{
  public:
    explicit TableWriter(uint64_t now_s) : now_s_(now_s) {}

    void
    open(const char *key)
    {
        Frame f{key, key, true, kNoTable};
        if (!frames_.empty()) {
            f.path = frames_.back().path + "." + key;
            f.enabled = frames_.back().enabled;
        }
        frames_.push_back(std::move(f));
    }

    void close() { frames_.pop_back(); }

    template <class T>
    void
    count(const char *key, const T &n)
    {
        cell(key, uint64_t(n));
    }

    void
    flag(const char *, bool b)
    {
        Frame &f = frames_.back();
        f.enabled = f.enabled && b;
        if (f.table != kNoTable)
            tables_[f.table].enabled = f.enabled;
    }

    template <class F>
    void
    derived(const char *key, F fn, const ServiceMetrics &m)
    {
        cell(key, fn(m));
    }

    void
    series(const StageLatency &s)
    {
        if (latency_ == kNoTable)
            latency_ = table({"latency", "count", "mean_us", "p50_us",
                              "p95_us", "p99_us", "max_us"});
        row(latency_, withLatency({label(frames_.back().key), of(s.count)},
                                  s));
    }

    void
    histogram(const Histogram &h)
    {
        cell("count", h.total());
        cell("mean", h.mean());
        cell("max", h.maxValue());
    }

    void
    windows(const WindowRing &ring)
    {
        const size_t t =
            table({frames_.back().path, "requests", "ok", "errors", "shed",
                   "rate_per_s", "mean_us", "p50_us", "p95_us", "p99_us",
                   "max_us"});
        for (auto [key, horizon_s] :
             {std::pair{"w10", 10}, std::pair{"w60", 60}}) {
            const WindowView v = ring.over(now_s_, horizon_s);
            row(t, withLatency({label(key), of(v.requests), of(v.ok),
                                of(v.errors), of(v.shed), of(v.ratePerS())},
                               v.total));
        }
    }

    void
    faultSites(const FaultSites &sites)
    {
        const size_t t =
            table({frames_.back().path, "evaluations", "fires"});
        for (const auto &[name, counts] : sites)
            row(t, {label(name), of(counts.first), of(counts.second)});
    }

    void
    conflicts(const Conflicts &conflicts)
    {
        constexpr size_t kTopN = 8;
        const size_t t = table({frames_.back().path, "value"});
        const auto ranked = rankedConflicts(conflicts);
        for (size_t i = 0; i < ranked.size() && i < kTopN; ++i)
            row(t, {label(ranked[i].first), of(ranked[i].second)});
    }

    /** Every table the walk filled, in the order the walk opened them. */
    std::string
    str() const
    {
        std::string out;
        for (const Table &t : tables_) {
            if (!t.enabled)
                continue;
            TextTable text;
            size_t rows = 0;
            auto add = [&](std::vector<std::string> cells, bool zero) {
                if (zero && !t.always)
                    return;
                text.addRow(std::move(cells));
                ++rows;
            };
            size_t width = 1;
            for (const std::string &h : t.header)
                width += h.size() + 3;
            if (t.rows.size() == 1 && width > kMaxRowWidth) {
                text.setHeader({t.header[0], "value"});
                for (size_t i = 1; i < t.header.size(); ++i)
                    add({t.header[i], t.rows[0][i].text}, t.rows[0][i].zero);
            } else {
                text.setHeader(t.header);
                for (const std::vector<Cell> &r : t.rows) {
                    std::vector<std::string> cells;
                    bool zero = true;
                    for (const Cell &c : r) {
                        cells.push_back(c.text);
                        zero = zero && c.zero;
                    }
                    add(std::move(cells), zero);
                }
            }
            if (rows != 0)
                out += text.toString();
        }
        return out;
    }

  private:
    /** Widest single-row table, in characters; wider ones print as
     * name/value rows. */
    static constexpr size_t kMaxRowWidth = 120;
    static constexpr size_t kNoTable = SIZE_MAX;

    struct Cell
    {
        std::string text;
        /** A zero value, or a row's label. */
        bool zero;
    };
    struct Table
    {
        /** The section's path, then one key per value. */
        std::vector<std::string> header;
        /** Each row is its label, then its values. */
        std::vector<std::vector<Cell>> rows;
        bool enabled = true;
        bool always = false;
    };
    struct Frame
    {
        std::string key;
        std::string path;
        bool enabled;
        /** The section's own one-row table, once it has a value. */
        size_t table;
    };

    static Cell label(std::string text) { return {std::move(text), true}; }
    static Cell of(uint64_t n) { return {std::to_string(n), n == 0}; }
    static Cell of(double x) { return {TextTable::num(x, 2), x == 0.0}; }

    /** @p cells, then @p s's mean, p50, p95, p99 and max. */
    static std::vector<Cell>
    withLatency(std::vector<Cell> cells, const StageLatency &s)
    {
        for (Cell c : {of(s.meanUs()), of(s.approxPercentileUs(0.50)),
                       of(s.approxPercentileUs(0.95)),
                       of(s.approxPercentileUs(0.99)), of(s.max_us)})
            cells.push_back(std::move(c));
        return cells;
    }

    size_t
    table(std::vector<std::string> header)
    {
        Table t;
        t.header = std::move(header);
        t.enabled = frames_.back().enabled;
        tables_.push_back(std::move(t));
        return tables_.size() - 1;
    }

    void
    row(size_t t, std::vector<Cell> cells)
    {
        tables_[t].rows.push_back(std::move(cells));
    }

    /** One value of the open section, in its own one-row table. */
    template <class T>
    void
    cell(const char *key, T value)
    {
        Frame &f = frames_.back();
        if (f.table == kNoTable) {
            f.table = table({f.path});
            tables_[f.table].always = f.path == "lifetime";
            row(f.table, {label("")});
        }
        tables_[f.table].header.push_back(key);
        tables_[f.table].rows[0].push_back(of(value));
    }

    uint64_t now_s_;
    std::vector<Frame> frames_;
    std::vector<Table> tables_;
    /** The one table every stage series adds its row to. */
    size_t latency_ = kNoTable;
};

} // namespace

std::string
renderStats(const StatsDocument &doc)
{
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

    TableWriter tables(doc.now_s);
    visitMetrics(tables, doc.metrics);
    out += tables.str();

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

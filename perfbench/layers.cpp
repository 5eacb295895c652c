/**
 * @file
 * The traced run: per-layer costs of one workload.
 *
 * The program has no span recorder of its own yet, so the spans here
 * are recorded by the benchmark around each layer's public entry point.
 * The replay walks the workload's request sequence and, for each
 * request, makes the calls the service makes on its behalf:
 *
 *   net ingress   encodeFrame, FrameDecoder, parseRequestLine
 *   cache         DescriptionCache::getOrCompile (lookup time excludes
 *                 the compile it triggers)
 *   compile       hmdes::compileOrThrow, runPipeline, LowMdes::lower
 *   store         ArtifactStore::load
 *   workload      workload::generate, parseSasm
 *   sched         DepGraph::build, ListScheduler / BackwardListScheduler
 *                 ::scheduleBlock, verifyScheduleEx - per block
 *   exact/modulo  ExactScheduler::scheduleBlock, ModuloScheduler::schedule
 *                 on a fixed sample of blocks and loop bodies
 *   egress        scheduleFingerprint, serializeResponse
 *
 * Passes alternate between timers on and timers off over the same
 * calls; the difference is reported as bench.trace_overhead_pct. The
 * first pass starts from a cold cache and supplies the deterministic
 * counts (cache compiles/evictions, rumap ratios). Around the replay,
 * two closed-loop legs measure what the replay cannot see: the
 * service's own stage metrics (queue wait, total, the unattributed
 * rest) and a socket leg for round trip, server time and connection
 * set-up.
 */

#include <algorithm>
#include <filesystem>

#include "exact/exact_scheduler.h"
#include "hmdes/compile.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "perfbench.h"
#include "sched/backward_scheduler.h"
#include "sched/dep_graph.h"
#include "sched/modulo_scheduler.h"
#include "sched/verify.h"
#include "service/request_parse.h"
#include "store/store.h"
#include "support/json.h"
#include "workload/sasm.h"
#include "workload/workload.h"
#include "machines/machines.h"

namespace mdes::perfbench {

namespace {

/** Exact searches and modulo schedules per pass (a fixed sample: the
 * first blocks of each request, spread evenly over the inputs). */
constexpr size_t kExactPerPass = 64;
constexpr size_t kModuloPerPass = 32;
/** Node budget for sampled exact searches of non-portfolio requests. */
constexpr uint64_t kReplayNodes = 2000;
/** Socket-leg reconnect period for workloads that never reconnect. */
constexpr unsigned kSocketReconnect = 32;

enum Layer {
    kHmdesCompile,
    kCorePipeline,
    kLmdesLower,
    kCacheLookup,
    kStoreLoad,
    kWorkloadGenerate,
    kWorkloadSasm,
    kSchedDepGraph,
    kSchedList,
    kSchedBackward,
    kSchedVerify,
    kExactSearch,
    kSchedModulo,
    kServiceFingerprint,
    kNetParse,
    kNetEncode,
    kNetDecode,
    kNetSerialize,
    kNumLayers
};

/** Busy time and call count per layer; a no-op while off. */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    template <class F>
    decltype(auto)
    time(Layer layer, F &&f)
    {
        if (!on_)
            return f();
        Stop stop{*this, layer, Clock::now()};
        return f();
    }

    bool on() const { return on_; }

    /** Remove @p d from @p layer's busy time (a nested span's share). */
    void
    exclude(Layer layer, Clock::duration d)
    {
        busy_[layer] -= d;
    }

    /** Mean microseconds per call of @p layer (0 when never called). */
    double
    meanUs(Layer layer) const
    {
        return calls_[layer] ? std::chrono::duration<double, std::micro>(
                                   busy_[layer])
                                       .count() /
                                   double(calls_[layer])
                             : 0.0;
    }

    void
    merge(const Spans &o)
    {
        for (int i = 0; i < kNumLayers; ++i) {
            busy_[i] += o.busy_[i];
            calls_[i] += o.calls_[i];
        }
    }

  private:
    struct Stop
    {
        Spans &spans;
        Layer layer;
        Clock::time_point t0;
        ~Stop()
        {
            spans.busy_[layer] += Clock::now() - t0;
            ++spans.calls_[layer];
        }
    };

    bool on_;
    Clock::duration busy_[kNumLayers] = {};
    uint64_t calls_[kNumLayers] = {};
};

/** Per-input material the replay derives once, untimed. */
struct Prepared
{
    /** The program as .sasm text (the input's own for sasm requests). */
    std::string sasm;
    /** Loop bodies for the modulo sample (built-in machines only). */
    sched::Program loops;
    bool loops_ready = false;
    bool published = false;
};

/** Counts the first (cold) pass records. */
struct Counts
{
    uint64_t ops = 0;
    uint64_t attempts = 0;
    uint64_t resource_checks = 0;
    uint64_t prefilter_hits = 0;
    uint64_t exact_blocks = 0;
    uint64_t exact_nodes = 0;
    uint64_t lowered = 0;
    uint64_t lowered_bytes = 0;
};

class Replay
{
  public:
    Replay(const Workload &w, const std::string &store_dir)
        : w_(w), cache_(w.service.cache_capacity),
          store_(storeConfig(store_dir)), prepared_(w.inputs.size())
    {
        size_t builtin = 0;
        for (const Input &in : w.inputs)
            builtin += in.req.sasm.empty() ? 1 : 0;
        exact_per_input_ =
            std::max<size_t>(1, kExactPerPass / w.inputs.size());
        modulo_per_input_ =
            std::max<size_t>(1, kModuloPerPass / std::max<size_t>(1, builtin));
    }

    /** One pass over the request sequence; failures counted. */
    void pass(Spans &sp, Counts &counts)
    {
        size_t exact_left = kExactPerPass, modulo_left = kModuloPerPass;
        for (uint32_t idx : w_.order)
            one(sp, counts, idx, exact_left, modulo_left);
    }

    uint64_t failed() const { return failed_; }
    uint64_t requests() const { return requests_; }
    service::DescriptionCache::Stats cacheStats() const
    {
        return cache_.stats();
    }
    store::StoreStats storeStats() const { return store_.stats(); }

  private:
    static store::StoreConfig
    storeConfig(const std::string &dir)
    {
        store::StoreConfig c;
        c.dir = dir;
        c.creator = "perfbench";
        return c;
    }

    void fail() { ++failed_; }

    void
    one(Spans &sp, Counts &counts, uint32_t idx, size_t &exact_left,
        size_t &modulo_left)
    {
        const Input &in = w_.inputs[idx];
        const service::ScheduleRequest &req = in.req;
        Prepared &prep = prepared_[idx];
        ++requests_;

        // --- Net ingress -------------------------------------------------
        if (!in.line.empty()) {
            net::Frame f;
            f.id = requests_;
            f.route = in.route;
            f.payload = in.line;
            std::string wire =
                sp.time(kNetEncode, [&] { return net::encodeFrame(f); });
            net::Frame got;
            bool decoded = sp.time(kNetDecode, [&] {
                net::FrameDecoder d;
                d.feed(wire.data(), wire.size());
                return d.next(&got) == net::FrameDecoder::Status::Ready;
            });
            service::RequestParseOptions po;
            po.allow_files = false;
            service::ScheduleRequest parsed = sp.time(kNetParse, [&] {
                return service::parseRequestLine(got.payload, 1, po);
            });
            if (!decoded || parsed.machine != req.machine ||
                parsed.seed != req.seed || parsed.synth_ops != req.synth_ops)
                fail();
        }

        // --- Cache lookup, compiling on a miss ---------------------------
        const std::string_view source = sourceOf(req);
        const service::DescriptionCache::Key key =
            service::DescriptionCache::makeKey(source, req.transforms,
                                               req.bit_vector);
        const uint64_t cfg =
            store::configFingerprint(req.transforms, req.bit_vector);
        Clock::duration compile_time{};
        service::CompiledMdes low = sp.time(kCacheLookup, [&] {
            return cache_.getOrCompile(
                key,
                [&] {
                    Clock::time_point t0 =
                        sp.on() ? Clock::now() : Clock::time_point{};
                    Mdes m = sp.time(kHmdesCompile, [&] {
                        return hmdes::compileOrThrow(source);
                    });
                    sp.time(kCorePipeline, [&] {
                        return runPipeline(m, req.transforms);
                    });
                    lmdes::LowerOptions lo;
                    lo.pack_bit_vector = req.bit_vector;
                    auto l = std::make_shared<const lmdes::LowMdes>(
                        sp.time(kLmdesLower, [&] {
                            return lmdes::LowMdes::lower(m, lo);
                        }));
                    ++counts.lowered;
                    counts.lowered_bytes += l->memory().total();
                    if (sp.on())
                        compile_time += Clock::now() - t0;
                    return service::CompileResult{l, false};
                },
                nullptr, cfg);
        });
        sp.exclude(kCacheLookup, compile_time);

        // --- Store -------------------------------------------------------
        if (!prep.published) {
            prep.published = store_.store(key, *low, cfg);
            if (!prep.published)
                fail();
        }
        if (!sp.time(kStoreLoad, [&] { return store_.load(key); }))
            fail();

        // --- Workload ----------------------------------------------------
        sched::Program program;
        if (req.sasm.empty()) {
            program = sp.time(kWorkloadGenerate,
                              [&] { return programOf(req, *low); });
            if (prep.sasm.empty())
                prep.sasm = workload::formatSasm(program, *low);
            if (!prep.loops_ready) {
                workload::WorkloadSpec spec =
                    machines::byName(req.machine)->workload;
                spec.num_ops = req.synth_ops;
                spec.seed = req.seed;
                prep.loops = workload::generateLoops(spec, *low);
                prep.loops_ready = true;
            }
        } else {
            prep.sasm = req.sasm;
        }
        DiagnosticEngine diags;
        sched::Program parsed = sp.time(kWorkloadSasm, [&] {
            return workload::parseSasm(prep.sasm, *low, diags);
        });
        if (diags.hasErrors())
            fail();
        if (!req.sasm.empty())
            program = std::move(parsed);
        else if (parsed.numOps() != program.numOps())
            fail();

        // --- Schedule, per block -----------------------------------------
        sched::ListScheduler list(*low);
        sched::BackwardListScheduler backward(*low);
        sched::SchedStats list_stats, backward_stats;
        service::ScheduleResponse resp;
        resp.machine = low->machineName();
        std::vector<sched::BlockSchedule> list_schedules;
        for (const sched::Block &block : program.blocks) {
            sp.time(kSchedDepGraph,
                    [&] { return sched::DepGraph::build(block, *low); });
            sched::BlockSchedule ls = sp.time(kSchedList, [&] {
                return list.scheduleBlock(block, list_stats);
            });
            sched::BlockSchedule bs = sp.time(kSchedBackward, [&] {
                return backward.scheduleBlock(block, backward_stats);
            });
            if (!sp.time(kSchedVerify, [&] {
                     return sched::verifyScheduleEx(block, ls, *low);
                 }).ok())
                fail();
            resp.total_cycles += uint64_t(
                req.scheduler == service::SchedulerKind::Backward ? bs.length
                                                                  : ls.length);
            resp.schedules.push_back(
                req.scheduler == service::SchedulerKind::Backward ? bs : ls);
            list_schedules.push_back(std::move(ls));
        }
        counts.ops += list_stats.ops_scheduled;
        counts.attempts += list_stats.checks.attempts;
        counts.resource_checks += list_stats.checks.resource_checks;
        counts.prefilter_hits += list_stats.checks.prefilter_hits;

        // --- Exact and modulo samples ------------------------------------
        exact::ExactScheduler search(*low);
        for (size_t b = 0; b < program.blocks.size() &&
                           b < exact_per_input_ && exact_left > 0;
             ++b, --exact_left) {
            exact::ExactOptions eo;
            eo.max_nodes = req.exact_nodes ? req.exact_nodes : kReplayNodes;
            eo.time_budget_us = 0;
            eo.incumbent = &list_schedules[b];
            sched::SchedStats st;
            exact::ExactResult er = sp.time(kExactSearch, [&] {
                return search.scheduleBlock(program.blocks[b], st, eo);
            });
            if (er.schedule.length > list_schedules[b].length)
                fail();
            ++counts.exact_blocks;
            counts.exact_nodes += er.nodes;
        }
        sched::ModuloScheduler modulo(*low);
        for (size_t b = 0; b < prep.loops.blocks.size() &&
                           b < modulo_per_input_ && modulo_left > 0;
             ++b, --modulo_left) {
            sched::SchedStats st;
            sched::ModuloSchedule ms = sp.time(kSchedModulo, [&] {
                return modulo.schedule(prep.loops.blocks[b], st);
            });
            if (!ms.success)
                fail();
        }

        // --- Egress ------------------------------------------------------
        uint64_t fp = sp.time(kServiceFingerprint, [&] {
            return service::scheduleFingerprint(resp);
        });
        if (req.scheduler != service::SchedulerKind::Portfolio &&
            (fp != in.fingerprint || resp.total_cycles != in.cycles))
            fail();
        sp.time(kNetSerialize,
                [&] { return net::serializeResponse(requests_, resp); });
    }

    const Workload &w_;
    service::DescriptionCache cache_;
    store::ArtifactStore store_;
    std::vector<Prepared> prepared_;
    size_t exact_per_input_ = 1;
    size_t modulo_per_input_ = 1;
    uint64_t failed_ = 0;
    uint64_t requests_ = 0;
};

/** Mean of a stage series between two snapshots, in microseconds. */
double
deltaMeanUs(const service::StageLatency &before,
            const service::StageLatency &after)
{
    uint64_t n = after.count - before.count;
    return n ? double(after.total_us - before.total_us) / double(n) : 0.0;
}

/** (requests, total_us) of a server's lifetime series, from its stats
 * document (a fleet parent answers with the merged fleet view). */
std::pair<uint64_t, uint64_t>
serverLifetime(uint16_t port)
{
    net::BlockingClient c("127.0.0.1", port);
    std::string doc = c.stats();
    if (doc.empty())
        throw MdesError("stats request failed");
    JsonValue v = parseJson(doc);
    const JsonValue *life = v.find("lifetime");
    const JsonValue *count = life ? life->find("count") : nullptr;
    const JsonValue *total = life ? life->find("total_us") : nullptr;
    if (!count || !total)
        throw MdesError("stats document lacks lifetime count/total_us");
    return {jsonU64(*count), jsonU64(*total)};
}

/** Send each input of @p w's sequence once; returns the failures. */
uint64_t
warmUp(Target &target, const Workload &w)
{
    std::unique_ptr<Session> session = target.open();
    uint64_t failed = 0;
    for (uint32_t i : w.order) {
        const Input &in = w.inputs[i];
        Reply r = session->request(in);
        failed += r.ok && r.fingerprint == in.fingerprint &&
                          r.cycles == in.cycles
                      ? 0
                      : 1;
    }
    return failed;
}

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

} // namespace

TraceResult
runTraced(const TraceContext &ctx)
{
    const Workload &w = *ctx.workload;
    TraceResult out;
    const double leg_s = ctx.seconds / 4;

    // --- Service leg: the service's own stage attribution ---------------
    std::unique_ptr<service::MdesService> own;
    service::MdesService *svc = ctx.service;
    if (!svc) {
        service::ServiceConfig cfg = w.service;
        cfg.store_dir = ctx.store_dir;
        own = std::make_unique<service::MdesService>(cfg);
        svc = own.get();
    }
    ServiceTarget service_target(*svc);
    if (own) {
        out.attempted += w.order.size();
        out.failed += warmUp(service_target, w);
    }
    service::ServiceMetrics before = svc->metricsSnapshot();
    LoopResult service_leg = closedLoop(service_target, w, leg_s);
    service::ServiceMetrics after = svc->metricsSnapshot();
    own.reset();
    out.attempted += service_leg.attempted;
    out.failed += service_leg.failed;
    const double total_us = deltaMeanUs(before.total, after.total);
    const double unattributed_us =
        total_us - deltaMeanUs(before.compile, after.compile) -
        deltaMeanUs(before.workload, after.workload) -
        deltaMeanUs(before.schedule, after.schedule);

    // --- Replay: alternate timed and untimed passes ---------------------
    const std::string replay_store = ctx.workdir + "/replay-store";
    std::filesystem::remove_all(replay_store);
    Replay replay(w, replay_store);
    Spans layers(true);
    Counts counts, scratch_counts;
    replay.pass(layers, counts); // cold: the deterministic counts
    const service::DescriptionCache::Stats cold = replay.cacheStats();
    double traced_s = 0, untraced_s = 0;
    const Clock::time_point replay_start = Clock::now();
    do {
        for (bool on : {false, true}) {
            Spans sp(on);
            Clock::time_point t0 = Clock::now();
            replay.pass(sp, scratch_counts);
            (on ? traced_s : untraced_s) += secondsSince(t0);
            layers.merge(sp);
        }
    } while (secondsSince(replay_start) < 2 * leg_s);
    const service::DescriptionCache::Stats warm = replay.cacheStats();
    const store::StoreStats ss = replay.storeStats();
    out.attempted += replay.requests();
    out.failed += replay.failed();

    // --- Socket leg: round trip, server time, connection set-up ---------
    std::unique_ptr<net::Server> server;
    uint16_t port = ctx.fleet_port;
    if (!port) {
        net::ServerConfig sc;
        sc.service = w.service;
        server = std::make_unique<net::Server>(sc);
        server->start();
        port = server->port();
    }
    Workload sock = w;
    sock.clients = 1;
    if (!sock.reconnect_every)
        sock.reconnect_every = kSocketReconnect;
    sock.order.clear();
    for (uint32_t i : w.order)
        if (!w.inputs[i].line.empty())
            sock.order.push_back(i);
    SocketTarget socket_target(port);
    if (server) {
        out.attempted += sock.order.size();
        out.failed += warmUp(socket_target, sock);
    }
    auto [n0, us0] = serverLifetime(port);
    LoopResult socket_leg = closedLoop(socket_target, sock, leg_s);
    auto [n1, us1] = serverLifetime(port);
    if (server)
        server->stop();
    out.attempted += socket_leg.attempted;
    out.failed += socket_leg.failed;

    // --- Report -----------------------------------------------------------
    const uint64_t cold_lookups = cold.hits + cold.misses;
    const uint64_t warm_lookups = warm.hits + warm.misses - cold_lookups;
    const double exact_ms =
        layers.meanUs(kExactSearch) * double(counts.exact_blocks) / 1e3;
    auto ratio = [](double a, double b) { return b ? a / b : 0.0; };
    out.metrics = {
        {"hmdes.compile_us", layers.meanUs(kHmdesCompile), "us"},
        {"core.pipeline_us", layers.meanUs(kCorePipeline), "us"},
        {"lmdes.lower_us", layers.meanUs(kLmdesLower), "us"},
        {"lmdes.bytes",
         ratio(double(counts.lowered_bytes), double(counts.lowered)),
         "bytes"},
        {"cache.lookup_us", layers.meanUs(kCacheLookup), "us"},
        {"cache.hit_rate",
         ratio(double(warm.hits - cold.hits), double(warm_lookups)), "ratio"},
        {"cache.compiles", double(cold.compiles), "count"},
        {"cache.evictions", double(cold.evictions), "count"},
        {"store.load_us", layers.meanUs(kStoreLoad), "us"},
        {"store.mapped", ratio(double(ss.mapped_hits), double(ss.hits)),
         "ratio"},
        {"workload.generate_us", layers.meanUs(kWorkloadGenerate), "us"},
        {"workload.sasm_us", layers.meanUs(kWorkloadSasm), "us"},
        {"sched.depgraph_us", layers.meanUs(kSchedDepGraph), "us"},
        {"sched.list_us", layers.meanUs(kSchedList), "us"},
        {"sched.backward_us", layers.meanUs(kSchedBackward), "us"},
        {"sched.verify_us", layers.meanUs(kSchedVerify), "us"},
        {"rumap.attempts_per_op",
         ratio(double(counts.attempts), double(counts.ops)), "ratio"},
        {"rumap.checks_per_attempt",
         ratio(double(counts.resource_checks), double(counts.attempts)),
         "ratio"},
        {"rumap.prefilter_hit_rate",
         ratio(double(counts.prefilter_hits), double(counts.attempts)),
         "ratio"},
        {"exact.search_us", layers.meanUs(kExactSearch), "us"},
        {"exact.nodes",
         ratio(double(counts.exact_nodes), double(counts.exact_blocks)),
         "count"},
        {"exact.nodes_per_ms", ratio(double(counts.exact_nodes), exact_ms),
         "1/ms"},
        {"sched.modulo_us", layers.meanUs(kSchedModulo), "us"},
        {"service.queue_wait_us",
         deltaMeanUs(before.queue_wait, after.queue_wait), "us"},
        {"service.total_us", total_us, "us"},
        {"service.fingerprint_us", layers.meanUs(kServiceFingerprint), "us"},
        {"service.unattributed_us", unattributed_us, "us"},
        {"net.rtt_us", mean(socket_leg.latency_ms) * 1e3, "us"},
        {"net.server_us", ratio(double(us1 - us0), double(n1 - n0)), "us"},
        {"net.parse_us", layers.meanUs(kNetParse), "us"},
        {"net.encode_us", layers.meanUs(kNetEncode), "us"},
        {"net.decode_us", layers.meanUs(kNetDecode), "us"},
        {"net.serialize_us", layers.meanUs(kNetSerialize), "us"},
        {"net.conn_setup_us", quantile(socket_leg.conn_setup_ms, 0.5) * 1e3,
         "us"},
        {"bench.trace_overhead_pct", (traced_s / untraced_s - 1) * 100, "%"},
    };
    return out;
}

} // namespace mdes::perfbench

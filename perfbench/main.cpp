/**
 * @file
 * The end-to-end benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--root <checkout>] [--mdesc <path>] [--workdir <dir>]
 *
 * With --trace 0 it sets the workload up several times (reporting the
 * median set-up time), then drives it closed-loop for the given seconds
 * and prints the end-to-end metrics. With --trace 1 it sets up once and
 * runs the traced replay (layers.cpp), printing the per-layer metrics.
 * Either way the last stdout line is one JSON object:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * Workloads (see README.md for why each exists and what it predicts):
 *   sched_list       in-process, list+backward, 20k ops, verify on
 *   sched_portfolio  in-process, portfolio with a node-bounded search
 *   compile_churn    in-process, every request misses the memory cache
 *   net_fleet        `mdesc serve --shards 2` over loopback sockets
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include <signal.h>
#include <unistd.h>

#include "exact/exact_scheduler.h"
#include "exp/runner.h"
#include "machines/machines.h"
#include "net/client.h"
#include "perfbench.h"
#include "sched/backward_scheduler.h"
#include "sched/verify.h"
#include "service/request_parse.h"
#include "support/diagnostics.h"
#include "workload/sasm.h"
#include "workload/workload.h"

namespace mdes::perfbench {

namespace {

namespace fs = std::filesystem;

const char *const kPaperMachines[] = {"PA7100", "Pentium", "SuperSPARC",
                                      "K5"};

/** Set-ups per --trace 0 run; the median is reported as setup_s. */
constexpr int kSetups = 5;

/** Untimed closed-loop load before the measured seconds. */
constexpr double kWarmupS = 3;

/** Request sizes. Each workload spreads its sizes evenly around the
 * nominal size (20k ops for sched_list, 200 for net_fleet), so request
 * latencies form a continuum instead of one cluster per machine and the
 * median does not jump between clusters from run to run. */
const std::vector<size_t> kListOps = {14000, 18000, 22000, 26000};
const std::vector<size_t> kFleetOps = {130, 150, 170, 190,
                                       210, 230, 250, 270};
/** net_fleet: seeds per (size, machine, scheduler), enough distinct
 * blocks that proven_rate barely depends on the seed. */
constexpr int kFleetSeeds = 4;

/** sched_portfolio: seeds per machine, ops per request, and the
 * per-block search node budget. */
constexpr int kPortfolioSeeds = 16;
constexpr size_t kPortfolioOps = 2000;
constexpr uint64_t kPortfolioNodes = 2000;

/** Lower-bound probe budget for proven_rate on list schedules: the root
 * bound only, so the probe never searches. */
constexpr uint64_t kBoundProbeNodes = 1;

/** A nonzero synthetic-workload seed (0 selects the machine default). */
uint64_t
drawSeed(std::mt19937_64 &rng)
{
    return rng() % 1000000007ull + 1;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw MdesError("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Fisher-Yates with the workload rng (libstdc++'s shuffle is not
 * specified to be stable across library versions). */
void
shuffle(std::vector<uint32_t> &v, std::mt19937_64 &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

/** A seeded straight-line program of at least @p ops operations for
 * descriptions/blackbird_vliw.hmdes, as .sasm text. */
std::string
vliwProgram(std::mt19937_64 &rng, size_t ops)
{
    static const char *const kOps[] = {"ADD_A", "ADD_B", "MUL_A", "MUL_B",
                                       "XCOPY", "LOAD",  "STORE"};
    auto reg = [&] { return "r" + std::to_string(rng() % 16); };
    std::string text;
    for (size_t n = 0; n < ops;) {
        text += "block\n";
        for (size_t len = 4 + rng() % 9; len > 0; --len, ++n) {
            const std::string op = kOps[rng() % 7];
            if (op == "STORE")
                text += "    STORE <- " + reg() + ", " + reg() + "\n";
            else if (op == "LOAD" || op == "XCOPY")
                text += "    " + op + " " + reg() + " <- " + reg() + "\n";
            else
                text += "    " + op + " " + reg() + " <- " + reg() + ", " +
                        reg() + "\n";
        }
        text += "end\n";
    }
    return text;
}

service::ScheduleRequest
builtinRequest(const std::string &machine, service::SchedulerKind kind,
               size_t ops, uint64_t seed)
{
    service::ScheduleRequest r;
    r.machine = machine;
    r.scheduler = kind;
    r.synth_ops = ops;
    r.seed = seed;
    return r;
}

/** Unoptimized descriptions, one per distinct source text. */
class NoneDescriptions
{
  public:
    std::shared_ptr<const lmdes::LowMdes>
    get(std::string_view source)
    {
        auto &slot = lows_[std::string(source)];
        if (!slot)
            slot = std::make_shared<const lmdes::LowMdes>(
                exp::compileSourceToLow(source, PipelineConfig::none(),
                                        /*bit_vector=*/false));
        return slot;
    }

  private:
    std::map<std::string, std::shared_ptr<const lmdes::LowMdes>> lows_;
};

/** Schedule @p program against @p low with the request's list-family
 * scheduler (portfolio answers are bounded by the list schedule). */
std::vector<sched::BlockSchedule>
listFamilySchedules(service::SchedulerKind kind, const sched::Program &program,
                    const lmdes::LowMdes &low)
{
    sched::SchedStats stats;
    if (kind == service::SchedulerKind::Backward)
        return sched::BackwardListScheduler(low).scheduleProgram(program,
                                                                 stats);
    return sched::ListScheduler(low).scheduleProgram(program, stats);
}

/** Fill in every input's oracle answer (and its wire line). */
void
computeOracle(Workload &w)
{
    NoneDescriptions none;
    for (Input &in : w.inputs) {
        auto low = none.get(sourceOf(in.req));
        sched::Program program = programOf(in.req, *low);
        service::ScheduleResponse r;
        r.schedules = listFamilySchedules(in.req.scheduler, program, *low);
        for (const auto &s : r.schedules)
            in.cycles += uint64_t(s.length);
        in.ops = program.numOps();
        in.fingerprint = service::scheduleFingerprint(r);
        if (in.req.scheduler == service::SchedulerKind::Portfolio) {
            // The portfolio answer is adopted at warm-up once it is
            // proven legal against this unoptimized description.
            in.fingerprint = 0;
            in.none_low = low;
            in.program =
                std::make_shared<const sched::Program>(std::move(program));
        }
        if (in.req.source.empty() && in.req.sasm.empty()) {
            in.line = service::renderRequestLine(in.req);
            in.route = net::routeKey(in.req);
        }
    }
}

/**
 * Adopt a portfolio response as @p in's expected answer: every block
 * must replay legally on the unoptimized description, and the total
 * must not exceed the list schedule's. Later responses must then repeat
 * it exactly (exact_ms=0 makes the search node-bounded, hence
 * deterministic). @return false when the response is wrong.
 */
bool
adoptPortfolioAnswer(Input &in, const service::ScheduleResponse &resp)
{
    if (!resp.ok() || resp.schedules.size() != in.program->blocks.size() ||
        resp.total_cycles > in.cycles)
        return false;
    for (size_t b = 0; b < resp.schedules.size(); ++b)
        if (!sched::verifyScheduleEx(in.program->blocks[b],
                                     resp.schedules[b], *in.none_low)
                 .ok())
            return false;
    in.fingerprint = service::scheduleFingerprint(resp);
    in.cycles = resp.total_cycles;
    in.blocks = resp.outcomes.size();
    in.proven = 0;
    for (const auto &o : resp.outcomes)
        in.proven += o.proven_optimal ? 1 : 0;
    return true;
}

/** Check one warm-up response (adopting portfolio answers). */
bool
warmCheck(Input &in, const service::ScheduleResponse &resp)
{
    if (in.req.scheduler == service::SchedulerKind::Portfolio)
        return adoptPortfolioAnswer(in, resp);
    return resp.ok() && service::scheduleFingerprint(resp) ==
                            in.fingerprint &&
           resp.total_cycles == in.cycles;
}

/**
 * Share of blocks whose list-family schedule meets the exact
 * scheduler's proven lower bound (portfolio inputs carry the search's
 * own verdicts). Computed after the measurement, outside set-up.
 */
double
provenRate(const Workload &w)
{
    uint64_t blocks = 0, proven = 0;
    NoneDescriptions none;
    for (const Input &in : w.inputs) {
        if (in.req.scheduler == service::SchedulerKind::Portfolio) {
            blocks += in.blocks;
            proven += in.proven;
            continue;
        }
        auto low = none.get(sourceOf(in.req));
        sched::Program program = programOf(in.req, *low);
        std::vector<sched::BlockSchedule> schedules =
            listFamilySchedules(in.req.scheduler, program, *low);
        exact::ExactScheduler search(*low);
        for (size_t b = 0; b < program.blocks.size(); ++b) {
            exact::ExactOptions opts;
            opts.max_nodes = kBoundProbeNodes;
            opts.time_budget_us = 0;
            opts.incumbent = &schedules[b];
            sched::SchedStats stats;
            exact::ExactResult r =
                search.scheduleBlock(program.blocks[b], stats, opts);
            ++blocks;
            proven += schedules[b].length <= r.lower_bound ? 1 : 0;
        }
    }
    return blocks ? double(proven) / double(blocks) : 0.0;
}

/** Everything one set-up builds; destroying it stops what it started. */
struct Setup
{
    Workload workload;
    std::unique_ptr<service::MdesService> service;
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<Target> target;
    std::string store_dir;
    bool ok = true;
};

/** Publish the paper machines' compiled descriptions into @p dir
 * through a store-backed service (the keys the shards will look up). */
void
warmStore(const std::string &dir)
{
    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.store_dir = dir;
    service::MdesService svc(cfg);
    std::vector<service::ScheduleRequest> keys;
    for (const char *m : kPaperMachines) {
        service::ScheduleRequest r;
        r.machine = m;
        r.synth_ops = 1;
        keys.push_back(r);
    }
    for (const auto &resp : svc.runBatch(keys))
        if (!resp.ok())
            throw MdesError("store warm-up failed: " + resp.error.message);
}

std::unique_ptr<Setup>
setUp(const std::string &name, uint64_t seed, const std::string &root,
      const std::string &mdesc, const std::string &workdir, int index)
{
    auto s = std::make_unique<Setup>();
    s->workload = makeWorkload(name, seed, root);
    Workload &w = s->workload;
    if (!w.fleet) {
        s->service = std::make_unique<service::MdesService>(w.service);
        // Portfolio answers are adopted from one run of every input;
        // otherwise one request per description fills the cache, unless
        // the keys outnumber it (compile_churn misses by design).
        std::vector<size_t> warm;
        std::map<service::DescriptionCache::Key, size_t> first;
        for (size_t i = 0; i < w.inputs.size(); ++i) {
            const service::ScheduleRequest &req = w.inputs[i].req;
            auto key = service::DescriptionCache::makeKey(
                sourceOf(req), req.transforms, req.bit_vector);
            if (req.scheduler == service::SchedulerKind::Portfolio ||
                first.emplace(key, i).second)
                warm.push_back(i);
        }
        if (first.size() > w.service.cache_capacity)
            warm.clear();
        std::vector<service::ScheduleRequest> reqs;
        for (size_t i : warm)
            reqs.push_back(w.inputs[i].req);
        std::vector<service::ScheduleResponse> resps =
            s->service->runBatch(std::move(reqs));
        for (size_t j = 0; j < resps.size(); ++j)
            s->ok &= warmCheck(w.inputs[warm[j]], resps[j]);
        s->target = std::make_unique<ServiceTarget>(*s->service);
        return s;
    }
    s->store_dir = workdir + "/store-" + std::to_string(index);
    fs::remove_all(s->store_dir);
    warmStore(s->store_dir);
    s->fleet = std::make_unique<Fleet>(
        mdesc, s->store_dir,
        workdir + "/fleet-" + std::to_string(index) + ".log");
    s->target = std::make_unique<SocketTarget>(s->fleet->port());
    // One fresh connection per input, so each routes by its own key and
    // every shard maps its artifacts before the measurement.
    for (const Input &in : w.inputs) {
        Reply r = s->target->open()->request(in);
        s->ok &= r.ok && r.fingerprint == in.fingerprint &&
                 r.cycles == in.cycles;
    }
    return s;
}

/**
 * The @p q-quantile of request latency, in milliseconds: the median, over
 * consecutive chunks of 1000 requests in completion order, of each
 * chunk's quantile (one chunk when the run has fewer). A p99 then always
 * has 10 samples beyond it, and a stall elsewhere on the machine inflates
 * one chunk's tail instead of the run's.
 */
double
chunkedQuantile(const LoopResult &r, double q)
{
    constexpr size_t kChunk = 1000;
    std::vector<std::pair<double, double>> by_time;
    for (size_t i = 0; i < r.done_s.size(); ++i)
        by_time.emplace_back(r.done_s[i], r.latency_ms[i]);
    std::sort(by_time.begin(), by_time.end());
    const size_t chunks = std::max<size_t>(1, by_time.size() / kChunk);
    const size_t per = by_time.size() / chunks;
    std::vector<double> per_chunk;
    for (size_t c = 0; c < chunks; ++c) {
        std::vector<double> lat;
        for (size_t i = c * per; i < (c + 1) * per; ++i)
            lat.push_back(by_time[i].second);
        per_chunk.push_back(quantile(std::move(lat), q));
    }
    return quantile(per_chunk, 0.5);
}

/**
 * CPU seconds used so far by this process plus the fleet's. The host
 * does not charge stolen time (a vCPU it has descheduled) to a process,
 * so this counts the work done, whatever share of the machine the
 * benchmark got.
 */
double
cpuSeconds(const Setup &s)
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    double sec = double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
    if (s.fleet) {
        sec += processCpuS(s.fleet->pid());
        for (pid_t c : childPids(s.fleet->pid()))
            sec += processCpuS(c);
    }
    return sec;
}

/** Resident-set peak of this process plus the fleet's, in MB. */
double
peakRssMb(const Setup &s)
{
    uint64_t kb = peakRssKb(getpid());
    if (s.fleet) {
        kb += peakRssKb(s.fleet->pid());
        for (pid_t c : childPids(s.fleet->pid()))
            kb += peakRssKb(c);
    }
    return double(kb) / 1024.0;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string root = ".";
    std::string mdesc;
    std::string workdir;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    auto number = [](const char *s, auto &out) {
        auto [end, ec] = std::from_chars(s, s + std::strlen(s), out);
        return ec == std::errc() && *end == '\0';
    };
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char *v = argv[i + 1];
        bool ok = true;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            ok = number(v, a.seed);
        else if (k == "--seconds")
            ok = number(v, a.seconds) && a.seconds > 0;
        else if (k == "--trace")
            ok = number(v, a.trace) && (a.trace == 0 || a.trace == 1);
        else if (k == "--root")
            a.root = v;
        else if (k == "--mdesc")
            a.mdesc = v;
        else if (k == "--workdir")
            a.workdir = v;
        else
            ok = false;
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad option %s %s\n", k.c_str(),
                         v);
            return false;
        }
    }
    if (argc % 2 == 0 || a.workload.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--root <dir>] "
                     "[--mdesc <path>] [--workdir <dir>]\n");
        return false;
    }
    if (a.workdir.empty())
        a.workdir = a.root + "/.bench_build/run-" + std::to_string(getpid());
    if (a.mdesc.empty())
        a.mdesc = "mdesc";
    return true;
}

int
runEndToEnd(const Args &a)
{
    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetups; ++i) {
        s.reset(); // stop the previous set-up's fleet before timing
        Clock::time_point t0 = Clock::now();
        s = setUp(a.workload, a.seed, a.root, a.mdesc, a.workdir, i);
        setup_s.push_back(secondsSince(t0));
        if (!s->ok)
            break;
    }
    const Workload &w = s->workload;
    // Heap and thread state settle during the first seconds of load (the
    // service ran 10-15% faster after them); only settled load is timed.
    LoopResult warm = closedLoop(*s->target, w, kWarmupS);
    const double cpu0 = cpuSeconds(*s);
    LoopResult r = closedLoop(*s->target, w, a.seconds);
    const double cpu_s = cpuSeconds(*s) - cpu0;
    const double rss_mb = peakRssMb(*s);
    const bool setup_ok = s->ok;

    uint64_t cycles = 0, ops = 0;
    for (const Input &in : w.inputs) {
        cycles += in.cycles;
        ops += in.ops;
    }
    if (r.latency_ms.size() < 1000)
        std::fprintf(stderr,
                     "perfbench: only %zu latency samples; p99 has fewer "
                     "than 10 beyond it\n",
                     r.latency_ms.size());
    std::vector<Metric> m = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"cpu_ms_per_req",
         r.attempted ? 1e3 * cpu_s / double(r.attempted) : 0.0, "ms"},
        {"latency_p50_ms", chunkedQuantile(r, 0.50), "ms"},
        {"latency_p99_ms", chunkedQuantile(r, 0.99), "ms"},
        {"success_rate",
         r.attempted ? 1.0 - double(r.failed) / double(r.attempted) : 0.0,
         "ratio"},
        {"cycles_per_op", ops ? double(cycles) / double(ops) : 0.0,
         "cycles/op"},
        {"proven_rate", provenRate(w), "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::fprintf(stderr,
                 "perfbench: %s seed=%llu: %llu requests in %.3f s "
                 "(%.1f/s wall-clock, %.3f CPU s), %llu failed, %zu latency "
                 "samples\n",
                 w.name.c_str(), (unsigned long long)a.seed,
                 (unsigned long long)r.attempted, r.elapsed_s,
                 double(r.attempted) / r.elapsed_s, cpu_s,
                 (unsigned long long)r.failed, r.latency_ms.size());
    const uint64_t failed = warm.failed + r.failed + (setup_ok ? 0 : 1);
    printResult(failed == 0, warm.attempted + r.attempted + w.inputs.size(),
                failed, m);
    return 0;
}

int
runTraceMode(const Args &a)
{
    std::unique_ptr<Setup> s =
        setUp(a.workload, a.seed, a.root, a.mdesc, a.workdir, 0);
    TraceContext ctx;
    ctx.workload = &s->workload;
    ctx.service = s->service.get();
    ctx.store_dir = s->store_dir;
    ctx.fleet_port = s->fleet ? s->fleet->port() : 0;
    ctx.workdir = a.workdir;
    ctx.seconds = a.seconds;
    TraceResult t = runTraced(ctx);
    const bool setup_ok = s->ok;
    const uint64_t warmed = s->workload.inputs.size();
    s.reset();
    std::printf("per-layer metrics below come from the traced run\n");
    printResult(setup_ok && t.failed == 0, t.attempted + warmed,
                t.failed + (setup_ok ? 0 : 1), t.metrics);
    return 0;
}

} // namespace

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string_view
sourceOf(const service::ScheduleRequest &req)
{
    if (!req.source.empty())
        return req.source;
    const machines::MachineInfo *m = machines::byName(req.machine);
    if (!m)
        throw MdesError("unknown machine '" + req.machine + "'");
    return m->source;
}

sched::Program
programOf(const service::ScheduleRequest &req, const lmdes::LowMdes &low)
{
    if (!req.sasm.empty())
        return workload::parseSasmOrThrow(req.sasm, low);
    workload::WorkloadSpec spec = machines::byName(req.machine)->workload;
    if (req.synth_ops)
        spec.num_ops = req.synth_ops;
    if (req.seed)
        spec.seed = req.seed;
    return workload::generate(spec, low);
}

Workload
makeWorkload(const std::string &name, uint64_t seed, const std::string &root)
{
    using service::SchedulerKind;
    Workload w;
    w.name = name;
    std::mt19937_64 rng(seed);
    w.service.num_workers = 2;
    w.service.cache_capacity = 16;

    // Every (size, paper machine, list or backward) triple, @p reps times
    // with fresh seeds.
    auto addListFamily = [&](const std::vector<size_t> &sizes, int reps,
                             bool verify) {
        for (int rep = 0; rep < reps; ++rep)
            for (size_t ops : sizes)
                for (const char *m : kPaperMachines)
                    for (SchedulerKind k :
                         {SchedulerKind::List, SchedulerKind::Backward}) {
                        Input in;
                        in.req = builtinRequest(m, k, ops, drawSeed(rng));
                        in.req.verify = verify;
                        w.inputs.push_back(std::move(in));
                    }
    };

    if (name == "sched_list") {
        addListFamily(kListOps, 1, /*verify=*/true);
    } else if (name == "sched_portfolio") {
        for (const char *m : kPaperMachines)
            for (int rep = 0; rep < kPortfolioSeeds; ++rep) {
                Input in;
                in.req = builtinRequest(m, SchedulerKind::Portfolio,
                                        kPortfolioOps, drawSeed(rng));
                in.req.exact_ms = 0;
                in.req.exact_nodes = kPortfolioNodes;
                in.req.verify = true;
                w.inputs.push_back(std::move(in));
            }
    } else if (name == "compile_churn") {
        // Every key misses: the key set is the built-in machines plus
        // the committed VLIW description, each under all 64 subsets of
        // the paper's six transforms with bit-vector packing on and off,
        // walked in a seeded order through a smaller LRU.
        // The committed VLIW description travels as inline source with a
        // seeded .sasm program of its own; the committed SuperSPARC
        // program is the .sasm workload of every SuperSPARC key.
        const std::string vliw =
            readFile(root + "/descriptions/blackbird_vliw.hmdes");
        const std::string dotproduct =
            readFile(root + "/descriptions/dotproduct.sasm");
        std::vector<const machines::MachineInfo *> sources =
            machines::all();
        sources.push_back(nullptr); // the inline VLIW description
        for (const machines::MachineInfo *m : sources)
            for (unsigned mask = 0; mask < 64; ++mask)
                for (bool bv : {true, false}) {
                    Input in;
                    if (m) {
                        in.req = builtinRequest(m->name, SchedulerKind::List,
                                                100, drawSeed(rng));
                        if (m->name == "SuperSPARC")
                            in.req.sasm = dotproduct;
                    } else {
                        in.req.source = vliw;
                        in.req.sasm = vliwProgram(rng, 100);
                    }
                    PipelineConfig &t = in.req.transforms;
                    t = PipelineConfig::none();
                    t.cse = mask & 1;
                    t.redundant_options = mask & 2;
                    t.time_shift = mask & 4;
                    t.sort_usages = mask & 8;
                    t.hoist = mask & 16;
                    t.sort_or_trees = mask & 32;
                    in.req.bit_vector = bv;
                    w.inputs.push_back(std::move(in));
                }
        w.service.cache_capacity = 64;
    } else if (name == "net_fleet") {
        addListFamily(kFleetOps, kFleetSeeds, /*verify=*/false);
        w.service.num_workers = 1;
        w.fleet = true;
        w.reconnect_every = 32;
    } else {
        throw MdesError("unknown workload '" + name + "'");
    }

    w.order.resize(w.inputs.size());
    for (uint32_t i = 0; i < w.order.size(); ++i)
        w.order[i] = i;
    shuffle(w.order, rng);
    computeOracle(w);
    return w;
}

} // namespace mdes::perfbench

int
main(int argc, char **argv)
{
    using namespace mdes::perfbench;
    Args a;
    if (!parseArgs(argc, argv, a))
        return 2;
    // A fleet connection reset must surface as a failed request, not
    // kill the benchmark.
    signal(SIGPIPE, SIG_IGN);
    std::filesystem::create_directories(a.workdir);
    int rc = 1;
    try {
        rc = a.trace ? runTraceMode(a) : runEndToEnd(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        rc = 1;
    }
    std::error_code ec;
    std::filesystem::remove_all(a.workdir, ec);
    return rc;
}

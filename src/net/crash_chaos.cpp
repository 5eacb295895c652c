#include "net/crash_chaos.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "service/request_parse.h"
#include "service/stats.h"
#include "support/diagnostics.h"
#include "support/flightrec.h"
#include "support/io_retry.h"
#include "support/json.h"

namespace mdes::net {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using service::ErrorCode;
using service::ScheduleRequest;
using service::StatSnapshot;

namespace {

constexpr const char *kHost = "127.0.0.1";
/** Bounded transport retries per request (each spaced ~100 ms, so a
 * request survives a full backoff-length outage). */
constexpr unsigned kRequestRetries = 30;

uint64_t
msSince(Clock::time_point t0)
{
    return uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        Clock::now() - t0)
                        .count());
}

void
sleepMs(uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Same distinct-transform-bits mix as the faultsim chaos sweep:
 * distinct artifact keys per request, identical schedule fingerprints
 * demanded from every pattern. */
std::vector<ScheduleRequest>
requestMix(const CrashChaosConfig &config)
{
    std::vector<ScheduleRequest> mix;
    mix.reserve(config.requests);
    for (unsigned i = 0; i < config.requests; ++i) {
        ScheduleRequest req;
        req.machine = config.machine;
        req.synth_ops = config.synth_ops;
        PipelineConfig t;
        t.cse = i & 1;
        t.redundant_options = i & 2;
        t.time_shift = i & 4;
        t.sort_usages = i & 8;
        t.hoist = i & 16;
        t.sort_or_trees = i & 32;
        req.transforms = t;
        req.bit_vector = true;
        mix.push_back(std::move(req));
    }
    return mix;
}

/**
 * One fleet-under-test: `runServe` in a forked child (the supervisor
 * becomes that child), bound port reported back over a pipe. The
 * destructor SIGKILLs and reaps whatever is still running, so a
 * violated seed never leaks a fleet into the next one.
 */
class FleetProc
{
  public:
    FleetProc() = default;
    ~FleetProc() { kill9(); }
    FleetProc(const FleetProc &) = delete;
    FleetProc &operator=(const FleetProc &) = delete;

    pid_t pid = -1;
    uint16_t port = 0;

    void
    kill9()
    {
        if (pid <= 0)
            return;
        ::kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        pid = -1;
    }

    /** Reap within @p timeout_ms; false (child untouched) on timeout. */
    bool
    waitExit(uint64_t timeout_ms, int *status)
    {
        if (pid <= 0)
            return false;
        auto t0 = Clock::now();
        for (;;) {
            pid_t r = waitpid(pid, status, WNOHANG);
            if (r == pid) {
                pid = -1;
                return true;
            }
            if (r < 0 && errno != EINTR) {
                pid = -1;
                return false;
            }
            if (msSince(t0) >= timeout_ms)
                return false;
            sleepMs(20);
        }
    }
};

/**
 * Fork a sharded fleet. The child calls runServe() with port 0 and
 * writes the bound port to a pipe (ServeOptions::port_notify_fd); the
 * parent blocks on that pipe so a fleet that fails to bind is a typed
 * launch failure, not a hang.
 */
bool
launchFleet(const CrashChaosConfig &config, const std::string &store_dir,
            const std::string &flight_dir, uint32_t quarantine_after,
            uint64_t backoff_base_ms, FleetProc *out, std::string *err)
{
    int pfd[2];
    if (pipe(pfd) != 0) {
        *err = std::string("pipe: ") + strerror(errno);
        return false;
    }
    pid_t pid = fork();
    if (pid < 0) {
        ::close(pfd[0]);
        ::close(pfd[1]);
        *err = std::string("fork: ") + strerror(errno);
        return false;
    }
    if (pid == 0) {
        ::close(pfd[0]);
        ServeOptions opts;
        opts.server.host = kHost;
        opts.server.port = 0;
        opts.server.service.num_workers = config.workers;
        opts.server.service.cache_capacity = config.requests + 4;
        opts.server.service.store_dir = store_dir;
        opts.shards = config.shards;
        opts.flightrec_dir = flight_dir;
        opts.drain_deadline_ms = config.drain_deadline_ms;
        opts.restart_backoff_base_ms = backoff_base_ms;
        opts.restart_backoff_max_ms = backoff_base_ms * 8;
        opts.quarantine_after = quarantine_after;
        opts.heartbeat_interval_ms = config.heartbeat_interval_ms;
        opts.heartbeat_timeout_ms = config.heartbeat_timeout_ms;
        opts.port_notify_fd = pfd[1];
        int code = 1;
        try {
            code = runServe(opts);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "crash-chaos fleet: %s\n", e.what());
        }
        _exit(code);
    }
    ::close(pfd[1]);
    // The port arrives once the listen socket is bound; 15 s covers
    // the slowest CI machine.
    pollfd pw{pfd[0], POLLIN, 0};
    int pr = ::poll(&pw, 1, 15000);
    unsigned char b[2];
    ssize_t n = pr > 0 ? io::readRetry(pfd[0], b, sizeof(b)) : 0;
    ::close(pfd[0]);
    if (n != 2) {
        *err = "fleet failed to report a bound port";
        ::kill(pid, SIGKILL);
        int status = 0;
        waitpid(pid, &status, 0);
        return false;
    }
    out->pid = pid;
    out->port = uint16_t(b[0]) | uint16_t(b[1]) << 8;
    return true;
}

/** One stats poll (fresh connection; the parent closes after
 * answering). Empty on transport failure or malformed document. */
std::optional<StatSnapshot>
pollStats(uint16_t port)
{
    BlockingClient client(kHost, port);
    if (!client.connected())
        return std::nullopt;
    std::string doc = client.stats();
    if (doc.empty())
        return std::nullopt;
    try {
        return service::parseStats(doc);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

const StatSnapshot::ShardRow *
findShard(const StatSnapshot &snap, uint64_t shard)
{
    for (const auto &row : snap.per_shard)
        if (row.shard == shard)
            return &row;
    return nullptr;
}

/** Poll until @p pred holds; returns the satisfying snapshot. */
std::optional<StatSnapshot>
waitSnap(uint16_t port, uint64_t timeout_ms,
         const std::function<bool(const StatSnapshot &)> &pred)
{
    auto t0 = Clock::now();
    for (;;) {
        if (auto snap = pollStats(port))
            if (pred(*snap))
                return snap;
        if (msSince(t0) >= timeout_ms)
            return std::nullopt;
        sleepMs(100);
    }
}

bool
allLive(const StatSnapshot &snap, unsigned shards)
{
    if (snap.per_shard.size() != shards)
        return false;
    for (const auto &row : snap.per_shard)
        if (row.state != "live" || row.pid <= 0)
            return false;
    return true;
}

/**
 * Push one request through the fleet with bounded retries. Returns
 * false (appending a violation) when the request never got a typed Ok.
 * @p expected_fp == 0 records the fingerprint into @p fp_out instead of
 * checking it (the seed's own fault-free first pass is the baseline).
 */
bool
sendOne(uint16_t port, const ScheduleRequest &req, uint64_t expected_fp,
        uint64_t *fp_out, const std::string &phase,
        std::vector<std::string> *violations)
{
    std::string line = service::renderRequestLine(req);
    NetResponse resp;
    bool answered = false;
    for (unsigned attempt = 0; attempt < kRequestRetries; ++attempt) {
        BlockingClient client(kHost, port);
        if (client.connected()) {
            resp = client.request(line);
            if (resp.transport_ok &&
                resp.code != ErrorCode::Overloaded) {
                answered = true;
                break;
            }
        }
        sleepMs(100);
    }
    if (!answered || resp.code != ErrorCode::Ok) {
        violations->push_back(
            phase + ": request '" + line + "' never completed Ok (" +
            (answered ? "code " + std::to_string(int(resp.code))
                      : "transport retries exhausted") +
            ")");
        return false;
    }
    if (expected_fp != 0 && resp.fingerprint != expected_fp) {
        violations->push_back(
            phase + ": fingerprint mismatch for '" + line + "' (got " +
            std::to_string(resp.fingerprint) + ", baseline " +
            std::to_string(expected_fp) + ")");
        return false;
    }
    if (fp_out)
        *fp_out = resp.fingerprint;
    return true;
}

/** The whole mix, sequentially, against @p baseline (filled when its
 * entries are zero). */
void
runMixPass(uint16_t port, const std::vector<ScheduleRequest> &mix,
           std::vector<uint64_t> *baseline, const std::string &phase,
           std::vector<std::string> *violations)
{
    for (size_t i = 0; i < mix.size(); ++i)
        sendOne(port, mix[i], (*baseline)[i], &(*baseline)[i], phase,
                violations);
}

/** Fleet health over the wire (binary Health frame); "" on failure. */
std::string
fleetHealth(uint16_t port)
{
    BlockingClient client(kHost, port);
    if (!client.connected())
        return "";
    return client.health();
}

std::string
healthField(const std::string &doc)
{
    try {
        JsonValue v = parseJson(doc);
        if (const JsonValue *h = v.find("health"))
            return h->string;
    } catch (const std::exception &) {
    }
    return "";
}

/** Post-drain store scan: quarantined or orphaned files are residue
 * the supervision plane promised to clean up. */
void
checkStoreClean(const std::string &store_dir,
                std::vector<std::string> *violations)
{
    uint64_t artifacts = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(store_dir, ec)) {
        const std::string name = de.path().filename().string();
        if (name.size() > 4 &&
            name.compare(name.size() - 4, 4, ".bad") == 0)
            violations->push_back("store: quarantined artifact '" +
                                  name + "' after drain");
        else if (name.rfind(".tmp-", 0) == 0)
            violations->push_back("store: orphaned publish temp '" +
                                  name + "' after drain");
        else if (name.size() > 6 &&
                 name.compare(name.size() - 6, 6, ".lmdes") == 0)
            ++artifacts;
    }
    if (ec)
        violations->push_back("store: cannot scan '" + store_dir +
                              "': " + ec.message());
    else if (artifacts == 0)
        violations->push_back(
            "store: no artifact survived the run (nothing persisted?)");
}

/** Every seed that SIGSEGVed a shard must find at least one decodable
 * ".mdcr" capture in the crash directory. */
uint64_t
checkCrashCaptures(const std::string &crash_dir, bool expect_some,
                   std::vector<std::string> *violations)
{
    uint64_t decodable = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(crash_dir, ec)) {
        const std::string path = de.path().string();
        if (path.size() < 5 ||
            path.compare(path.size() - 5, 5, ".mdcr") != 0)
            continue;
        try {
            flightrec::CrashInfo info;
            std::string json = flightrec::decodeCrashCapture(path, &info);
            if (!json.empty() && info.signo != 0)
                ++decodable;
            else
                violations->push_back("crash capture '" + path +
                                      "' decoded empty");
        } catch (const std::exception &e) {
            violations->push_back("crash capture '" + path +
                                  "' undecodable: " + e.what());
        }
    }
    if (expect_some && decodable == 0)
        violations->push_back(
            "SIGSEGV was delivered but no decodable .mdcr capture "
            "exists in " +
            crash_dir);
    return decodable;
}

/**
 * The drain invariant: K raw connections each write one complete
 * request, then the supervisor gets SIGTERM, then every connection
 * must still read a typed response — Ok (accepted before the flip) or
 * Draining (shed after it), never a bare EOF.
 */
void
checkDrain(FleetProc &fleet, const ScheduleRequest &req,
           uint64_t drain_deadline_ms,
           std::vector<std::string> *violations)
{
    constexpr unsigned kConns = 4;
    std::string line = service::renderRequestLine(req);
    struct Pending
    {
        int fd = -1;
        uint64_t id = 0;
    };
    std::vector<Pending> pending;
    for (unsigned k = 0; k < kConns; ++k) {
        int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            continue;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(fleet.port);
        inet_pton(AF_INET, kHost, &addr.sin_addr);
        if (connect(fd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0) {
            ::close(fd);
            continue;
        }
        Frame f;
        f.type = FrameType::Request;
        f.id = k + 1;
        f.payload = line;
        std::string wire = encodeFrame(f);
        size_t off = 0;
        bool sent = true;
        while (off < wire.size()) {
            ssize_t n = io::sendRetry(fd, wire.data() + off,
                                      wire.size() - off);
            if (n <= 0) {
                sent = false;
                break;
            }
            off += size_t(n);
        }
        if (!sent) {
            ::close(fd);
            continue;
        }
        pending.push_back({fd, f.id});
    }
    if (pending.empty()) {
        violations->push_back("drain: no connection could be opened");
        return;
    }

    ::kill(fleet.pid, SIGTERM);

    // Every fully-written request must be answered before the close.
    const uint64_t read_budget_ms = drain_deadline_ms + 10000;
    for (const Pending &p : pending) {
        FrameDecoder decoder;
        char buf[16384];
        auto t0 = Clock::now();
        bool answered = false;
        while (!answered) {
            Frame frame;
            FrameDecoder::Status st = decoder.next(&frame);
            if (st == FrameDecoder::Status::Error)
                break;
            if (st == FrameDecoder::Status::Ready) {
                if (frame.type != FrameType::Response ||
                    frame.id != p.id)
                    continue;
                try {
                    NetResponse r = parseResponseJson(frame.payload);
                    if (r.code != ErrorCode::Ok &&
                        r.code != ErrorCode::Draining)
                        violations->push_back(
                            "drain: request answered with unexpected "
                            "code " +
                            std::to_string(int(r.code)));
                } catch (const std::exception &) {
                    violations->push_back(
                        "drain: unparseable response payload");
                }
                answered = true;
                break;
            }
            uint64_t left =
                msSince(t0) >= read_budget_ms
                    ? 0
                    : read_budget_ms - msSince(t0);
            if (left == 0)
                break;
            pollfd pw{p.fd, POLLIN, 0};
            if (::poll(&pw, 1, int(left)) <= 0)
                break;
            ssize_t n = io::readRetry(p.fd, buf, sizeof(buf));
            if (n <= 0)
                break;
            decoder.feed(buf, size_t(n));
        }
        if (!answered)
            violations->push_back(
                "drain: a request written before SIGTERM got no "
                "response (lost in drain)");
        ::close(p.fd);
    }

    int status = 0;
    if (!fleet.waitExit(drain_deadline_ms + 15000, &status)) {
        violations->push_back(
            "drain: supervisor still running past the deadline");
        fleet.kill9();
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::ostringstream what;
        if (WIFSIGNALED(status))
            what << "killed by signal " << WTERMSIG(status);
        else
            what << "exit code " << WEXITSTATUS(status);
        violations->push_back("drain: supervisor exited unclean (" +
                              what.str() + ")");
    }
}

CrashSeedResult
runSeed(const CrashChaosConfig &config, uint64_t seed,
        const std::string &seed_dir)
{
    CrashSeedResult result;
    result.seed = seed;
    const std::string store_dir = seed_dir + "/store";
    const std::string flight_dir = seed_dir + "/flight";
    fs::create_directories(store_dir);

    FleetProc fleet;
    std::string err;
    if (!launchFleet(config, store_dir, flight_dir,
                     /*quarantine_after=*/10, config.backoff_base_ms,
                     &fleet, &err)) {
        result.violations.push_back("launch: " + err);
        return result;
    }

    std::vector<ScheduleRequest> mix = requestMix(config);
    std::vector<uint64_t> baseline(mix.size(), 0);
    std::mt19937_64 rng(seed);

    // Fault-free first pass: warms the store and records the
    // fingerprint baseline every later pass is checked against.
    runMixPass(fleet.port, mix, &baseline, "baseline",
               &result.violations);
    if (!result.violations.empty())
        return result;
    if (healthField(fleetHealth(fleet.port)) != "ready")
        result.violations.push_back(
            "health: fleet not 'ready' before faults");

    for (unsigned round = 0; round < config.kill_rounds; ++round) {
        const std::string phase = "round " + std::to_string(round);
        auto stable = waitSnap(fleet.port, 20000,
                               [&](const StatSnapshot &s) {
                                   return allLive(s, config.shards);
                               });
        if (!stable) {
            result.violations.push_back(
                phase + ": fleet never stabilized (all shards live)");
            return result;
        }
        const auto &rows = stable->per_shard;
        const auto &victim = rows[rng() % rows.size()];
        int sig = (rng() & 1) ? SIGSEGV : SIGKILL;
        if (sig == SIGSEGV)
            ++result.segvs;
        else
            ++result.kills;
        result.injected.push_back(
            std::string(sig == SIGSEGV ? "SIGSEGV" : "SIGKILL") +
            " shard " + std::to_string(victim.shard) + " pid " +
            std::to_string(victim.pid));
        auto t0 = Clock::now();
        ::kill(pid_t(victim.pid), sig);

        // Outage window: the fleet must answer while the slot is down,
        // and the respawn must not beat the backoff.
        uint64_t shard = victim.shard;
        int64_t old_pid = victim.pid;
        bool respawned = false;
        size_t probe = 0;
        while (msSince(t0) < 20000) {
            if (auto s = pollStats(fleet.port)) {
                const auto *row = findShard(*s, shard);
                if (row && row->pid > 0 && row->pid != old_pid &&
                    row->state == "live") {
                    respawned = true;
                    break;
                }
            }
            // One serving probe per poll tick: the outage must be
            // invisible to clients (live shards absorb the traffic).
            size_t i = probe++ % mix.size();
            sendOne(fleet.port, mix[i], baseline[i], nullptr,
                    phase + " (during outage)", &result.violations);
        }
        uint64_t elapsed = msSince(t0);
        if (!respawned) {
            result.violations.push_back(
                phase + ": shard " + std::to_string(shard) +
                " never respawned");
            return result;
        }
        if (elapsed + 5 < config.backoff_base_ms)
            result.violations.push_back(
                phase + ": shard " + std::to_string(shard) +
                " respawned after " + std::to_string(elapsed) +
                " ms, before the " +
                std::to_string(config.backoff_base_ms) +
                " ms base backoff");
        runMixPass(fleet.port, mix, &baseline, phase + " (recovered)",
                   &result.violations);
    }

    // Wedge: SIGSTOP a shard; the watchdog must count it wedged,
    // SIGKILL it, and respawn the slot — all while serving continues.
    {
        auto stable = waitSnap(fleet.port, 20000,
                               [&](const StatSnapshot &s) {
                                   return allLive(s, config.shards);
                               });
        if (!stable) {
            result.violations.push_back(
                "wedge: fleet never stabilized before SIGSTOP");
            return result;
        }
        const auto &rows = stable->per_shard;
        const auto &victim = rows[rng() % rows.size()];
        uint64_t shard = victim.shard;
        int64_t old_pid = victim.pid;
        uint64_t wedged_before = stable->supervision.wedged_shards;
        ++result.stops;
        result.injected.push_back("SIGSTOP shard " +
                                  std::to_string(shard) + " pid " +
                                  std::to_string(old_pid));
        ::kill(pid_t(old_pid), SIGSTOP);
        auto wedged = waitSnap(
            fleet.port, config.heartbeat_timeout_ms + 15000,
            [&](const StatSnapshot &s) {
                return s.supervision.wedged_shards > wedged_before;
            });
        if (!wedged) {
            result.violations.push_back(
                "wedge: watchdog never counted the stopped shard");
            ::kill(pid_t(old_pid), SIGCONT); // unwedge for teardown
            return result;
        }
        auto back = waitSnap(fleet.port, 20000,
                             [&](const StatSnapshot &s) {
                                 const auto *row = findShard(s, shard);
                                 return row && row->pid > 0 &&
                                        row->pid != old_pid &&
                                        row->state == "live";
                             });
        if (!back) {
            result.violations.push_back(
                "wedge: shard " + std::to_string(shard) +
                " never respawned after the watchdog kill");
            return result;
        }
        runMixPass(fleet.port, mix, &baseline, "wedge (recovered)",
                   &result.violations);
    }

    // Counter accounting, read before the drain tears the fleet down.
    if (auto snap = pollStats(fleet.port)) {
        const auto &sup = snap->supervision;
        result.restarts_observed = sup.restarts;
        result.crashes_observed = sup.crashes;
        result.wedged_observed = sup.wedged_shards;
        uint64_t injected_crashes = result.kills + result.segvs;
        if (sup.crashes < injected_crashes)
            result.violations.push_back(
                "counters: crashes=" + std::to_string(sup.crashes) +
                " < injected " + std::to_string(injected_crashes));
        if (sup.wedged_shards < result.stops)
            result.violations.push_back(
                "counters: wedged_shards=" +
                std::to_string(sup.wedged_shards) + " < injected " +
                std::to_string(result.stops));
        if (sup.restarts < injected_crashes + result.stops)
            result.violations.push_back(
                "counters: restarts=" + std::to_string(sup.restarts) +
                " < injected " +
                std::to_string(injected_crashes + result.stops));
    } else {
        result.violations.push_back(
            "counters: no stats answer before drain");
    }

    checkDrain(fleet, mix[0], config.drain_deadline_ms,
               &result.violations);
    checkStoreClean(store_dir, &result.violations);
    result.crash_captures = checkCrashCaptures(
        flight_dir + "/crash", result.segvs > 0, &result.violations);
    return result;
}

/**
 * The quarantine probe: with quarantine_after=2 and a short backoff,
 * kill one slot's shard on every respawn until the supervisor gives up
 * on it. Fleet health must then read "degraded" over the wire while
 * the surviving shards still answer, and a SIGTERM must still drain
 * cleanly around the dead slot.
 */
std::vector<std::string>
runQuarantineProbe(const CrashChaosConfig &config,
                   const std::string &probe_dir)
{
    std::vector<std::string> violations;
    const std::string store_dir = probe_dir + "/store";
    const std::string flight_dir = probe_dir + "/flight";
    fs::create_directories(store_dir);

    FleetProc fleet;
    std::string err;
    if (!launchFleet(config, store_dir, flight_dir,
                     /*quarantine_after=*/2, /*backoff_base_ms=*/100,
                     &fleet, &err)) {
        violations.push_back("quarantine launch: " + err);
        return violations;
    }
    auto stable = waitSnap(fleet.port, 20000,
                           [&](const StatSnapshot &s) {
                               return allLive(s, config.shards);
                           });
    if (!stable) {
        violations.push_back("quarantine: fleet never stabilized");
        return violations;
    }

    // Kill shard 0's pid every time a new one appears; two rapid
    // crashes in a row must quarantine the slot.
    int64_t last_killed = -1;
    auto t0 = Clock::now();
    bool quarantined = false;
    while (msSince(t0) < 30000) {
        auto snap = pollStats(fleet.port);
        if (!snap) {
            sleepMs(100);
            continue;
        }
        if (snap->supervision.quarantined >= 1) {
            quarantined = true;
            break;
        }
        const auto *row = findShard(*snap, 0);
        if (row && row->pid > 0 && row->pid != last_killed) {
            last_killed = row->pid;
            ::kill(pid_t(row->pid), SIGKILL);
        }
    }
    if (!quarantined) {
        violations.push_back(
            "quarantine: slot 0 was never quarantined despite "
            "repeated rapid kills");
        return violations;
    }

    std::string health = healthField(fleetHealth(fleet.port));
    if (health != "degraded")
        violations.push_back(
            "quarantine: fleet health is '" + health +
            "', expected 'degraded' with a quarantined slot");

    // The surviving shards keep serving.
    std::vector<ScheduleRequest> mix = requestMix(config);
    std::vector<uint64_t> baseline(mix.size(), 0);
    runMixPass(fleet.port, mix, &baseline, "quarantine (serving)",
               &violations);

    // And SIGTERM still drains cleanly around the dead slot.
    ::kill(fleet.pid, SIGTERM);
    int status = 0;
    if (!fleet.waitExit(config.drain_deadline_ms + 15000, &status)) {
        violations.push_back(
            "quarantine: supervisor still running past the drain "
            "deadline");
        fleet.kill9();
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        violations.push_back(
            "quarantine: supervisor exited unclean after drain");
    }
    return violations;
}

} // namespace

bool
CrashSweepReport::ok() const
{
    if (!quarantine_violations.empty())
        return false;
    for (const auto &s : seeds)
        if (!s.ok())
            return false;
    return true;
}

std::string
CrashSweepReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("sweep").value("crash-chaos");
    w.key("shards").value(uint64_t(config.shards));
    w.key("requests").value(uint64_t(config.requests));
    w.key("first_seed").value(config.first_seed);
    w.key("num_seeds").value(uint64_t(config.num_seeds));
    w.key("kill_rounds").value(uint64_t(config.kill_rounds));
    w.key("backoff_base_ms").value(config.backoff_base_ms);
    w.key("ok").value(ok());
    w.key("seeds").beginArray();
    for (const auto &s : seeds) {
        w.beginObject();
        w.key("seed").value(s.seed);
        w.key("ok").value(s.ok());
        w.key("kills").value(s.kills);
        w.key("segvs").value(s.segvs);
        w.key("stops").value(s.stops);
        w.key("restarts_observed").value(s.restarts_observed);
        w.key("crashes_observed").value(s.crashes_observed);
        w.key("wedged_observed").value(s.wedged_observed);
        w.key("crash_captures").value(s.crash_captures);
        w.key("injected").beginArray();
        for (const auto &line : s.injected)
            w.value(line);
        w.endArray();
        w.key("violations").beginArray();
        for (const auto &v : s.violations)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("quarantine_violations").beginArray();
    for (const auto &v : quarantine_violations)
        w.value(v);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
CrashSweepReport::toText() const
{
    std::ostringstream out;
    out << "crash-chaos sweep: " << config.num_seeds << " seeds, "
        << config.shards << " shards, " << config.kill_rounds
        << " kill rounds/seed\n";
    for (const auto &s : seeds) {
        out << "  seed " << s.seed << ": "
            << (s.ok() ? "ok" : "FAILED") << " (kills=" << s.kills
            << " segvs=" << s.segvs << " stops=" << s.stops
            << " restarts=" << s.restarts_observed
            << " wedged=" << s.wedged_observed
            << " captures=" << s.crash_captures << ")\n";
        for (const auto &v : s.violations)
            out << "    violation: " << v << "\n";
    }
    if (config.quarantine_probe) {
        out << "  quarantine probe: "
            << (quarantine_violations.empty() ? "ok" : "FAILED")
            << "\n";
        for (const auto &v : quarantine_violations)
            out << "    violation: " << v << "\n";
    }
    out << (ok() ? "crash-chaos sweep passed\n"
                 : "crash-chaos sweep FAILED\n");
    return out.str();
}

CrashSweepReport
runCrashSweep(const CrashChaosConfig &config)
{
    CrashSweepReport report;
    report.config = config;
    fs::create_directories(config.store_base_dir);
    for (unsigned i = 0; i < config.num_seeds; ++i) {
        uint64_t seed = config.first_seed + i;
        const std::string seed_dir =
            config.store_base_dir + "/seed-" + std::to_string(seed);
        std::error_code ec;
        fs::remove_all(seed_dir, ec);
        CrashSeedResult result = runSeed(config, seed, seed_dir);
        // A passing seed cleans up after itself; a failing one keeps
        // its store and crash captures for post-mortem (CI uploads).
        if (result.ok())
            fs::remove_all(seed_dir, ec);
        report.seeds.push_back(std::move(result));
    }
    if (config.quarantine_probe) {
        const std::string probe_dir =
            config.store_base_dir + "/quarantine-probe";
        std::error_code ec;
        fs::remove_all(probe_dir, ec);
        report.quarantine_violations =
            runQuarantineProbe(config, probe_dir);
        if (report.quarantine_violations.empty())
            fs::remove_all(probe_dir, ec);
    }
    return report;
}

} // namespace mdes::net

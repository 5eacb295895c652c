/**
 * @file
 * Socket serving tier throughput: sustained requests/sec through
 * `mdes::net` over loopback, and the shed-rate curve under deliberate
 * overload.
 *
 * Sustained: concurrent clients replay a warm-cache request mix over
 * persistent connections against a two-worker server. Every response's
 * schedule fingerprint must equal the in-process run of the same
 * request - the socket tier is a transport, never a second scheduler -
 * and nothing may shed. The JSON entry's fingerprint hashes the
 * in-process fingerprints of the mix, so the perf gate
 * (scripts/compare_perf.py) catches any behavior change riding in on a
 * throughput win.
 *
 * Overload: a burst of distinct-artifact requests against one worker
 * with a tiny admission queue and faultsim-stalled compiles. Every
 * burst request must come back typed - Ok or Overloaded, nothing else,
 * no hangs, no silent drops - and the shed rate must land in the
 * committed sanity band (the gate's "band" check): too low means the
 * queue bound is not biting, too high means the server starved
 * accepted work.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "perf_json.h"
#include "service/request_parse.h"
#include "service/service.h"
#include "support/faultsim.h"
#include "support/fnv.h"

namespace {

using namespace mdes;

/** The sustained mix: distinct machines, warm after one pass. */
std::vector<service::ScheduleRequest>
sustainedMix()
{
    std::vector<service::ScheduleRequest> mix;
    const char *names[] = {"K5", "Pentium", "PA7100", "SuperSPARC"};
    for (const char *name : names) {
        service::ScheduleRequest r;
        r.machine = name;
        r.synth_ops = 200;
        r.seed = 5;
        mix.push_back(r);
    }
    return mix;
}

/** Distinct-artifact burst (every compile is independent work). */
std::vector<service::ScheduleRequest>
overloadBurst(unsigned n)
{
    std::vector<service::ScheduleRequest> burst;
    for (unsigned i = 0; i < n; ++i) {
        service::ScheduleRequest req;
        req.machine = "K5";
        req.synth_ops = 100;
        req.transforms.cse = i & 1;
        req.transforms.redundant_options = i & 2;
        req.transforms.time_shift = i & 4;
        req.transforms.sort_usages = i & 8;
        req.transforms.hoist = i & 16;
        req.transforms.sort_or_trees = i & 32;
        burst.push_back(std::move(req));
    }
    return burst;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mdes;
    using namespace mdes::bench;

    std::string json_path = perfjson::stripJsonFlag(argc, argv);

    printHeader("net throughput",
                "loopback socket serving: sustained requests/sec and "
                "the shed-rate curve under overload");

    // --- Sustained: warm-cache serving over persistent connections ---

    std::vector<service::ScheduleRequest> mix = sustainedMix();
    std::vector<std::string> lines;
    for (const service::ScheduleRequest &r : mix)
        lines.push_back(service::renderRequestLine(r));

    // In-process ground truth (and the gate's behavior fingerprint).
    std::vector<uint64_t> want;
    {
        service::ServiceConfig cfg;
        cfg.num_workers = 2;
        service::MdesService local(cfg);
        for (const auto &resp : local.runBatch(mix)) {
            if (!resp.ok()) {
                std::fprintf(stderr, "in-process request failed: %s\n",
                             resp.error.message.c_str());
                return 1;
            }
            want.push_back(service::scheduleFingerprint(resp));
        }
    }
    uint64_t mix_fingerprint = fnv::kOffsetBasis;
    for (uint64_t f : want)
        fnv::mixU64(mix_fingerprint, f);

    constexpr unsigned kClients = 3;
    constexpr unsigned kRoundsPerClient = 24;

    net::ServerConfig sc;
    sc.service.num_workers = 2;
    sc.service.cache_capacity = 8;
    net::Server server(sc);
    server.start();

    // One untimed warm-up pass so the timed region measures serving.
    {
        net::BlockingClient warm("127.0.0.1", server.port());
        for (size_t i = 0; i < lines.size(); ++i)
            warm.request(lines[i]);
    }

    std::atomic<uint64_t> mismatches{0}, failures{0};
    auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kClients; ++c) {
            threads.emplace_back([&] {
                net::BlockingClient client("127.0.0.1", server.port());
                if (!client.connected()) {
                    ++failures;
                    return;
                }
                for (unsigned round = 0; round < kRoundsPerClient;
                     ++round) {
                    for (size_t i = 0; i < lines.size(); ++i) {
                        net::NetResponse r = client.request(lines[i]);
                        if (!r.ok())
                            ++failures;
                        else if (r.fingerprint != want[i])
                            ++mismatches;
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    server.stop();

    const uint64_t total = uint64_t(kClients) * kRoundsPerClient *
                           uint64_t(mix.size());
    service::ServiceMetrics sm = server.metrics();

    TextTable sustained;
    sustained.setHeader({"Clients", "Requests", "Wall ms", "Requests/s",
                         "Shed", "Frames in"});
    sustained.addRow({std::to_string(kClients), std::to_string(total),
                      TextTable::num(secs * 1e3, 1),
                      TextTable::num(double(total) / secs, 1),
                      std::to_string(sm.requests_shed),
                      std::to_string(sm.net.frames_in)});
    std::printf("%s", sustained.toString().c_str());

    if (failures || mismatches) {
        std::fprintf(stderr,
                     "FAIL: %llu failed request(s), %llu fingerprint "
                     "mismatch(es) vs in-process\n",
                     (unsigned long long)failures.load(),
                     (unsigned long long)mismatches.load());
        return 1;
    }
    if (sm.requests_shed != 0 || !sm.shedConsistent()) {
        std::fprintf(stderr, "FAIL: sustained run shed %llu request(s)\n",
                     (unsigned long long)sm.requests_shed);
        return 1;
    }
    std::printf("\nall %llu socket responses bit-identical to the "
                "in-process run; zero shed.\n",
                (unsigned long long)total);

    perfjson::record({"net/loopback/sustained", secs * 1e3 / total,
                      double(total) / secs, /*shed_rate=*/0.0,
                      mix_fingerprint});

    // --- Overload: the shed-rate curve under a stalled backend ---

    constexpr unsigned kBurst = 48;
    constexpr unsigned kBurstClients = 4;
    std::vector<service::ScheduleRequest> burst = overloadBurst(kBurst);

    faultsim::install(
        faultsim::Plan::parse("seed=17,cache/slow-compile=1:20000"));

    net::ServerConfig oc;
    oc.service.num_workers = 1;
    oc.service.cache_capacity = kBurst;
    oc.service.max_queue = 2;
    net::Server overloaded(oc);
    overloaded.start();

    std::atomic<uint64_t> ok{0}, shed{0}, other{0};
    auto b0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kBurstClients; ++c) {
            threads.emplace_back([&, c] {
                net::BlockingClient client("127.0.0.1",
                                           overloaded.port());
                if (!client.connected()) {
                    ++other;
                    return;
                }
                for (unsigned i = c; i < kBurst; i += kBurstClients) {
                    net::NetResponse r = client.request(
                        service::renderRequestLine(burst[i]));
                    if (!r.transport_ok)
                        ++other;
                    else if (r.code == service::ErrorCode::Ok)
                        ++ok;
                    else if (r.code == service::ErrorCode::Overloaded)
                        ++shed;
                    else
                        ++other;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    double burst_secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - b0)
                            .count();
    overloaded.stop();
    faultsim::uninstall();

    service::ServiceMetrics om = overloaded.metrics();
    double shed_rate = double(shed) / double(kBurst);

    TextTable shed_table;
    shed_table.setHeader(
        {"Burst", "Ok", "Shed", "Shed rate", "Other", "Wall ms"});
    shed_table.addRow({std::to_string(kBurst),
                       std::to_string(ok.load()),
                       std::to_string(shed.load()),
                       TextTable::percent(shed_rate),
                       std::to_string(other.load()),
                       TextTable::num(burst_secs * 1e3, 1)});
    std::printf("\n%s", shed_table.toString().c_str());

    if (ok + shed != kBurst || other != 0) {
        std::fprintf(stderr,
                     "FAIL: overload burst leaked untyped outcomes "
                     "(ok=%llu shed=%llu other=%llu of %u)\n",
                     (unsigned long long)ok.load(),
                     (unsigned long long)shed.load(),
                     (unsigned long long)other.load(), kBurst);
        return 1;
    }
    if (!om.shedConsistent() || om.net.shed != shed) {
        std::fprintf(stderr,
                     "FAIL: shed counters inconsistent (metrics %llu, "
                     "net %llu, observed %llu)\n",
                     (unsigned long long)om.requests_shed,
                     (unsigned long long)om.net.shed,
                     (unsigned long long)shed.load());
        return 1;
    }
    std::printf("\nevery burst request returned a typed outcome "
                "(Ok or Overloaded); shed counters consistent.\n");

    // The overload entry's fingerprint is pinned to 0: which requests
    // get shed is timing-dependent, so only the shed-rate band gates.
    perfjson::record({"net/loopback/overload",
                      burst_secs * 1e3 / kBurst,
                      double(kBurst) / burst_secs, shed_rate, 0});

    if (!json_path.empty() &&
        !perfjson::write(json_path, "net_throughput", "shed_rate")) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    return 0;
}

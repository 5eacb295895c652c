/**
 * @file
 * Cold-start cost of the two-tier compiled-description cache: the same
 * batch answered three ways,
 *
 *   cold        - empty store, empty memory: every request compiles
 *                 its description and publishes it to disk;
 *   disk-warm   - a fresh service (new process stand-in) against the
 *                 populated store: every request maps its artifact from
 *                 disk, nothing compiles, nothing deserializes;
 *   memory-warm - the same service again: every request is a memory
 *                 hit, the disk is not touched.
 *
 * The batch holds one request per (machine, transform-config) pair -
 * every request a distinct store key - so the serving invariants are
 * exact and asserted: on the disk-warm run the store hit count equals
 * the request count, every hit is a zero-copy mmap (mapped count ==
 * request count, full-deserialization count unchanged), the compile
 * count is zero, and schedules are byte-identical (equal fingerprints)
 * whether the description came from the compiler, the disk, or memory.
 * The disk-warm run, each time on a fresh service, and its memory-warm
 * run repeat kRepeats times, every invariant asserted on each: one run
 * lasts about a millisecond, so one pair's ratio swings with any brief
 * disturbance, and the gate reads the ratio of the medians instead.
 *
 * `--json <path>` writes the measurements for CI artifact upload; the
 * embedded "results" entry gates the disk-warm / memory-warm ratio of
 * median wall times through scripts/compare_perf.py's band rule.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "bench_util.h"
#include "lmdes/image.h"
#include "service/service.h"
#include "support/json.h"

int
main(int argc, char **argv)
{
    using namespace mdes;
    using namespace mdes::bench;
    namespace fs = std::filesystem;

    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_store_coldstart [--json <path>]\n");
            return 2;
        }
    }

    printHeader("store cold start",
                "request latency with the persistent description store: "
                "cold compile vs disk-warm vs memory-warm");

    fs::path dir = fs::temp_directory_path() /
                   ("mdes-store-coldstart-" +
                    std::to_string(uint64_t(::getpid())));
    fs::remove_all(dir);

    // One request per (machine, transform config): every line of the
    // batch is a distinct store key.
    auto makeBatch = [] {
        std::vector<service::ScheduleRequest> batch;
        std::vector<const machines::MachineInfo *> targets =
            machines::all();
        for (const auto *m : machines::extensions())
            targets.push_back(m);
        for (const auto *m : targets) {
            for (bool optimized : {true, false}) {
                service::ScheduleRequest req;
                req.machine = m->name;
                req.synth_ops = 300;
                req.transforms = optimized ? PipelineConfig::all()
                                           : PipelineConfig::none();
                batch.push_back(std::move(req));
            }
        }
        return batch;
    };
    const size_t kRequests = makeBatch().size();

    constexpr int kRepeats = 7;
    struct Scenario
    {
        std::string name;
        /** Each run's wall time; the counts are the last run's. */
        std::vector<double> runs_ms;
        double wall_ms = 0; // the median run
        uint64_t compiles = 0;
        uint64_t disk_hits = 0;
        uint64_t mapped_hits = 0;
        uint64_t memory_hits = 0;
        uint64_t full_deserializations = 0;
    };
    std::vector<Scenario> scenarios(3);
    scenarios[0].name = "cold";
    scenarios[1].name = "disk-warm";
    scenarios[2].name = "memory-warm";
    std::vector<uint64_t> baseline_fingerprints;
    bool ok = true;

    auto runScenario = [&](Scenario &s,
                           service::MdesService &svc) -> const Scenario & {
        const std::string &name = s.name;
        service::DescriptionCache::Stats before = svc.cache().stats();
        const uint64_t deser_before = lmdes::fullDeserializations();
        auto t0 = std::chrono::steady_clock::now();
        auto responses = svc.runBatch(makeBatch());
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        std::vector<uint64_t> fingerprints;
        for (const auto &r : responses) {
            if (!r.ok()) {
                std::fprintf(stderr, "%s: request failed: %s\n",
                             name.c_str(), r.error.message.c_str());
                ok = false;
            }
            fingerprints.push_back(service::scheduleFingerprint(r));
        }
        if (baseline_fingerprints.empty()) {
            baseline_fingerprints = fingerprints;
        } else if (fingerprints != baseline_fingerprints) {
            std::fprintf(stderr,
                         "FAIL: %s schedules differ from the cold run "
                         "(loaded artifact changed results)\n",
                         name.c_str());
            ok = false;
        }
        service::DescriptionCache::Stats after = svc.cache().stats();
        s.runs_ms.push_back(ms);
        std::vector<double> sorted = s.runs_ms;
        std::ranges::sort(sorted);
        s.wall_ms = sorted[sorted.size() / 2];
        s.compiles = after.compiles - before.compiles;
        s.disk_hits = after.disk_hits - before.disk_hits;
        s.mapped_hits = after.disk_mapped - before.disk_mapped;
        s.memory_hits = after.hits - before.hits;
        s.full_deserializations =
            lmdes::fullDeserializations() - deser_before;
        return s;
    };

    {
        service::MdesService svc({.num_workers = 4,
                                  .cache_capacity = 32,
                                  .store_dir = dir.string()});
        const Scenario &cold = runScenario(scenarios[0], svc);
        if (cold.compiles != kRequests) {
            std::fprintf(stderr,
                         "FAIL: cold run compiled %llu of %zu requests\n",
                         (unsigned long long)cold.compiles, kRequests);
            ok = false;
        }
    }
    for (int rep = 0; rep < kRepeats; ++rep) {
        // A fresh service instance: empty memory tier, warm disk tier -
        // the process-restart case the store exists for.
        service::MdesService svc({.num_workers = 4,
                                  .cache_capacity = 32,
                                  .store_dir = dir.string()});
        const Scenario &warm = runScenario(scenarios[1], svc);
        if (warm.compiles != 0 || warm.disk_hits != kRequests) {
            std::fprintf(stderr,
                         "FAIL: disk-warm run compiled %llu and hit the "
                         "store %llu times (want 0 and %zu)\n",
                         (unsigned long long)warm.compiles,
                         (unsigned long long)warm.disk_hits, kRequests);
            ok = false;
        }
        // The zero-copy contract: every disk hit is an mmap attach, and
        // no full payload deserialization happens anywhere in the run.
        if (warm.mapped_hits != kRequests) {
            std::fprintf(stderr,
                         "FAIL: disk-warm run mapped %llu of %zu store "
                         "hits (want every hit zero-copy)\n",
                         (unsigned long long)warm.mapped_hits, kRequests);
            ok = false;
        }
        if (warm.full_deserializations != 0) {
            std::fprintf(stderr,
                         "FAIL: disk-warm run fully deserialized %llu "
                         "artifacts (want 0: the mmap path must not "
                         "materialize payloads)\n",
                         (unsigned long long)warm.full_deserializations);
            ok = false;
        }
        const Scenario &mem = runScenario(scenarios[2], svc);
        if (mem.compiles != 0 || mem.disk_hits != 0 ||
            mem.memory_hits != kRequests) {
            std::fprintf(stderr,
                         "FAIL: memory-warm run: %llu compiles, %llu "
                         "disk hits, %llu memory hits (want 0/0/%zu)\n",
                         (unsigned long long)mem.compiles,
                         (unsigned long long)mem.disk_hits,
                         (unsigned long long)mem.memory_hits, kRequests);
            ok = false;
        }
    }

    TextTable table;
    table.setHeader({"Scenario", "Wall ms", "ms/request", "Compiles",
                     "Store hits", "Mapped", "Deserialized",
                     "Memory hits"});
    for (const auto &s : scenarios) {
        table.addRow({s.name, TextTable::num(s.wall_ms, 1),
                      TextTable::num(s.wall_ms / double(kRequests), 2),
                      std::to_string(s.compiles),
                      std::to_string(s.disk_hits),
                      std::to_string(s.mapped_hits),
                      std::to_string(s.full_deserializations),
                      std::to_string(s.memory_hits)});
    }
    std::printf("%s", table.toString().c_str());

    // The headline number: a disk-warm start should cost about the same
    // as a memory-warm one, because a mapped artifact is served in
    // place (page cache) instead of being parsed. compare_perf.py gates
    // this ratio inside a sanity band.
    const double disk_memory_ratio =
        scenarios[2].wall_ms > 0.0
            ? scenarios[1].wall_ms / scenarios[2].wall_ms
            : 0.0;
    std::printf("\n%zu requests, every one a distinct (machine, "
                "transform-config) store key; store dir %s\n",
                kRequests, dir.string().c_str());
    std::printf("disk-warm / memory-warm wall ratio (medians of %d "
                "runs): %.3f\n",
                kRepeats, disk_memory_ratio);
    if (ok)
        std::printf("disk-warm start avoided every recompilation and "
                    "every deserialization (store hits == mapped == "
                    "requests, compiles == 0); schedules identical "
                    "across all three tiers.\n");

    if (!json_path.empty()) {
        JsonWriter w;
        w.beginObject();
        w.key("bench").value("store_coldstart");
        w.key("requests").value(uint64_t(kRequests));
        w.key("ok").value(ok);
        w.key("disk_memory_ratio").value(disk_memory_ratio);
        w.key("scenarios").beginObject();
        for (const auto &s : scenarios) {
            w.key(s.name).beginObject();
            w.key("wall_ms").value(s.wall_ms);
            w.key("ms_per_request").value(s.wall_ms / double(kRequests));
            w.key("compiles").value(s.compiles);
            w.key("store_hits").value(s.disk_hits);
            w.key("mapped_hits").value(s.mapped_hits);
            w.key("full_deserializations").value(s.full_deserializations);
            w.key("memory_hits").value(s.memory_hits);
            w.endObject();
        }
        w.endObject();
        // A compare_perf.py-shaped entry so the ratio rides the same
        // perf gate as the checker and scheduler benches (band rule; no
        // fingerprint - schedule identity is asserted in-process above).
        w.key("results").beginArray();
        w.beginObject();
        w.key("name").value("store/coldstart/disk_vs_memory");
        w.key("wall_ms").value(scenarios[1].wall_ms);
        w.key("disk_memory_ratio").value(disk_memory_ratio);
        w.endObject();
        w.endArray();
        w.endObject();
        std::ofstream out(json_path, std::ios::trunc);
        out << w.str() << "\n";
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         json_path.c_str());
            ok = false;
        } else {
            std::printf("wrote %s\n", json_path.c_str());
        }
    }

    fs::remove_all(dir);
    printFootnote();
    return ok ? 0 : 1;
}

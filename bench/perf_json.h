#ifndef MDES_BENCH_PERF_JSON_H
#define MDES_BENCH_PERF_JSON_H

/**
 * @file
 * Machine-readable results for the perf benches.
 *
 * `bench_perf_checker --json BENCH_perf.json` (and the scheduler bench
 * alike) writes one JSON document with, per benchmark configuration,
 * the wall time, throughput, the paper's checks-per-work metrics, and a
 * behavior fingerprint that hashes the engine's *decisions* (schedules
 * or reservations), not its speed. CI diffs this file against the
 * committed baseline (scripts/compare_perf.py): fingerprints must match
 * bit-for-bit and checks-per-op must not regress.
 *
 * Wall time is measured here, around the whole benchmark loop, rather
 * than scraped from a google-benchmark reporter - the reporter API has
 * shifted across the library versions CI images carry, while a chrono
 * clamp around `for (auto _ : state)` works everywhere and matches the
 * console Time column to within noise.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mdes::bench::perfjson {

/** One benchmark configuration's results. */
struct Entry
{
    std::string name;
    /** Average wall time of one benchmark iteration. */
    double wall_ms = 0;
    /** Work items (attempts or ops) retired per second. */
    double items_per_sec = 0;
    /** RU-map probes per unit of work (the paper's cost metric):
     * checks/attempt for the checker bench, checks/op for the
     * scheduler bench. */
    double checks_per_item = 0;
    /** FNV-1a hash of the engine's decisions for this configuration. */
    uint64_t fingerprint = 0;
};

/** Result registry; re-recording a name overwrites (benchmark reruns
 * configurations while calibrating iteration counts - last run wins). */
inline std::vector<Entry> &
entries()
{
    static std::vector<Entry> v;
    return v;
}

inline void
record(Entry e)
{
    for (auto &old : entries()) {
        if (old.name == e.name) {
            old = std::move(e);
            return;
        }
    }
    entries().push_back(std::move(e));
}

/** Simple wall clock around the benchmark loop. */
class Stopwatch
{
  public:
    void
    start()
    {
        begin_ = std::chrono::steady_clock::now();
    }
    void
    stop()
    {
        total_ += std::chrono::steady_clock::now() - begin_;
        ++laps_;
    }
    double
    avgMs() const
    {
        if (laps_ == 0)
            return 0;
        return std::chrono::duration<double, std::milli>(total_).count() /
               double(laps_);
    }
    double
    totalSec() const
    {
        return std::chrono::duration<double>(total_).count();
    }

  private:
    std::chrono::steady_clock::time_point begin_{};
    std::chrono::steady_clock::duration total_{};
    uint64_t laps_ = 0;
};

/**
 * Strip `--json <path>` / `--json=<path>` from argv before
 * benchmark::Initialize sees it (the library rejects unknown flags).
 * Returns the path, or "" when the flag is absent.
 */
inline std::string
stripJsonFlag(int &argc, char **argv)
{
    std::string path;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return path;
}

/** Write the registry as a JSON document. Returns false on I/O error. */
inline bool
write(const std::string &path, const std::string &bench,
      const std::string &checks_metric)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 bench.c_str());
    for (size_t i = 0; i < entries().size(); ++i) {
        const Entry &e = entries()[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"wall_ms\": %.6f, "
                     "\"items_per_sec\": %.1f, \"%s\": %.4f, "
                     "\"fingerprint\": \"%llu\"}%s\n",
                     e.name.c_str(), e.wall_ms, e.items_per_sec,
                     checks_metric.c_str(), e.checks_per_item,
                     (unsigned long long)e.fingerprint,
                     i + 1 < entries().size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
}

} // namespace mdes::bench::perfjson

#endif // MDES_BENCH_PERF_JSON_H

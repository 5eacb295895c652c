#ifndef MDES_STORE_STORE_H
#define MDES_STORE_STORE_H

/**
 * @file
 * The persistent compiled-description store.
 *
 * The paper pays the MDES translation/optimization cost once so that
 * every later use is cheap — including "minimize the time required to
 * load the MDES into memory". The in-memory DescriptionCache realizes
 * that within one process; this store extends it across process
 * restarts: a content-addressed directory of serialized `LowMdes`
 * artifacts, layered under the memory cache to form a two-tier lookup
 * (memory → disk → compile).
 *
 * Layout (one directory, flat):
 *
 *   <key>.lmdes   the artifact: a self-describing store header (magic
 *                 "MDST", store format version, key, transform-config
 *                 fingerprint, creation metadata), zero-padded to a
 *                 64-byte boundary, followed by the LowMdes's own
 *                 position-independent LMDES v7 image (image.h),
 *                 followed by an 8-byte whole-file FNV-1a trailer. Its
 *                 mtime is the entry's last-access time: the publishing
 *                 write sets it and every hit touches it, which drives
 *                 LRU eviction
 *   <key>.bad     a quarantined artifact that failed to load (corrupt,
 *                 truncated, or mislabeled); kept for post-mortem,
 *                 replaced on the next publish. Artifacts that are merely
 *                 *stale* (written by another format version) are NOT
 *                 quarantined: they are silently removed and recompiled
 *                 (see StoreStats::stale_evicted)
 *
 * A load reads the whole file into one heap buffer, verifies the
 * trailer with one pass, and attaches the v7 image inside that buffer in
 * place (LowMdes::fromImage): nothing is parsed into pools, and the
 * returned LowMdes owns the buffer, so it serves exactly the bytes it
 * validated. prune() and quarantine() can unlink or rename a file, and
 * another writer can rewrite it, while readers hold descriptions loaded
 * from it. A publish writes the image the LowMdes already holds, so it
 * never lays one out again.
 *
 * where <key> is the 16-hex-digit content hash of (hmdes source,
 * transform config, bit-vector flag, representation) — the same key the
 * service's memory tier uses, so the tiers always agree on identity.
 *
 * Crash-safety protocol: publishes write to a `.tmp-` file in the store
 * directory and atomically rename(2) it over the final name, so readers
 * (including other processes) observe either nothing or a complete
 * artifact, never a torn write. A reader that still finds garbage — a
 * partial artifact from a crashed writer's tmp file is impossible, but
 * bit rot and truncation are not — treats it as a miss: the file is
 * quarantined, the description recompiled, and the slot republished.
 * Loading NEVER throws for bad on-disk state; only misconfiguration
 * (an uncreatable store directory) is an error.
 *
 * Concurrency: within a process the service's single-flight collapses
 * all lookups of one key into one disk probe/compile; across processes
 * the atomic rename makes concurrent publishes of the same key converge
 * on one winner (equal content either way). Counters are mutex-guarded;
 * filesystem operations run unlocked.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/transforms.h"
#include "exp/runner.h"
#include "lmdes/low_mdes.h"

namespace mdes::store {

/**
 * Fingerprint of everything besides the source that changes the
 * compiled artifact: every pipeline flag, the bit-vector choice, and
 * the representation. Stored in the artifact header so a cached file
 * can be audited against the config that produced it.
 */
uint64_t configFingerprint(const PipelineConfig &transforms,
                           bool bit_vector,
                           exp::Rep rep = exp::Rep::AndOrTree);

/**
 * Content-addressed artifact key: FNV-1a over the hmdes source bytes
 * folded with configFingerprint(). Equal inputs produce equal keys in
 * every process, which is what makes the disk tier shareable.
 */
uint64_t artifactKey(std::string_view source,
                     const PipelineConfig &transforms, bool bit_vector,
                     exp::Rep rep = exp::Rep::AndOrTree);

/** "<16 hex digits>.lmdes" — the artifact file name for @p key. */
std::string artifactFileName(uint64_t key);

/** "<16 hex digits>.bad" — the quarantine name for @p key. */
std::string quarantineFileName(uint64_t key);

/** Monotonic store counters. */
struct StoreStats
{
    uint64_t hits = 0;
    /** Always equal to hits. Kept only because perfbench's store.mapped
     * ratio reads it; delete it once perfbench stops reading it. */
    uint64_t mapped_hits = 0;
    uint64_t misses = 0;
    /** Loads that found a file but quarantined it (corrupt, truncated,
     * or mislabeled). Such loads also count as misses, so hits + misses
     * is always the total lookup count. */
    uint64_t corrupt = 0;
    /** Loads that found an artifact written by a different store/LMDES
     * format version: not damage, so it is silently removed (no .bad
     * residue, no corrupt count) and the caller recompiles. Also counts
     * as a miss. This is what makes a format upgrade a clean cache
     * flush instead of a mass quarantine. */
    uint64_t stale_evicted = 0;
    uint64_t stores = 0;
    uint64_t store_failures = 0;
    uint64_t evictions = 0;
    /** Backoff retries taken after transient I/O failures (loads and
     * publishes combined). */
    uint64_t retries = 0;
    /** Orphaned publish temp files (".tmp-*") removed at open or by
     * prune() — residue of a writer killed between temp-write and
     * rename (the supervision plane's kill -9 restarts make this a
     * routine occurrence, not a curiosity; DESIGN.md §15). */
    uint64_t residue_swept = 0;
};

/** One store entry as reported by list() / `mdesc store stat`. */
struct ArtifactInfo
{
    uint64_t key = 0;
    uint64_t bytes = 0;
    uint64_t config_fingerprint = 0;
    uint64_t created_unix = 0;
    std::string creator;
    std::string machine;
    /** Last access (the file's mtime) as a unix timestamp. */
    int64_t last_access_unix = 0;
    /** True for quarantined (.bad) entries. */
    bool quarantined = false;
    /** True when the artifact was written by an older store format and
     * will be silently evicted + recompiled on its next load. */
    bool stale = false;
};

/** What an eviction sweep did. */
struct PruneResult
{
    uint64_t scanned = 0;
    uint64_t removed = 0;
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
    /** Orphaned publish temp files removed by the sweep. */
    uint64_t residue_removed = 0;
};

/**
 * How transient I/O failures are retried: exponential backoff from
 * base_delay_us, capped at max_delay_us, with deterministic jitter
 * (derived from the artifact key) to de-correlate concurrent retriers.
 */
struct RetryPolicy
{
    /** Total tries per operation, first included. 1 = no retries. */
    uint32_t max_attempts = 3;
    uint32_t base_delay_us = 200;
    uint32_t max_delay_us = 20000;
};

/** Store construction parameters. */
struct StoreConfig
{
    /** Store directory (created on construction if absent). */
    std::string dir;
    /**
     * Size budget in bytes; every publish that pushes the store over
     * the budget triggers an LRU eviction sweep. 0 = unbounded (sweep
     * only via prune()).
     */
    uint64_t max_bytes = 0;
    /** Recorded in each artifact's creation metadata. */
    std::string creator = "mdes";
    /** Backoff schedule for transient I/O failures. */
    RetryPolicy retry{};
};

/** The persistent content-addressed artifact store. */
class ArtifactStore
{
  public:
    /** Open (creating if needed) the store directory; throws MdesError
     * when the directory cannot be created. */
    explicit ArtifactStore(StoreConfig config);

    const std::string &dir() const { return config_.dir; }

    /**
     * Tolerant lookup: the artifact for @p key, or nullptr on a miss.
     * A hit reads the file into a buffer the returned LowMdes owns and
     * attaches the trailer-verified image in place, so it keeps serving
     * the bytes it validated even if the entry is pruned, republished
     * or rewritten meanwhile. A file that exists but cannot be loaded —
     * corrupt, truncated, larger than any artifact the store writes, or
     * labeled with a different key — counts as a miss: it is
     * quarantined (renamed to .bad) so the caller recompiles and
     * republishes. A file written by a different format version is
     * *stale*, not corrupt: silently removed, counted under
     * stale_evicted, and likewise reported as a miss. A
     * transiently-unreadable file (an open, stat or read error, or a
     * read that ends early) is retried per the RetryPolicy, then
     * treated as a miss. Never throws
     * for bad on-disk state; only CancelledError escapes, when
     * @p cancel reports the caller gave up mid-retry. A hit touches the
     * artifact's mtime, its last-access time.
     */
    std::shared_ptr<const lmdes::LowMdes>
    load(uint64_t key, const std::function<bool()> &cancel = {});

    /**
     * Atomically publish @p low under @p key (temp file + rename).
     * Best-effort: transient failures are retried per the RetryPolicy;
     * returns false (and counts a store_failure) when every attempt
     * fails or @p cancel reports the caller gave up — the caller keeps
     * its in-memory artifact either way. Triggers an eviction sweep
     * when a max_bytes budget is configured.
     */
    bool store(uint64_t key, const lmdes::LowMdes &low,
               uint64_t config_fingerprint,
               const std::function<bool()> &cancel = {});

    /**
     * Evict least-recently-accessed artifacts (by mtime) until the store
     * holds at most @p max_bytes of artifacts. Every other keyed file,
     * quarantined ones included, is always removed, so only
     * <key>.lmdes files remain.
     */
    PruneResult prune(uint64_t max_bytes);

    /** Every artifact currently in the store (including quarantined
     * ones), unordered. */
    std::vector<ArtifactInfo> list() const;

    StoreStats stats() const;

  private:
    struct Header;

    /** What one load attempt observed (drives the retry decision).
     * Stale = written by another format version: evict silently and
     * recompile, never quarantine. */
    enum class LoadOutcome { Hit, Miss, Corrupt, Stale, TransientIo };

    std::string pathFor(const std::string &name) const;
    LoadOutcome loadOnce(uint64_t key,
                         std::shared_ptr<const lmdes::LowMdes> *out);
    /** Verify the trailer and parse a complete in-memory artifact
     * (header + padding + v7 image). The result borrows @p data, which
     * @p backing owns. */
    LoadOutcome parseArtifact(const char *data, size_t size, uint64_t key,
                              const std::shared_ptr<const void> &backing,
                              std::shared_ptr<const lmdes::LowMdes> *out);
    bool storeOnce(uint64_t key, const lmdes::LowMdes &low,
                   uint64_t config_fingerprint);
    /** Sleep the jittered exponential backoff before retry @p attempt;
     * throws CancelledError first when @p cancel says to give up. */
    void backoff(uint64_t key, uint32_t attempt,
                 const std::function<bool()> &cancel);
    void quarantine(uint64_t key);
    /** Remove orphaned ".tmp-*" publish files; returns count removed. */
    uint64_t sweepResidue();

    StoreConfig config_;
    mutable std::mutex mu_;
    StoreStats stats_;
};

} // namespace mdes::store

#endif // MDES_STORE_STORE_H

#ifndef MDES_SERVICE_CACHE_H
#define MDES_SERVICE_CACHE_H

/**
 * @file
 * The compiled-description cache.
 *
 * Compiling a high-level MDES and running the full transformation
 * pipeline costs milliseconds; a constraint query costs nanoseconds. A
 * service answering many scheduling requests against few machines must
 * therefore compile each description once and share the result. This
 * cache maps a content hash of (hmdes source, PipelineConfig, bit-vector
 * flag, representation) to an immutable `shared_ptr<const LowMdes>`:
 *
 *  - Bounded LRU: at most `capacity` compiled descriptions are retained;
 *    the least-recently-used entry is evicted first. Evicted artifacts
 *    stay alive for as long as in-flight requests hold the shared_ptr.
 *  - Concurrent-miss collapsing: the table stores shared_futures, so N
 *    threads missing on the same key trigger exactly one compilation and
 *    N-1 waiters. A failed compilation is not cached (the exception
 *    propagates to every waiter of that round, then the entry is
 *    dropped so a later request may retry). A *cancelled* compilation
 *    (the owner's deadline expired) fails only the owner: waiters
 *    re-run the lookup and one of them becomes the new owner.
 *  - Optional disk tier: with an attached store::ArtifactStore the
 *    lookup path becomes memory → disk → compile. The single-flight
 *    owner of a memory miss probes the disk store before compiling and
 *    publishes what it compiled, so one key costs at most one disk read
 *    or one compilation per process lifetime — and at most one
 *    compilation across process restarts. A corrupt or stale on-disk
 *    artifact is a disk miss (the store quarantines it), never an error.
 *  - Per-key circuit breaker: a key whose compile fails
 *    `BreakerPolicy::threshold` times in a row is quarantined — further
 *    misses fail fast with CircuitOpenError instead of burning a worker
 *    on a poisoned description — until a cooldown expires and one
 *    half-open trial is let through. Success closes the breaker.
 *  - Degraded artifacts (the compile fell back to the unoptimized
 *    lowering after a transform-pass fault) are served to the current
 *    round's waiters but never retained in memory or published to disk,
 *    so the next request retries the full pipeline.
 *
 * Thread-safety contract (see DESIGN.md §7): LowMdes is immutable after
 * lower()/load(), which is what makes sharing one artifact across
 * worker threads sound. The cache enforces const-ness in the type it
 * hands out.
 */

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/transforms.h"
#include "exp/runner.h"
#include "lmdes/low_mdes.h"
#include "store/store.h"
#include "support/diagnostics.h"

namespace mdes::service {

/** A shared, immutable compiled description. */
using CompiledMdes = std::shared_ptr<const lmdes::LowMdes>;

/** What a compile callback produces: the artifact plus whether the
 * graceful-degradation path was taken (unoptimized fallback). */
struct CompileResult
{
    CompiledMdes artifact;
    bool degraded = false;
};

/** Thrown by getOrCompile when a key's circuit breaker is open: the
 * description failed persistently and is quarantined until cooldown. */
class CircuitOpenError : public MdesError
{
  public:
    explicit CircuitOpenError(const std::string &what) : MdesError(what) {}
};

/** Per-key circuit-breaker tuning. */
struct BreakerPolicy
{
    /** Consecutive compile failures that open the breaker; 0 disables
     * breaking entirely. */
    uint32_t threshold = 0;
    /** How long an open breaker fails fast before admitting one
     * half-open trial compile. */
    uint32_t cooldown_ms = 10000;
};

/** Bounded LRU cache of compiled descriptions keyed by content hash. */
class DescriptionCache
{
  public:
    /** Content-hash key; equal inputs produce equal keys. */
    using Key = uint64_t;

    explicit DescriptionCache(size_t capacity = 16) : capacity_(capacity)
    {
    }

    /**
     * Key for compiling @p source under @p transforms with @p bit_vector
     * packing and representation @p rep. Delegates to
     * store::artifactKey so the memory and disk tiers agree on
     * identity.
     */
    static Key makeKey(std::string_view source,
                       const PipelineConfig &transforms, bool bit_vector,
                       exp::Rep rep = exp::Rep::AndOrTree);

    /**
     * Attach a persistent disk tier; lookups become
     * memory → disk → compile and successful compilations are
     * published back to the store. Call before the first lookup.
     */
    void attachStore(std::shared_ptr<store::ArtifactStore> disk_store);

    /** Set the per-key circuit-breaker policy (threshold 0 = off, the
     * default). Call before the first lookup. */
    void setBreakerPolicy(BreakerPolicy policy);

    /** Close every breaker and forget failure history (for tests and
     * operator intervention). */
    void resetBreakers();

    /** How one getOrCompile call was served. */
    struct Lookup
    {
        /** An existing entry was used (an entry still being compiled by
         * another thread counts: no new compilation was started). */
        bool hit = false;
        /** The artifact came from the disk tier. */
        bool disk = false;
        /** The artifact is the unoptimized degraded fallback. */
        bool degraded = false;
    };

    /**
     * Return the cached artifact for @p key, compiling it with
     * @p compile on a miss. Concurrent misses on one key run @p compile
     * once; everyone else blocks on the same future.
     * @p config_fingerprint is recorded in the published artifact's
     * header (see store::configFingerprint). @p cancel, when provided,
     * is consulted at blocking points (disk retry backoff; deciding
     * whether an owner's CancelledError is also ours). Exceptions from
     * @p compile propagate; CircuitOpenError is thrown on a miss whose
     * breaker is open.
     */
    CompiledMdes
    getOrCompile(Key key, const std::function<CompileResult()> &compile,
                 Lookup *lookup = nullptr, uint64_t config_fingerprint = 0,
                 const std::function<bool()> &cancel = {});

    /** Monotonic counters plus the current size. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        /** Compilations actually executed (misses minus collapsed
         * concurrent misses minus disk-tier hits minus failures). */
        uint64_t compiles = 0;
        size_t size = 0;
        size_t capacity = 0;

        /** True when a disk tier is attached; the disk_* counters
         * below are meaningful only then. */
        bool disk_enabled = false;
        /** Memory misses served by the disk tier. */
        uint64_t disk_hits = 0;
        /** Memory misses the disk tier could not serve (including
         * corrupt artifacts, counted again in disk_corrupt). */
        uint64_t disk_misses = 0;
        /** Compiled artifacts successfully published to the store. */
        uint64_t disk_stores = 0;
        /** Disk hits served zero-copy from an mmap of the artifact
         * (from the store's own counters; a subset of disk_hits). */
        uint64_t disk_mapped = 0;
        /** On-disk artifacts quarantined as corrupt (from the store's
         * own counters). */
        uint64_t disk_corrupt = 0;
        /** Old-format artifacts silently evicted and recompiled - not
         * corruption (from the store's own counters). */
        uint64_t disk_stale = 0;
        /** Artifacts evicted by the store's size-budget sweep. */
        uint64_t disk_evictions = 0;
        /** Transient-I/O backoff retries taken by the store. */
        uint64_t disk_retries = 0;

        /** Breakers opened (threshold reached). */
        uint64_t breaker_trips = 0;
        /** Lookups failed fast because a breaker was open. */
        uint64_t breaker_fast_fails = 0;
        /** Compiles that returned the degraded fallback. */
        uint64_t degraded_compiles = 0;

        double
        hitRate() const
        {
            uint64_t lookups = hits + misses;
            return lookups ? double(hits) / double(lookups) : 0.0;
        }

        double
        diskHitRate() const
        {
            uint64_t lookups = disk_hits + disk_misses;
            return lookups ? double(disk_hits) / double(lookups) : 0.0;
        }

        bool operator==(const Stats &) const = default;
    };

    Stats stats() const;

    /** Drop every in-memory entry (counters, breakers, and the disk
     * tier are preserved). */
    void clear();

  private:
    struct Entry
    {
        Key key;
        /** Distinguishes re-insertions of an evicted key so a failing
         * compile only removes its own entry. */
        uint64_t generation;
        std::shared_future<CompileResult> artifact;
    };

    /** Consecutive-failure tracking for one key. */
    struct BreakerState
    {
        uint32_t consecutive_failures = 0;
        bool open = false;
        /** steady_clock time (us since epoch) when an open breaker
         * admits its half-open trial. */
        int64_t open_until_us = 0;
    };

    /** Front = most recently used. */
    using LruList = std::list<Entry>;

    void touch(LruList::iterator it);
    /** Erase the (key, generation) entry if it is still current. */
    void eraseGeneration(Key key, uint64_t generation);
    void recordBreakerOutcome(Key key, bool success);

    mutable std::mutex mu_;
    size_t capacity_;
    LruList lru_;
    std::unordered_map<Key, LruList::iterator> index_;
    std::unordered_map<Key, BreakerState> breakers_;
    BreakerPolicy breaker_policy_;
    std::shared_ptr<store::ArtifactStore> store_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
    uint64_t compiles_ = 0;
    uint64_t disk_hits_ = 0;
    uint64_t disk_misses_ = 0;
    uint64_t disk_stores_ = 0;
    uint64_t breaker_trips_ = 0;
    uint64_t breaker_fast_fails_ = 0;
    uint64_t degraded_compiles_ = 0;
    uint64_t next_generation_ = 0;
};

} // namespace mdes::service

#endif // MDES_SERVICE_CACHE_H

#ifndef MDES_SUPPORT_FAULTSIM_H
#define MDES_SUPPORT_FAULTSIM_H

/**
 * @file
 * mdes::faultsim - seeded, deterministic fault injection for the
 * compile/store/serve stack.
 *
 * The service's robustness claims (bounded shedding, retry, circuit
 * breaking, graceful degradation, corrupt-artifact quarantine) are only
 * claims until adverse conditions can be manufactured on demand. This
 * layer plants named injection sites at every point where the real world
 * can fail - disk opens, reads, writes, renames; slow or throwing
 * compiles; allocation failure - and arms them from a seeded Plan so a
 * failing run can be replayed bit-for-bit.
 *
 * Like mdes::trace, the layer is compiled in but inert: with no plan
 * installed a probe costs one relaxed atomic load and a branch, and no
 * probe sits on the scheduler's hot loop (the paper's nanosecond
 * constraint-check path carries zero faultsim code).
 *
 * Determinism model: every decision is a pure function of
 * (plan seed, site, token, per-(site,token) hit index), where the token
 * is a caller-provided identity - the service stamps the request id via
 * TokenScope, exactly as trace::IdScope stamps trace ids. Because one
 * request's site hits happen in program order on one thread, replaying
 * the same seed against the same request stream reproduces the same
 * faults regardless of worker count or thread interleaving.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace mdes::faultsim {

/** Every named injection site, threaded through store, cache, and the
 * compile pipeline. Keep siteName() in sync. */
enum class Site : uint32_t {
    /** store::ArtifactStore::load - opening the artifact fails with a
     * transient I/O error (retried with backoff). */
    StoreOpenRead,
    /** store::ArtifactStore::load - the artifact reads short (truncated
     * payload: quarantined, recompiled). */
    StoreShortRead,
    /** store::ArtifactStore::load - one payload byte flips (bit rot:
     * checksum mismatch, quarantined, recompiled). */
    StoreCorruptByte,
    /** store::ArtifactStore::store - opening the temp file fails. */
    StoreOpenWrite,
    /** store::ArtifactStore::store - writing the artifact fails. */
    StoreWrite,
    /** store::ArtifactStore::store - flushing to stable storage fails. */
    StoreFsync,
    /** store::ArtifactStore::store - the atomic publish rename fails. */
    StoreRename,
    /** DescriptionCache waiter - wakes without its artifact being ready
     * and must re-check the table (bounded per lookup). */
    CacheSpuriousWake,
    /** DescriptionCache single-flight owner - the compile stalls for the
     * site's delay_us before starting. */
    CacheSlowCompile,
    /** runPipeline - a transform pass throws (triggers the graceful-
     * degradation path: serve the unoptimized lowering). */
    CompilePassThrow,
    /** compileSourceToLow - lowering hits allocation failure
     * (std::bad_alloc; a hard compile failure feeding the breaker). */
    CompileAllocFail,

    // Socket-I/O sites (mdes::net). Appended after the original sites so
    // existing seeds' Plan::fuzz draw sequences are unchanged. The
    // observable sites (accept-fail, peer-reset) are evaluated at
    // protocol events - once per accept, once per decoded request frame,
    // token = connection id - never per syscall, so replays with the same
    // connection stream see the same evaluation sequence. The
    // latency-shaping sites (short-read/short-write/stalled-write) may
    // evaluate per syscall; they alter timing, never outcomes.

    /** net::Server accept path - the freshly accepted connection is
     * closed immediately (counts as a reset; client retries). */
    NetAcceptFail,
    /** net::Connection read path - a read is truncated to one byte
     * (exercises incremental frame reassembly; no data loss). */
    NetShortRead,
    /** net::Connection write path - a write is truncated to one byte
     * (exercises partial-write resumption; no data loss). */
    NetShortWrite,
    /** net::Connection - the server resets the connection after decoding
     * a request frame (client sees EOF/ECONNRESET and retries). */
    NetPeerReset,
    /** net::Connection write path - the write stalls delay_us before
     * proceeding (exercises EPOLLOUT backpressure paths). */
    NetStalledWrite,
    /** Shard child supervision channel - a watchdog heartbeat reply is
     * dropped (the parent sees a silent shard and, past the deadline,
     * SIGKILLs and restarts it; DESIGN.md §15). Appended after the
     * socket-I/O sites so existing seeds replay unchanged. */
    NetHeartbeatDrop,
    /** ArtifactStore load path - the fstat/mmap of an artifact fails
     * transiently (exercises the retry-then-recompile path of the
     * zero-copy loader). Appended last so existing seeds replay
     * unchanged. */
    StoreMap,
    kNumSites
};

constexpr size_t kNumSites = size_t(Site::kNumSites);

/** Stable printable name, e.g. "store/rename". */
const char *siteName(Site site);

/** Reverse of siteName(); returns false for unknown names. */
bool siteFromName(std::string_view name, Site *out);

/** How one site misbehaves while a plan is installed. */
struct SiteSpec
{
    /** Chance each evaluation fires, in [0, 1]. */
    double probability = 0.0;
    /** Cap on fires per (site, token); 0 = unlimited. Per token - not
     * global - so the cap itself cannot introduce cross-request
     * nondeterminism. */
    uint32_t max_fires = 0;
    /** Stall length for delay sites (cache/slow-compile). */
    uint32_t delay_us = 0;
};

/**
 * A complete, replayable fault schedule: the seed plus one SiteSpec per
 * site. Install it with install(); the identical plan against the same
 * request stream produces the identical faults.
 */
struct Plan
{
    uint64_t seed = 0;
    std::array<SiteSpec, kNumSites> sites{};

    bool
    anyArmed() const
    {
        for (const auto &s : sites)
            if (s.probability > 0.0)
                return true;
        return false;
    }

    /**
     * Parse a spec string: whitespace/comma-separated tokens of the form
     * `seed=N` or `<site>=<probability>[:<delay_us>[:<max_fires>]]`,
     * e.g. "seed=7,store/rename=0.5,cache/slow-compile=1:2000".
     * Throws MdesError on a malformed token or unknown site.
     */
    static Plan parse(std::string_view spec);

    /** A seeded random plan for chaos sweeps: each site armed with ~60%
     * probability at a random rate; delays capped test-friendly. */
    static Plan fuzz(uint64_t seed);

    /** Render in parse() syntax (only armed sites are listed). */
    std::string toString() const;
};

/** Global arm flag (relaxed load; this is the whole disabled-mode
 * cost of a probe). */
extern std::atomic<bool> g_armed;

/** True while a plan is installed. */
inline bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

/** Install @p plan process-wide and reset per-token hit state and
 * counters; probes start firing immediately. */
void install(const Plan &plan);

/** Disarm every site (counters survive for inspection; a later
 * install() resets them). */
void uninstall();

/**
 * RAII scope binding the calling thread's fault token (the identity
 * that makes decisions interleaving-independent). The service stamps
 * the request id; 0 means "no token" and still decides
 * deterministically per global hit order of that site.
 */
class TokenScope
{
  public:
    explicit TokenScope(uint64_t token);
    ~TokenScope();

    TokenScope(const TokenScope &) = delete;
    TokenScope &operator=(const TokenScope &) = delete;

  private:
    uint64_t prev_;
};

/** The calling thread's current fault token (0 = none). */
uint64_t currentToken();

/** Outcome of one probe evaluation. */
struct FireInfo
{
    bool fired = false;
    /** Deterministic 64-bit value derived from the same draw; sites use
     * it for byte offsets / corruption masks. */
    uint64_t value = 0;
    /** The site's configured stall (delay sites). */
    uint32_t delay_us = 0;
};

/** Slow path: evaluate @p site under the installed plan (counts the
 * evaluation, decides deterministically, counts the fire). */
FireInfo evaluate(Site site);

/** The probe planted in product code: free when disarmed. */
inline FireInfo
probe(Site site)
{
    if (!armed())
        return {};
    return evaluate(site);
}

/** Probe @p site and throw MdesError("faultsim: <what>") when it
 * fires. */
void maybeThrow(Site site, const char *what);

/** Monotonic per-site telemetry (reset by install()). */
struct SiteCounters
{
    uint64_t evaluations = 0;
    uint64_t fires = 0;
};

/** Snapshot of every site's counters, indexed by Site. */
std::array<SiteCounters, kNumSites> counters();

} // namespace mdes::faultsim

#endif // MDES_SUPPORT_FAULTSIM_H

#ifndef MDES_SUPPORT_FLIGHTREC_H
#define MDES_SUPPORT_FLIGHTREC_H

/**
 * @file
 * mdes::flightrec - the span recorder behind mdes::trace.
 *
 * Every thread keeps a small fixed-size ring of its most recent span
 * events, recorded by trace::ScopedSpan even with tracing off, at a
 * cost of a few relaxed atomic stores per span. The ring remembers the
 * last ~4096 events per thread and silently overwrites older ones. It
 * is the only place a span is recorded:
 *
 *  - Traces. While trace::setEnabled(true) runs a trace, spans carry
 *    their counters and labels as arg records in the ring, and each
 *    thread moves a lap of its ring aside before overwriting it, so
 *    trace::spans() loses nothing (up to a per-thread cap it reports
 *    as "dropped").
 *  - Tail-based capture. When a request ends badly - typed error,
 *    breaker trip, deadline blown, or latency beyond a configurable
 *    threshold - the service asks the recorder to *spool* that trace
 *    id: every ring event carrying the id is gathered across threads
 *    and written to a bounded on-disk directory as a standalone Chrome
 *    trace-event JSON file. The directory is a size-capped FIFO -
 *    oldest spool files are deleted first and the total never exceeds
 *    the configured byte cap - so a misbehaving fleet cannot fill a
 *    disk.
 *  - Crash capture. A fatal-signal handler dumps the raw rings.
 *
 * One exporter, toChromeJson(), writes all three.
 *
 * Concurrency: each ring is written only by its owning thread (relaxed
 * stores into atomic slot fields, release store of the head counter);
 * a reader snapshots the head, copies the window, then re-reads the
 * head and discards any slot the writer may have lapped during the
 * copy. Torn events are therefore discarded, never reported, and the
 * scheme is clean under ThreadSanitizer without any lock on the record
 * path. setEnabled(false) reduces an untraced span to two relaxed
 * loads.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mdes::flightrec {

/** Slots per thread ring (power of two; ~128KiB per thread). */
inline constexpr size_t kRingSlots = 4096;

/** Counters and labels one traced span can carry; more are ignored. */
inline constexpr size_t kMaxArgs = 8;

/** Global runtime switch for untraced spans. On by default; a running
 * trace records whatever it says. */
extern std::atomic<bool> g_flightrec_enabled;

/** True when ring recording is active (relaxed load; hot-path safe). */
inline bool
enabled()
{
    return g_flightrec_enabled.load(std::memory_order_relaxed);
}

/** Turn ring recording on or off process-wide. */
void setEnabled(bool on);

/**
 * Cheapest available monotone timestamp, in unspecified "ticks" (TSC
 * cycles on x86-64, steady-clock nanoseconds elsewhere). Ring events
 * are stamped in ticks on the hot path - a vdso clock_gettime pair per
 * span would alone blow the recorder's <1% budget - and converted to
 * microseconds only when a trace is gathered, using a rate calibrated
 * against trace::nowUs() since process start.
 */
uint64_t nowTicks();

/** One span arg: a counter, or a label. Label text must outlive the
 * ring (ScopedSpan interns it). Trivial, so an unused arg array costs
 * nothing to construct. */
struct Arg
{
    const char *key;
    /** The counter's value (0 for a label). */
    uint64_t value;
    /** The label's text, or nullptr for a counter. */
    const char *text;
};

/**
 * Append one span to the calling thread's ring (wait-free). A span
 * that started while a trace ran is @p traced: its @p nargs args go
 * first, one record each, and trace::spans() returns it. Timestamps
 * are nowTicks() values; readers convert.
 */
void record(const char *name, uint64_t trace_id, uint64_t ts_ticks,
            uint64_t dur_ticks, bool traced = false,
            const Arg *args = nullptr, size_t nargs = 0);

/** One span copied out of a ring, on trace::nowUs()'s axis. */
struct Event
{
    const char *name = "";
    uint64_t trace_id = 0;
    uint64_t ts_us = 0;
    uint64_t dur_us = 0;
    uint32_t tid = 0;
    std::vector<Arg> args;
};

/** Every ring event stamped with @p trace_id, across all threads,
 * ordered by timestamp. Best-effort: events the writers lapped during
 * the copy are omitted, and events stamped before the recorder's
 * first use clamp to the calibration origin. */
std::vector<Event> eventsForTrace(uint64_t trace_id);

/** Total events ever pushed across all rings (monotone; for tests). */
uint64_t recordedCount();

// ---- Trace keeping (trace::setEnabled and trace::spans) -----------
//
// A thread that records a traced span copies each lap of its ring
// aside before overwriting it, until every traced record is kept.

/** Drop the kept records of every ring; keep each from its head on. */
void startKeeping();

/** Every traced span kept or still in a ring since startKeeping(),
 * ordered by timestamp. Adds the spans the per-thread cap lost to
 * @p dropped when given. */
std::vector<Event> keptSpans(uint64_t *dropped);

/** Render events as a standalone Chrome trace-event JSON document
 * ("ph":"X" complete events with their args; ts/dur in microseconds).
 * @p dropped reports spans the capture lost. */
std::string toChromeJson(const std::vector<Event> &events,
                         uint64_t trace_id, const char *reason,
                         uint64_t dropped = 0);

/** Disk spool configuration. Unarmed by default: the library never
 * writes to disk unless a tool arms a directory. */
struct SpoolConfig
{
    /** Directory for spool files (created if missing). */
    std::string dir;
    /** Byte cap for the whole directory (FIFO eviction; never
     * exceeded after a spool() returns). */
    uint64_t max_bytes = 8ull << 20;
    /** End-to-end request latency (µs) beyond which an otherwise
     * successful request is spooled. 0 disables the latency trigger;
     * errors always trigger. */
    uint64_t slow_us = 0;
};

/** Arm disk spooling. Scans @p config.dir for existing spool files so
 * the byte cap holds across restarts. Replaces any previous config. */
void armSpool(const SpoolConfig &config);

/** Disarm disk spooling (ring recording is unaffected). */
void disarmSpool();

/** True when a spool directory is armed. */
bool spoolArmed();

/** The armed latency trigger in µs (0 when unarmed or disabled). */
uint64_t slowThresholdUs();

/**
 * Gather @p trace_id's ring events and write them to the spool
 * directory as one Chrome-trace JSON file named
 * "NNNNNNNN-<reason>-<trace_id>.json", then evict oldest files until
 * the directory is back under its byte cap. Returns the path written,
 * or "" when unarmed, the trace has no buffered events, or the write
 * failed. Never throws.
 */
std::string spool(uint64_t trace_id, const char *reason);

/** Spool-side counters (monotone since arm; for tests and tables). */
struct SpoolStats
{
    uint64_t files_written = 0;
    uint64_t files_evicted = 0;
    uint64_t empty_skipped = 0;
    /** Bytes currently on disk under the armed directory. */
    uint64_t bytes = 0;
};

SpoolStats spoolStats();

// ---- Crash capture (DESIGN.md §15) --------------------------------
//
// The spool path above gathers/serializes under locks and allocates -
// none of which is legal inside a fatal-signal handler. Crash capture
// is its async-signal-safe sibling: a pre-registered, lock-free table
// of ring pointers lets a SIGSEGV/SIGBUS/SIGABRT handler dump every
// thread's raw ring (plus a minimal crash report) to one ".mdcr" file
// using only open/write/close, so every crash arrives with its last
// milliseconds of spans. The binary capture is decoded offline by
// `mdesc flight decode`.

/** Crash report decoded from a .mdcr capture header. */
struct CrashInfo
{
    int signo = 0;
    uint64_t pid = 0;
    uint64_t fault_addr = 0;
    uint64_t rings = 0;
    uint64_t events = 0;
};

/**
 * Arm the crash handler: SIGSEGV, SIGBUS and SIGABRT write
 * "<dir>/crash-<pid>-<signo>.mdcr" (raw ring snapshot + crash report)
 * and then re-raise with the default disposition, preserving the exit
 * status a supervisor observes. Handlers run on an alternate stack so
 * stack-overflow SIGSEGVs are captured too. Safe to call again after
 * fork() to point a child at its own directory. Returns false when
 * @p dir is empty/oversized or handler installation failed.
 */
bool armCrashCapture(const std::string &dir);

/**
 * Decode a .mdcr capture into a standalone Chrome trace-event JSON
 * document (the spool-file shape). Counters survive; labels are
 * dropped, since their text lived in the dead process. Fills @p info
 * when non-null. Throws MdesError on unreadable or malformed input.
 */
std::string decodeCrashCapture(const std::string &path,
                               CrashInfo *info = nullptr);

} // namespace mdes::flightrec

#endif // MDES_SUPPORT_FLIGHTREC_H

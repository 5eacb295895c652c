#include "support/flightrec.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <system_error>

#include "support/diagnostics.h"

#include "support/json.h"
#include "support/trace.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace mdes::flightrec {

std::atomic<bool> g_flightrec_enabled{true};

namespace {

namespace fs = std::filesystem;

static_assert((kRingSlots & (kRingSlots - 1)) == 0,
              "ring size must be a power of two");

/**
 * Ticks -> microseconds: an origin pair and the tick rate measured from
 * it to a later pair. Conversion only has to be *monotone* for ordering
 * to hold; absolute accuracy converges within milliseconds of the
 * origin.
 */
struct TickClock
{
    uint64_t ticks = 0;
    uint64_t us = 0;
    /** Ticks per microsecond. */
    double rate = 1;

    static TickClock
    between(uint64_t ticks0, uint64_t us0, uint64_t ticks1, uint64_t us1)
    {
        const uint64_t dus = us1 > us0 ? us1 - us0 : 1;
        const uint64_t dticks = ticks1 > ticks0 ? ticks1 - ticks0 : dus;
        return {ticks0, us0, double(dticks) / double(dus)};
    }

    /** Stamps before the origin clamp to it. */
    uint64_t
    toUs(uint64_t t) const
    {
        return t <= ticks ? us : us + uint64_t(double(t - ticks) / rate);
    }
};

/** The live origin, pinned when the first ring registers (long before
 * anything could be gathered). */
const TickClock &
tickOrigin()
{
    static const TickClock origin = [] {
        TickClock o;
        o.us = trace::nowUs();
        o.ticks = nowTicks();
        return o;
    }();
    return origin;
}

/** The live clock; its rate is re-derived at each gather from the
 * origin to now, so it improves as the process ages. */
TickClock
liveClock()
{
    const TickClock &o = tickOrigin();
    const uint64_t now_us = trace::nowUs();
    return TickClock::between(o.ticks, o.us, nowTicks(), now_us);
}

/**
 * One ring record. A span's record holds its name, trace id, start and
 * duration, whose top bit marks a traced span. Each of its args is one
 * record just before it: the key, the counter (or the label text's
 * address), and a mark in place of the start that no real timestamp
 * can reach.
 */
struct Record
{
    const char *name;
    uint64_t trace_id;
    uint64_t ts_ticks;
    uint64_t dur_ticks;
};

inline constexpr uint64_t kCounterMark = ~uint64_t(0);
inline constexpr uint64_t kLabelMark = ~uint64_t(0) - 1;
inline constexpr uint64_t kTraced = uint64_t(1) << 63;

/** Records a trace keeps per thread (64 MiB); laps past it are dropped
 * and counted. */
inline constexpr size_t kKeptRecords = size_t(1) << 21;

bool
isTracedSpan(const Record &r)
{
    return r.ts_ticks < kLabelMark && (r.dur_ticks & kTraced) != 0;
}

/**
 * Append the spans among one ring's @p records (in push order) that
 * @p keep accepts to @p out, each with the args recorded just before
 * it; labels only when @p labels is set.
 */
template <class Keep>
void
decode(const std::vector<Record> &records, uint32_t tid,
       const TickClock &clock, bool labels, Keep &&keep,
       std::vector<Event> &out)
{
    std::vector<Arg> args;
    for (const Record &r : records) {
        if (r.ts_ticks == kCounterMark) {
            args.push_back({r.name, r.trace_id, nullptr});
        } else if (r.ts_ticks == kLabelMark) {
            if (labels)
                args.push_back({r.name, 0,
                                reinterpret_cast<const char *>(
                                    uintptr_t(r.trace_id))});
        } else {
            if (r.name != nullptr && keep(r)) {
                Event e;
                e.name = r.name;
                e.trace_id = r.trace_id;
                e.ts_us = clock.toUs(r.ts_ticks);
                // Convert the end, not the duration: truncating both
                // could end a child 1 us after the parent it ends with.
                e.dur_us = clock.toUs(r.ts_ticks + (r.dur_ticks & ~kTraced)) -
                           e.ts_us;
                e.tid = tid;
                e.args = std::move(args);
                out.push_back(std::move(e));
            }
            args.clear();
        }
    }
}

void
sortByStart(std::vector<Event> &events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts_us < b.ts_us;
                     });
}

/** One ring slot. All fields are atomics so a concurrent reader is a
 * well-defined (if possibly torn) read; torn slots are discarded by the
 * head re-check in snapshot(). */
struct Slot
{
    std::atomic<const char *> name{nullptr};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> ts_ticks{0};
    std::atomic<uint64_t> dur_ticks{0};
};
static_assert(sizeof(Slot) == 32, "an untraced span fills one 32-byte slot");

struct Ring
{
    /** Events ever pushed; slot for event i is slots[i % kRingSlots].
     * Written only by the owning thread. */
    std::atomic<uint64_t> head{0};
    uint32_t tid = 0;
    std::array<Slot, kRingSlots> slots;

    /** Set by the owner when it records a traced span, cleared when it
     * keeps a lap. Only the owner touches it. */
    bool unkept = false;
    /** A trace's records, moved here by the owner before it overwrites
     * them. Guarded by kept_mu, which only the owner (once a lap),
     * startKeeping() and keptSpans() take. */
    std::mutex kept_mu;
    std::vector<Record> kept;
    /** Ring index the kept records reach. */
    uint64_t kept_upto = 0;
    /** Traced spans lost to kKeptRecords. */
    uint64_t dropped = 0;

    void
    push(const char *name, uint64_t trace_id, uint64_t ts_ticks,
         uint64_t dur_ticks)
    {
        const uint64_t h = head.load(std::memory_order_relaxed);
        // Pairs with the fence in snapshot(): a reader that sees any
        // store below also sees head >= h, so it knows the slot's
        // previous event is gone.
        std::atomic_thread_fence(std::memory_order_release);
        Slot &s = slots[h & (kRingSlots - 1)];
        s.name.store(name, std::memory_order_relaxed);
        s.trace_id.store(trace_id, std::memory_order_relaxed);
        s.ts_ticks.store(ts_ticks, std::memory_order_relaxed);
        s.dur_ticks.store(dur_ticks, std::memory_order_relaxed);
        // The next push starts overwriting this lap: keep it first if
        // it holds traced records, and before publishing, so a reader
        // finds each record either kept or in the live window.
        if (((h + 1) & (kRingSlots - 1)) == 0 && unkept) [[unlikely]]
            keepLap(h + 1);
        // Publish: a reader that observes head > h sees slot h's
        // fields (or a later overwrite it will discard).
        head.store(h + 1, std::memory_order_release);
    }

    /** Owner only, at the end of a lap (@p end is a multiple of
     * kRingSlots): keep events [kept_upto, end), or count their traced
     * spans as dropped past the cap. */
    __attribute__((noinline)) void
    keepLap(uint64_t end)
    {
        std::lock_guard<std::mutex> lock(kept_mu);
        std::vector<Record> lap;
        copy(std::max(kept_upto, end - kRingSlots), end, lap);
        if (kept.size() + lap.size() <= kKeptRecords) {
            kept.insert(kept.end(), lap.begin(), lap.end());
        } else {
            dropped += uint64_t(
                std::count_if(lap.begin(), lap.end(), isTracedSpan));
            // Args at the end of the kept records belong to a span
            // in this lap.
            while (!kept.empty() && kept.back().ts_ticks >= kLabelMark)
                kept.pop_back();
        }
        kept_upto = end;
        unkept = false;
    }

    /** Append the records of events [from, to) to @p out, unchecked. */
    void
    copy(uint64_t from, uint64_t to, std::vector<Record> &out) const
    {
        for (uint64_t i = from; i < to; ++i) {
            const Slot &s = slots[i & (kRingSlots - 1)];
            out.push_back({s.name.load(std::memory_order_relaxed),
                           s.trace_id.load(std::memory_order_relaxed),
                           s.ts_ticks.load(std::memory_order_relaxed),
                           s.dur_ticks.load(std::memory_order_relaxed)});
        }
    }

    /** Append the records of events [from, head) to @p out, minus any
     * the writer may have torn while they were copied. */
    void
    snapshot(uint64_t from, std::vector<Record> &out) const
    {
        const uint64_t h1 = head.load(std::memory_order_acquire);
        const uint64_t lo = std::min(
            h1, std::max(from, h1 > kRingSlots ? h1 - kRingSlots : 0));
        const size_t base = out.size();
        copy(lo, h1, out);
        // Anything the writer lapped while we copied may be torn:
        // keep only indices still inside the window at h2. push()
        // stores slot fields *before* publishing head = h2 + 1, so
        // while head still reads h2 the slot event h2 reuses (index
        // h2 - kRingSlots from the previous lap) may already be
        // mid-overwrite - discard that one too (the window is
        // effectively kRingSlots - 1 events deep).
        std::atomic_thread_fence(std::memory_order_acquire);
        const uint64_t h2 = head.load(std::memory_order_acquire);
        const uint64_t lo2 =
            h2 + 1 > kRingSlots ? h2 + 1 - kRingSlots : 0;
        if (lo2 > lo)
            out.erase(out.begin() + ptrdiff_t(base),
                      out.begin() + ptrdiff_t(base + std::min(lo2, h1) - lo));
    }
};

// ---- Crash-capture ring table -------------------------------------
//
// The Registry below guards its rings with a mutex, which a fatal-
// signal handler must never take. Rings are registered once and never
// freed, so a parallel lock-free table of raw pointers is safe for the
// handler to walk: registration publishes the pointer with a release
// store before bumping the count, and the handler loads the count with
// acquire. Capped; threads past the cap simply aren't captured.

inline constexpr size_t kMaxCrashRings = 256;
std::atomic<Ring *> g_crash_rings[kMaxCrashRings];
std::atomic<size_t> g_crash_ring_count{0};

void
publishCrashRing(Ring *ring)
{
    // Serialized by the Registry mutex; only the count's ordering
    // against the slot store matters for the signal-handler reader.
    const size_t idx = g_crash_ring_count.load(std::memory_order_relaxed);
    if (idx >= kMaxCrashRings)
        return;
    g_crash_rings[idx].store(ring, std::memory_order_release);
    g_crash_ring_count.store(idx + 1, std::memory_order_release);
}

/** Ring registry: one ring per thread, registered once, never removed,
 * so a gather never races a thread exit. */
struct Registry
{
    std::mutex mu;
    std::vector<std::unique_ptr<Ring>> rings;

    static Registry &
    instance()
    {
        static Registry registry;
        return registry;
    }
};

Ring &
registerLocalRing()
{
    // Pin the tick calibration origin at first registration, long
    // before anything could be gathered.
    (void)tickOrigin();
    auto owned = std::make_unique<Ring>();
    owned->tid = trace::threadId();
    Ring *raw = owned.get();
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.rings.push_back(std::move(owned));
    publishCrashRing(raw);
    return *raw;
}

/** The spans @p keep accepts among the records @p read takes from each
 * ring, across all threads, ordered by start. */
template <class Read, class Keep>
std::vector<Event>
gather(Read &&read, Keep &&keep)
{
    std::vector<Event> out;
    const TickClock clock = liveClock();
    std::vector<Record> records;
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto &ring : registry.rings) {
        records.clear();
        read(*ring, records);
        decode(records, ring->tid, clock, true, keep, out);
    }
    sortByStart(out);
    return out;
}

/** Disk spool: serialized under one mutex (spooling is the rare tail
 * path; contention here is a non-goal). */
class Spool
{
  public:
    static Spool &
    instance()
    {
        static Spool spool;
        return spool;
    }

    void
    arm(const SpoolConfig &config)
    {
        std::lock_guard<std::mutex> lock(mu_);
        config_ = config;
        armed_ = !config.dir.empty();
        stats_ = SpoolStats{};
        files_.clear();
        bytes_ = 0;
        if (!armed_)
            return;
        std::error_code ec;
        fs::create_directories(config_.dir, ec);
        // Adopt files from a previous run so the cap holds across
        // restarts; names sort oldest-first by construction.
        for (const auto &entry : fs::directory_iterator(config_.dir, ec)) {
            if (!entry.is_regular_file(ec) ||
                entry.path().extension() != ".json")
                continue;
            const uint64_t size = uint64_t(entry.file_size(ec));
            files_.push_back({entry.path().string(), size});
            bytes_ += size;
        }
        std::sort(files_.begin(), files_.end(),
                  [](const File &a, const File &b) {
                      return a.path < b.path;
                  });
        // Resume numbering after the adopted run: names lead with an
        // 8-digit sequence, and restarting at 1 would make new spools
        // sort before (or collide with and silently overwrite) the
        // adopted files, breaking oldest-first eviction and the cap
        // accounting.
        next_seq_ = 1;
        for (const File &f : files_) {
            const std::string base =
                fs::path(f.path).filename().string();
            uint64_t seq = 0;
            size_t i = 0;
            while (i < base.size() && i < 8 && base[i] >= '0' &&
                   base[i] <= '9')
                seq = seq * 10 + uint64_t(base[i++] - '0');
            if (i == 8)
                next_seq_ = std::max(next_seq_, seq + 1);
        }
        evictLocked();
        stats_.bytes = bytes_;
    }

    void
    disarm()
    {
        std::lock_guard<std::mutex> lock(mu_);
        armed_ = false;
        config_ = SpoolConfig{};
        files_.clear();
        bytes_ = 0;
    }

    bool
    armed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return armed_;
    }

    uint64_t
    slowUs() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return armed_ ? config_.slow_us : 0;
    }

    SpoolStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    std::string
    write(uint64_t trace_id, const char *reason)
    {
        std::vector<Event> events = eventsForTrace(trace_id);
        std::lock_guard<std::mutex> lock(mu_);
        if (!armed_)
            return "";
        if (events.empty()) {
            ++stats_.empty_skipped;
            return "";
        }
        const std::string doc = toChromeJson(events, trace_id, reason);
        char seq[16];
        std::snprintf(seq, sizeof seq, "%08llu",
                      (unsigned long long)next_seq_++);
        const std::string path = config_.dir + "/" + seq + "-" +
                                 sanitize(reason) + "-" +
                                 std::to_string(trace_id) + ".json";
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            if (!out) {
                return "";
            }
            out.write(doc.data(), std::streamsize(doc.size()));
            if (!out) {
                std::error_code ec;
                fs::remove(path, ec);
                return "";
            }
        }
        files_.push_back({path, doc.size()});
        bytes_ += doc.size();
        ++stats_.files_written;
        evictLocked();
        stats_.bytes = bytes_;
        // The new file itself may have been evicted if it alone
        // exceeds the cap; report "" so callers don't dangle a path.
        return bytes_ == 0 ? "" : path;
    }

  private:
    struct File
    {
        std::string path;
        uint64_t bytes = 0;
    };

    static std::string
    sanitize(const char *reason)
    {
        std::string s = reason != nullptr ? reason : "unknown";
        for (char &c : s) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '-';
            if (!ok)
                c = '-';
        }
        return s.empty() ? "unknown" : s;
    }

    void
    evictLocked()
    {
        while (bytes_ > config_.max_bytes && !files_.empty()) {
            const File oldest = files_.front();
            files_.pop_front();
            std::error_code ec;
            fs::remove(oldest.path, ec);
            bytes_ -= std::min(bytes_, oldest.bytes);
            ++stats_.files_evicted;
        }
    }

    mutable std::mutex mu_;
    SpoolConfig config_;
    bool armed_ = false;
    std::deque<File> files_;
    uint64_t bytes_ = 0;
    uint64_t next_seq_ = 1;
    SpoolStats stats_;
};

/** The calling thread's ring, as a plain TLS pointer so the record
 * hot path is one TLS load and a branch - no static-init guard. */
thread_local Ring *t_ring = nullptr;

} // namespace

void
setEnabled(bool on)
{
    g_flightrec_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
nowTicks()
{
#if defined(__x86_64__) || defined(_M_X64)
    return __rdtsc();
#else
    return uint64_t(std::chrono::steady_clock::now()
                        .time_since_epoch()
                        .count());
#endif
}

void
record(const char *name, uint64_t trace_id, uint64_t ts_ticks,
       uint64_t dur_ticks, bool traced, const Arg *args, size_t nargs)
{
    Ring *ring = t_ring;
    if (ring == nullptr)
        t_ring = ring = &registerLocalRing();
    if (!traced) {
        ring->push(name, trace_id, ts_ticks, dur_ticks);
        return;
    }
    // Set before the args and again after the span: either push may
    // end a lap, and the lap after it must be kept too.
    ring->unkept = true;
    for (size_t i = 0; i < nargs; ++i) {
        const Arg &a = args[i];
        if (a.text != nullptr)
            ring->push(a.key, uint64_t(uintptr_t(a.text)), kLabelMark, 0);
        else
            ring->push(a.key, a.value, kCounterMark, 0);
    }
    ring->push(name, trace_id, ts_ticks, dur_ticks | kTraced);
    ring->unkept = true;
}

std::vector<Event>
eventsForTrace(uint64_t trace_id)
{
    auto read = [](const Ring &ring, std::vector<Record> &out) {
        ring.snapshot(0, out);
    };
    return gather(read,
                  [&](const Record &r) { return r.trace_id == trace_id; });
}

uint64_t
recordedCount()
{
    uint64_t n = 0;
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto &ring : registry.rings)
        n += ring->head.load(std::memory_order_relaxed);
    return n;
}

void
startKeeping()
{
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto &ring : registry.rings) {
        std::lock_guard<std::mutex> kept_lock(ring->kept_mu);
        ring->kept.clear();
        ring->kept_upto = ring->head.load(std::memory_order_acquire);
        ring->dropped = 0;
    }
}

std::vector<Event>
keptSpans(uint64_t *dropped)
{
    auto read = [&](Ring &ring, std::vector<Record> &out) {
        std::lock_guard<std::mutex> lock(ring.kept_mu);
        out = ring.kept;
        ring.snapshot(ring.kept_upto, out);
        if (dropped != nullptr)
            *dropped += ring.dropped;
    };
    return gather(read, isTracedSpan);
}

std::string
toChromeJson(const std::vector<Event> &events, uint64_t trace_id,
             const char *reason, uint64_t dropped)
{
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("mdes::trace");
    w.key("trace_id").value(trace_id);
    w.key("reason").value(reason != nullptr ? reason : "unknown");
    w.key("spans").value(uint64_t(events.size()));
    w.key("dropped").value(dropped);
    w.endObject();
    w.key("traceEvents").beginArray();
    for (const Event &e : events) {
        w.beginObject();
        w.key("name").value(e.name);
        w.key("cat").value("mdes");
        w.key("ph").value("X");
        w.key("pid").value(uint64_t(1));
        w.key("tid").value(uint64_t(e.tid));
        w.key("ts").value(e.ts_us);
        w.key("dur").value(e.dur_us);
        w.key("args").beginObject();
        if (e.trace_id != 0)
            w.key("trace_id").value(e.trace_id);
        for (const Arg &a : e.args) {
            w.key(a.key);
            if (a.text != nullptr)
                w.value(a.text);
            else
                w.value(a.value);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
armSpool(const SpoolConfig &config)
{
    Spool::instance().arm(config);
}

void
disarmSpool()
{
    Spool::instance().disarm();
}

bool
spoolArmed()
{
    return Spool::instance().armed();
}

uint64_t
slowThresholdUs()
{
    return Spool::instance().slowUs();
}

std::string
spool(uint64_t trace_id, const char *reason)
{
    return Spool::instance().write(trace_id, reason);
}

SpoolStats
spoolStats()
{
    return Spool::instance().stats();
}

// ---- Crash capture ------------------------------------------------

namespace {

// On-disk .mdcr layout, host-endian (captures are decoded on the
// machine that wrote them). A fixed header, then ring_count rings of
// (CrashRingHeader + nrec CrashRecords). Timestamps stay in raw ticks;
// the header carries two (ticks, us) calibration points - the origin
// pinned at arm time and the crash instant - so the decoder can derive
// the tick rate without trusting the dying process to do math.
struct CrashFileHeader
{
    char magic[4]; // "MDCR"
    uint32_t version;
    uint32_t signo;
    uint32_t ring_count;
    uint64_t pid;
    uint64_t fault_addr;
    uint64_t origin_ticks;
    uint64_t origin_us;
    uint64_t crash_ticks;
    uint64_t crash_us;
};

struct CrashRingHeader
{
    uint32_t tid;
    uint32_t nrec;
};

struct CrashRecord
{
    char name[40]; // NUL-terminated span name, truncated
    uint64_t trace_id;
    uint64_t ts_ticks;
    uint64_t dur_ticks;
};

inline constexpr char kCrashMagic[4] = {'M', 'D', 'C', 'R'};
inline constexpr uint32_t kCrashVersion = 1;

// Handler state, all set before sigaction() installs anything. The
// directory is a plain char buffer: the handler may not touch
// std::string.
char g_crash_dir[3584];
uint64_t g_crash_origin_ticks = 0;
uint64_t g_crash_origin_us = 0;
alignas(16) char g_crash_stack[64 * 1024];

/** write() all of @p len, ignoring EINTR; best-effort. */
void
crashWrite(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        p += n;
        len -= size_t(n);
    }
}

/** Decimal-format @p v into @p out; returns digits written. */
size_t
crashFmtU64(char *out, uint64_t v)
{
    char tmp[20];
    size_t n = 0;
    do {
        tmp[n++] = char('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (size_t i = 0; i < n; ++i)
        out[i] = tmp[n - 1 - i];
    return n;
}

/** The fatal-signal handler. Restricted to async-signal-safe calls:
 * open/write/close/getpid/raise, atomic loads, and clock_gettime via
 * trace::nowUs() (whose statics armCrashCapture() pre-initialized). */
extern "C" void
crashCaptureHandler(int sig, siginfo_t *info, void *)
{
    // "<dir>/crash-<pid>-<signo>.mdcr"
    char path[4096];
    size_t off = 0;
    const size_t dirlen = ::strlen(g_crash_dir);
    ::memcpy(path, g_crash_dir, dirlen);
    off = dirlen;
    ::memcpy(path + off, "/crash-", 7);
    off += 7;
    off += crashFmtU64(path + off, uint64_t(::getpid()));
    path[off++] = '-';
    off += crashFmtU64(path + off, uint64_t(sig));
    ::memcpy(path + off, ".mdcr", 6);

    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        const size_t nrings = std::min(
            g_crash_ring_count.load(std::memory_order_acquire),
            kMaxCrashRings);
        CrashFileHeader h{};
        ::memcpy(h.magic, kCrashMagic, sizeof(kCrashMagic));
        h.version = kCrashVersion;
        h.signo = uint32_t(sig);
        h.ring_count = uint32_t(nrings);
        h.pid = uint64_t(::getpid());
        h.fault_addr =
            info != nullptr ? uint64_t(uintptr_t(info->si_addr)) : 0;
        h.origin_ticks = g_crash_origin_ticks;
        h.origin_us = g_crash_origin_us;
        h.crash_us = trace::nowUs();
        h.crash_ticks = nowTicks();
        crashWrite(fd, &h, sizeof h);

        for (size_t r = 0; r < nrings; ++r) {
            Ring *ring =
                g_crash_rings[r].load(std::memory_order_acquire);
            if (ring == nullptr)
                continue;
            // Other threads may still be pushing; their in-progress
            // slot can tear. Crash forensics tolerates one garbled
            // event per surviving thread.
            const uint64_t head =
                ring->head.load(std::memory_order_acquire);
            const uint64_t lo =
                head > kRingSlots ? head - kRingSlots : 0;
            CrashRingHeader rh{ring->tid, uint32_t(head - lo)};
            crashWrite(fd, &rh, sizeof rh);
            CrashRecord batch[64];
            size_t filled = 0;
            for (uint64_t i = lo; i < head; ++i) {
                const Slot &s = ring->slots[i & (kRingSlots - 1)];
                CrashRecord &rec = batch[filled];
                ::memset(rec.name, 0, sizeof rec.name);
                const char *name =
                    s.name.load(std::memory_order_relaxed);
                if (name != nullptr) {
                    // Span names and arg keys are string literals in
                    // this process; copy by hand (strncpy is not on the
                    // safe list).
                    size_t k = 0;
                    while (k < sizeof(rec.name) - 1 && name[k] != '\0') {
                        rec.name[k] = name[k];
                        ++k;
                    }
                }
                rec.trace_id =
                    s.trace_id.load(std::memory_order_relaxed);
                rec.ts_ticks =
                    s.ts_ticks.load(std::memory_order_relaxed);
                rec.dur_ticks =
                    s.dur_ticks.load(std::memory_order_relaxed);
                if (++filled == sizeof(batch) / sizeof(batch[0])) {
                    crashWrite(fd, batch, sizeof batch);
                    filled = 0;
                }
            }
            if (filled > 0)
                crashWrite(fd, batch, filled * sizeof(CrashRecord));
        }
        ::close(fd);
    }

    // SA_RESETHAND restored the default disposition on entry; re-raise
    // so the process dies with the real signal (status, cores intact).
    ::raise(sig);
}

} // namespace

bool
armCrashCapture(const std::string &dir)
{
    if (dir.empty() || dir.size() >= sizeof(g_crash_dir) - 1)
        return false;
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::memcpy(g_crash_dir, dir.c_str(), dir.size() + 1);
    // Pre-initialize every static the handler touches while it is
    // still legal to take locks: the tick origin pair and the
    // trace-clock epoch inside trace::nowUs().
    const TickClock &origin = tickOrigin();
    g_crash_origin_ticks = origin.ticks;
    g_crash_origin_us = origin.us;

    stack_t ss{};
    ss.ss_sp = g_crash_stack;
    ss.ss_size = sizeof g_crash_stack;
    if (sigaltstack(&ss, nullptr) != 0)
        return false;

    struct sigaction sa{};
    sa.sa_sigaction = crashCaptureHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESETHAND | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGSEGV, SIGBUS, SIGABRT}) {
        if (sigaction(sig, &sa, nullptr) != 0)
            return false;
    }
    return true;
}

std::string
decodeCrashCapture(const std::string &path, CrashInfo *info)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw MdesError("flightrec: cannot open crash capture '" + path +
                        "'");
    std::string raw((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    if (raw.size() < sizeof(CrashFileHeader))
        throw MdesError("flightrec: truncated crash capture '" + path +
                        "'");
    CrashFileHeader h;
    std::memcpy(&h, raw.data(), sizeof h);
    if (std::memcmp(h.magic, kCrashMagic, sizeof(kCrashMagic)) != 0)
        throw MdesError("flightrec: bad crash-capture magic in '" + path +
                        "'");
    if (h.version != kCrashVersion)
        throw MdesError("flightrec: unsupported crash-capture version " +
                        std::to_string(h.version));

    // Tick rate from the two calibration points the handler recorded.
    const TickClock clock = TickClock::between(h.origin_ticks, h.origin_us,
                                               h.crash_ticks, h.crash_us);
    std::deque<std::string> names; // stable storage behind Record.name
    std::vector<Event> events;
    std::vector<Record> records;
    size_t off = sizeof h;
    for (uint32_t r = 0; r < h.ring_count; ++r) {
        if (off + sizeof(CrashRingHeader) > raw.size())
            throw MdesError("flightrec: truncated ring header in '" +
                            path + "'");
        CrashRingHeader rh;
        std::memcpy(&rh, raw.data() + off, sizeof rh);
        off += sizeof rh;
        if (rh.nrec > kRingSlots)
            throw MdesError("flightrec: implausible ring length in '" +
                            path + "'");
        records.clear();
        for (uint32_t i = 0; i < rh.nrec; ++i) {
            if (off + sizeof(CrashRecord) > raw.size())
                throw MdesError("flightrec: truncated record in '" +
                                path + "'");
            CrashRecord rec;
            std::memcpy(&rec, raw.data() + off, sizeof rec);
            off += sizeof rec;
            rec.name[sizeof(rec.name) - 1] = '\0';
            // An empty name is a never-written or torn slot.
            const char *name = nullptr;
            if (rec.name[0] != '\0')
                name = names.emplace_back(rec.name).c_str();
            records.push_back(
                {name, rec.trace_id, rec.ts_ticks, rec.dur_ticks});
        }
        decode(records, rh.tid, clock, false,
               [](const Record &) { return true; }, events);
    }
    sortByStart(events);

    if (info != nullptr) {
        info->signo = int(h.signo);
        info->pid = h.pid;
        info->fault_addr = h.fault_addr;
        info->rings = h.ring_count;
        info->events = events.size();
    }
    const char *reason = h.signo == SIGSEGV  ? "crash-sigsegv"
                         : h.signo == SIGBUS ? "crash-sigbus"
                         : h.signo == SIGABRT
                             ? "crash-sigabrt"
                             : "crash";
    return toChromeJson(events, 0, reason);
}

} // namespace mdes::flightrec

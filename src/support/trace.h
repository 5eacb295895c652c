#ifndef MDES_SUPPORT_TRACE_H
#define MDES_SUPPORT_TRACE_H

/**
 * @file
 * mdes::trace - low-overhead, end-to-end tracing for the compile/store/
 * schedule stack.
 *
 * The paper's argument is quantitative: every transformation is justified
 * by how many options, usages, and checks it eliminates. This layer makes
 * those quantities observable *per request* instead of per offline
 * benchmark run:
 *
 *  - Spans: RAII-timed regions (TRACE_SPAN) recorded into the calling
 *    thread's flight-recorder ring (support/flightrec.h), the only span
 *    sink. While a trace runs they also carry counters and labels.
 *  - Trace ids: a thread-local current id (IdScope) stamps every span
 *    recorded while a request is being processed, so one slow request is
 *    attributable across cache, store, compile, and scheduler tiers.
 *  - Traces: setEnabled(true) starts one, spans() returns it, and
 *    flightrec::toChromeJson() exports it in the Chrome trace-event JSON
 *    format ("ph":"X" complete events), loadable in chrome://tracing or
 *    Perfetto.
 *
 * Overhead budget (asserted by bench_trace_overhead): with no trace
 * running, a span costs two relaxed atomic loads, two TSC reads and one
 * ring slot; the schedulers' probe hooks test a plain flag. The
 * scheduler hot loop must stay within 1% of its cost before any trace
 * ran, and within 1% of its cost with the recorder off.
 */

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/flightrec.h"

namespace mdes::trace {

/** Global runtime switch. Off by default; flipped by setEnabled(). */
extern std::atomic<bool> g_trace_enabled;

/** True while a trace runs (relaxed load; hot-path safe). */
inline bool
enabled()
{
    return g_trace_enabled.load(std::memory_order_relaxed);
}

/** Start (true) or stop (false) a trace. Starting drops the previous
 * trace. While one runs, spans carry their counters and labels and the
 * schedulers' probe hooks fill. */
void setEnabled(bool on);

/**
 * Every span that started while the last trace ran (up to now, while
 * it still runs), across all threads, ordered by start. Spans still
 * open are not included. Adds the spans lost to the per-thread cap to
 * @p dropped when given.
 */
std::vector<flightrec::Event> spans(uint64_t *dropped = nullptr);

/** Monotonic microseconds since the process's first trace query. */
uint64_t nowUs();

/** Small dense id of the calling thread (stable for its lifetime). */
uint32_t threadId();

/** The thread-local trace id stamped on recorded spans (0 = none). */
uint64_t currentTraceId();

/** RAII scope setting the calling thread's trace id (restores on exit).
 * Spans a request's worker thread records - including compile passes run
 * on behalf of other requests collapsed into this single-flight - carry
 * this id. */
class IdScope
{
  public:
    explicit IdScope(uint64_t id);
    ~IdScope();

    IdScope(const IdScope &) = delete;
    IdScope &operator=(const IdScope &) = delete;

  private:
    uint64_t prev_;
};

/**
 * RAII span: stamps nowTicks() at entry and pushes one ring event at
 * exit, after one record per arg. Inert while neither a trace nor the
 * recorder is on.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** True when this span is traced (a trace ran at entry). */
    bool active() const { return active_; }

    /** Attach a numeric arg (shown under "args" in the trace viewer). */
    void
    counter(const char *key, uint64_t value)
    {
        if (active_ && nargs_ < flightrec::kMaxArgs)
            args_[nargs_++] = {key, value, nullptr};
    }

    /** Attach a string arg. */
    void label(const char *key, std::string_view text);

  private:
    const char *name_;
    bool active_;
    /** True when the ring takes this span: traced, or the recorder is
     * on (tail capture works with tracing off). */
    bool recorded_;
    uint8_t nargs_ = 0;
    uint64_t start_ticks_;
    /** Only the first nargs_ are set; the rest stays uninitialised, so
     * an untraced span never touches it. */
    flightrec::Arg args_[flightrec::kMaxArgs];
};

#define MDES_TRACE_CAT2(a, b) a##b
#define MDES_TRACE_CAT(a, b) MDES_TRACE_CAT2(a, b)

/** Time the enclosing scope as an anonymous span. */
#define TRACE_SPAN(name_literal)                                          \
    ::mdes::trace::ScopedSpan MDES_TRACE_CAT(mdes_trace_span_,            \
                                             __LINE__)(name_literal)
/** Time the enclosing scope as span @p var (counters can be attached). */
#define TRACE_SPAN_F(var, name_literal)                                   \
    ::mdes::trace::ScopedSpan var(name_literal)

} // namespace mdes::trace

#endif // MDES_SUPPORT_TRACE_H

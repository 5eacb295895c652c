#include "support/trace.h"

#include <chrono>
#include <mutex>
#include <string>
#include <unordered_set>

namespace mdes::trace {

std::atomic<bool> g_trace_enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

/** Process-wide monotonic origin, pinned on first use. */
Clock::time_point
origin()
{
    static const Clock::time_point t0 = Clock::now();
    return t0;
}

std::atomic<uint32_t> g_next_thread_id{1};

thread_local uint64_t t_trace_id = 0;

/** A stable copy of @p text: ring events outlive the span that wrote
 * them, so labels live as long as the process. */
const char *
intern(std::string_view text)
{
    static std::mutex mu;
    static std::unordered_set<std::string> strings;
    std::lock_guard<std::mutex> lock(mu);
    return strings.emplace(text).first->c_str();
}

} // namespace

void
setEnabled(bool on)
{
    // Pin the clock origin before the first span so timestamps are
    // small positive offsets.
    origin();
    if (on)
        flightrec::startKeeping();
    g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::vector<flightrec::Event>
spans(uint64_t *dropped)
{
    return flightrec::keptSpans(dropped);
}

uint64_t
nowUs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - origin())
                        .count());
}

uint32_t
threadId()
{
    thread_local uint32_t id =
        g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
    return id;
}

uint64_t
currentTraceId()
{
    return t_trace_id;
}

IdScope::IdScope(uint64_t id) : prev_(t_trace_id)
{
    t_trace_id = id;
}

IdScope::~IdScope()
{
    t_trace_id = prev_;
}

ScopedSpan::ScopedSpan(const char *name)
    : name_(name), active_(enabled()),
      recorded_(active_ || flightrec::enabled()),
      start_ticks_(recorded_ ? flightrec::nowTicks() : 0)
{
}

ScopedSpan::~ScopedSpan()
{
    if (recorded_)
        flightrec::record(name_, t_trace_id, start_ticks_,
                          flightrec::nowTicks() - start_ticks_, active_,
                          args_, nargs_);
}

void
ScopedSpan::label(const char *key, std::string_view text)
{
    if (active_ && nargs_ < flightrec::kMaxArgs)
        args_[nargs_++] = {key, 0, intern(text)};
}

} // namespace mdes::trace

#include "service/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

namespace mdes::service {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok: return "ok";
    case ErrorCode::UnknownMachine: return "unknown-machine";
    case ErrorCode::CompileFailed: return "compile-failed";
    case ErrorCode::BadWorkload: return "bad-workload";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::Cancelled: return "cancelled";
    case ErrorCode::ScheduleFailed: return "schedule-failed";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::CircuitOpen: return "circuit-open";
    case ErrorCode::Degraded: return "degraded";
    case ErrorCode::Draining: return "draining";
    case ErrorCode::kNumCodes: break;
    }
    return "?";
}

void
StageLatency::record(uint64_t us)
{
    log2_us.add(std::bit_width(us));
    ++count;
    total_us += us;
    if (us > max_us)
        max_us = us;
}

void
StageLatency::merge(const StageLatency &other)
{
    log2_us.merge(other.log2_us);
    count += other.count;
    total_us += other.total_us;
    if (other.max_us > max_us)
        max_us = other.max_us;
}

uint64_t
StageLatency::approxPercentileUs(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Nearest-rank of the q-th sample, 1-based; walk buckets until
    // reached. Ceiling keeps the estimate conservative: p99 of 10
    // samples is the 10th, not the 9th. A count near 2^64 rounds up to
    // 2^64 as a double, which no u64 holds: such a rank is the count.
    const double ceil_rank = std::ceil(q * double(count));
    uint64_t rank =
        ceil_rank < double(count) ? uint64_t(ceil_rank) : count;
    if (rank < 1)
        rank = 1;
    uint64_t seen = 0;
    for (uint64_t b = 0; b <= log2_us.maxValue(); ++b) {
        const uint64_t here = log2_us.countAt(b);
        seen += here;
        if (seen < rank)
            continue;
        // Bucket b holds [lo, hi] = [2^(b-1), 2^b - 1]; bucket 0 is 0.
        const uint64_t lo = b == 0 ? 0 : uint64_t(1) << (b - 1);
        const uint64_t hi = b == 0    ? 0
                            : b == 64 ? UINT64_MAX
                                      : (uint64_t(1) << b) - 1;
        // Interpolate within the bucket: its `here` samples are
        // assumed evenly spread over [lo, hi], and the rank-th sits
        // pos/here of the way up. The old upper-edge answer overstated
        // by the full bucket width (2x at the coarse tail buckets).
        // The offset is clamped: hi - lo of the top bucket rounds up
        // to 2^63 as a double.
        const uint64_t pos = rank - (seen - here);
        const uint64_t off = uint64_t(double(hi - lo) *
                                      (double(pos) / double(here)));
        const uint64_t est = lo + std::min(off, hi - lo);
        return est < max_us ? est : max_us;
    }
    return max_us;
}

uint64_t
windowNowS()
{
    // steady_clock is CLOCK_MONOTONIC on Linux: one machine-wide
    // origin, so epochs agree across forked shard processes.
    return uint64_t(std::chrono::duration_cast<std::chrono::seconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

MetricsWindow &
WindowRing::claim(uint64_t now_s)
{
    const uint64_t epoch = now_s / kWindowSeconds;
    MetricsWindow &slot = slots_[epoch % kWindowSlots];
    if (slot.epoch != epoch) {
        // Rotation: evict the slot's previous (ring-length-old)
        // tenant. Its deltas are already past every horizon.
        slot = MetricsWindow{};
        slot.epoch = epoch;
    }
    return slot;
}

void
WindowRing::record(uint64_t now_s, ErrorCode code, uint64_t total_us)
{
    MetricsWindow &slot = claim(now_s);
    ++slot.requests;
    if (code == ErrorCode::Ok)
        ++slot.ok;
    else
        ++slot.errors;
    slot.total.record(total_us);
}

void
WindowRing::recordShed(uint64_t now_s, uint64_t n)
{
    MetricsWindow &slot = claim(now_s);
    slot.requests += n;
    slot.errors += n;
    slot.shed += n;
}

void
WindowRing::add(const MetricsWindow &window)
{
    MetricsWindow &mine = slots_[window.epoch % kWindowSlots];
    if (mine.epoch == window.epoch) {
        mine.requests += window.requests;
        mine.ok += window.ok;
        mine.errors += window.errors;
        mine.shed += window.shed;
        mine.total.merge(window.total);
    } else if (window.epoch > mine.epoch) {
        mine = window;
    }
    // window.epoch < mine.epoch: stale by a full ring; drop.
}

void
WindowRing::merge(const WindowRing &other)
{
    for (const MetricsWindow &theirs : other.slots_)
        if (theirs.epoch != 0)
            add(theirs);
}

WindowView
WindowRing::over(uint64_t now_s, uint64_t horizon_s) const
{
    WindowView view;
    view.horizon_s = horizon_s;
    const uint64_t cur = now_s / kWindowSeconds;
    uint64_t span = horizon_s / kWindowSeconds;
    if (span == 0)
        span = 1;
    // Leave one slot of slack so a claim racing this snapshot can
    // only touch a slot already outside the horizon.
    if (span > kWindowSlots - 1)
        span = kWindowSlots - 1;
    const uint64_t min_epoch = cur >= span - 1 ? cur - (span - 1) : 0;
    for (const MetricsWindow &slot : slots_) {
        if (slot.epoch == 0 || slot.epoch < min_epoch ||
            slot.epoch > cur)
            continue;
        view.requests += slot.requests;
        view.ok += slot.ok;
        view.errors += slot.errors;
        view.shed += slot.shed;
        view.total.merge(slot.total);
    }
    return view;
}

void
TransformEffects::add(const PipelineStats &stats)
{
    merged_options += stats.cse.merged_options;
    merged_or_trees += stats.cse.merged_or_trees;
    merged_trees += stats.cse.merged_trees;
    removed_dead += stats.cse.removed_dead;
    redundant_options_removed += stats.redundant_options_removed;
    trees_reordered += stats.trees_reordered;
    usages_hoisted += stats.usages_hoisted;
    resources_shifted += stats.resources_shifted;
}

void
ServiceMetrics::recordOutcome(ErrorCode code)
{
    ++requests;
    if (code == ErrorCode::Ok)
        ++ok;
    else
        ++errors[size_t(code)];
}

uint64_t
ServiceMetrics::errorTotal() const
{
    uint64_t n = 0;
    for (size_t i = 1; i < size_t(ErrorCode::kNumCodes); ++i)
        n += errors[i];
    return n;
}

void
ServiceMetrics::recordShed(uint64_t n)
{
    // The one place the two shed views move, so they cannot drift:
    // a shed submission is a request that failed with Overloaded.
    requests += n;
    errors[size_t(ErrorCode::Overloaded)] += n;
    requests_shed += n;
}

namespace {

/** The visitMetrics() walk behind merge(): counters sum, flags OR, and
 * histograms merge bucket by bucket. */
struct Merger
{
    void open(const char *) {}
    void close() {}

    template <class T>
    void
    count(const char *, T &mine, const T &theirs)
    {
        mine += theirs;
    }

    void
    flag(const char *, bool &mine, bool theirs)
    {
        mine = mine || theirs;
    }

    template <class... Ignored>
    void
    derived(const char *, Ignored &&...)
    {
    }

    void
    series(StageLatency &mine, const StageLatency &theirs)
    {
        mine.merge(theirs);
    }

    void
    histogram(Histogram &mine, const Histogram &theirs)
    {
        mine.merge(theirs);
    }

    void
    windows(WindowRing &mine, const WindowRing &theirs)
    {
        mine.merge(theirs);
    }

    void
    faultSites(decltype(ServiceMetrics::fault_sites) &mine,
               const decltype(ServiceMetrics::fault_sites) &theirs)
    {
        for (const auto &[name, counts] : theirs) {
            mine[name].first += counts.first;
            mine[name].second += counts.second;
        }
    }

    void
    conflicts(std::map<std::string, uint64_t> &mine,
              const std::map<std::string, uint64_t> &theirs)
    {
        for (const auto &[name, n] : theirs)
            mine[name] += n;
    }
};

} // namespace

void
ExactSearchTotals::merge(const ExactSearchTotals &other)
{
    Merger merger;
    visitExact(merger, *this, other);
}

void
ServiceMetrics::merge(const ServiceMetrics &other)
{
    Merger merger;
    visitMetrics(merger, *this, other);
}

void
ServiceMetrics::recordConflicts(const lmdes::LowMdes &low,
                                const std::vector<uint64_t> &per_resource)
{
    for (size_t r = 0; r < per_resource.size(); ++r) {
        if (per_resource[r] == 0)
            continue;
        resource_conflicts[low.machineName() + "." +
                           low.resourceName(uint32_t(r))] +=
            per_resource[r];
    }
}

} // namespace mdes::service

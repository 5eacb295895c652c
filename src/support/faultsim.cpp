#include "support/faultsim.h"

#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "support/diagnostics.h"
#include "support/rng.h"

namespace mdes::faultsim {

std::atomic<bool> g_armed{false};

namespace {

const char *const kSiteNames[kNumSites] = {
    "store/open-read",    "store/short-read", "store/corrupt-byte",
    "store/open-write",   "store/write",      "store/fsync",
    "store/rename",       "cache/spurious-wake",
    "cache/slow-compile", "compile/pass-throw",
    "compile/alloc-fail", "net/accept-fail",
    "net/short-read",     "net/short-write",
    "net/peer-reset",     "net/stalled-write",
    "net/heartbeat-drop", "store/map",
};

/** Sites that sever connections (vs shape latency): Plan::fuzz keeps
 * these sub-certain so a bounded-retry client always progresses. */
bool
isNetSeverSite(Site site)
{
    return site == Site::NetAcceptFail || site == Site::NetPeerReset;
}

/** splitmix64 finalizer: a full-avalanche 64-bit mix. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

struct State
{
    std::mutex mu;
    Plan plan;
    /** Per-(site, token) decision state, reset by install(): `draws`
     * indexes the deterministic draw (it must advance on every
     * evaluation, or a sub-certain site would repeat one draw forever),
     * while `fires` enforces SiteSpec::max_fires. */
    struct HitState
    {
        uint32_t draws = 0;
        uint32_t fires = 0;
    };
    std::unordered_map<uint64_t, HitState> hits[kNumSites];
    std::atomic<uint64_t> evaluations[kNumSites]{};
    std::atomic<uint64_t> fires[kNumSites]{};
};

State &
state()
{
    static State s;
    return s;
}

thread_local uint64_t t_token = 0;

} // namespace

const char *
siteName(Site site)
{
    size_t i = size_t(site);
    return i < kNumSites ? kSiteNames[i] : "?";
}

bool
siteFromName(std::string_view name, Site *out)
{
    for (size_t i = 0; i < kNumSites; ++i) {
        if (name == kSiteNames[i]) {
            *out = Site(i);
            return true;
        }
    }
    return false;
}

Plan
Plan::parse(std::string_view spec)
{
    Plan plan;
    std::string text(spec);
    for (char &c : text)
        if (c == ',')
            c = ' ';
    std::istringstream in(text);
    std::string tok;
    while (in >> tok) {
        size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == tok.size())
            throw MdesError("faultsim: bad plan token '" + tok +
                            "' (want name=value)");
        std::string name = tok.substr(0, eq);
        std::string value = tok.substr(eq + 1);
        if (name == "seed") {
            try {
                plan.seed = std::stoull(value);
            } catch (const std::exception &) {
                throw MdesError("faultsim: bad seed '" + value + "'");
            }
            continue;
        }
        Site site;
        if (!siteFromName(name, &site))
            throw MdesError("faultsim: unknown site '" + name + "'");
        SiteSpec &s = plan.sites[size_t(site)];
        // probability[:delay_us[:max_fires]]
        std::istringstream fields(value);
        std::string field;
        int idx = 0;
        while (std::getline(fields, field, ':')) {
            try {
                switch (idx) {
                case 0:
                    s.probability = std::stod(field);
                    break;
                case 1:
                    s.delay_us = uint32_t(std::stoul(field));
                    break;
                case 2:
                    s.max_fires = uint32_t(std::stoul(field));
                    break;
                default:
                    throw MdesError("faultsim: too many fields in '" +
                                    tok + "'");
                }
            } catch (const MdesError &) {
                throw;
            } catch (const std::exception &) {
                throw MdesError("faultsim: bad value '" + field +
                                "' in '" + tok + "'");
            }
            ++idx;
        }
        if (s.probability < 0.0 || s.probability > 1.0)
            throw MdesError("faultsim: probability out of [0,1] in '" +
                            tok + "'");
    }
    return plan;
}

Plan
Plan::fuzz(uint64_t seed)
{
    Plan plan;
    plan.seed = seed;
    Rng rng(mix64(seed) ^ 0xFA017517ull);
    for (size_t i = 0; i < kNumSites; ++i) {
        SiteSpec &s = plan.sites[i];
        if (!rng.chance(0.6))
            continue;
        // Mostly gentle rates with an occasional hard-failing site;
        // capped fires keep every request able to eventually finish.
        s.probability = rng.chance(0.15) ? 1.0 : 0.05 + 0.45 * rng.uniform();
        s.max_fires = uint32_t(1 + rng.below(3));
        if (Site(i) == Site::CacheSlowCompile)
            s.delay_us = uint32_t(500 + rng.below(20000));
        if (Site(i) == Site::NetStalledWrite)
            s.delay_us = uint32_t(200 + rng.below(5000));
        // Connection-severing sites must stay sub-certain (the draws
        // above are still consumed, so old seeds replay unchanged): at
        // p=1.0 every retry of every request would be reset forever.
        if (isNetSeverSite(Site(i)) && s.probability > 0.35)
            s.probability = 0.35;
    }
    // A plan that arms nothing tests nothing: force one gentle site.
    if (!plan.anyArmed()) {
        SiteSpec &s = plan.sites[size_t(Site::StoreOpenRead)];
        s.probability = 0.5;
        s.max_fires = 2;
    }
    return plan;
}

std::string
Plan::toString() const
{
    std::ostringstream out;
    out << "seed=" << seed;
    for (size_t i = 0; i < kNumSites; ++i) {
        const SiteSpec &s = sites[i];
        if (s.probability <= 0.0)
            continue;
        out << ',' << kSiteNames[i] << '=' << s.probability;
        if (s.delay_us || s.max_fires)
            out << ':' << s.delay_us;
        if (s.max_fires)
            out << ':' << s.max_fires;
    }
    return out.str();
}

void
install(const Plan &plan)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.plan = plan;
    for (size_t i = 0; i < kNumSites; ++i) {
        s.hits[i].clear();
        s.evaluations[i].store(0, std::memory_order_relaxed);
        s.fires[i].store(0, std::memory_order_relaxed);
    }
    g_armed.store(plan.anyArmed(), std::memory_order_release);
}

void
uninstall()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    g_armed.store(false, std::memory_order_release);
    s.plan = Plan{};
}

TokenScope::TokenScope(uint64_t token) : prev_(t_token)
{
    t_token = token;
}

TokenScope::~TokenScope() { t_token = prev_; }

uint64_t
currentToken()
{
    return t_token;
}

FireInfo
evaluate(Site site)
{
    State &s = state();
    size_t i = size_t(site);
    s.evaluations[i].fetch_add(1, std::memory_order_relaxed);

    FireInfo info;
    uint32_t delay_us = 0;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        const SiteSpec &spec = s.plan.sites[i];
        if (spec.probability <= 0.0)
            return info;
        State::HitState &hit = s.hits[i][t_token];
        if (spec.max_fires != 0 && hit.fires >= spec.max_fires)
            return info;
        // Pure function of (seed, site, token, draw index): the draw is
        // identical on replay no matter which thread evaluates it.
        uint64_t draw = mix64(mix64(s.plan.seed ^ (uint64_t(i) << 56)) ^
                              mix64(t_token) ^ hit.draws);
        ++hit.draws;
        double unit = double(draw >> 11) * (1.0 / 9007199254740992.0);
        if (unit >= spec.probability)
            return info;
        ++hit.fires;
        info.fired = true;
        info.value = mix64(draw);
        info.delay_us = spec.delay_us;
        delay_us = spec.delay_us;
    }
    s.fires[i].fetch_add(1, std::memory_order_relaxed);
    if (site == Site::CacheSlowCompile && delay_us)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    return info;
}

void
maybeThrow(Site site, const char *what)
{
    if (probe(site).fired)
        throw MdesError(std::string("faultsim: ") + what + " (" +
                        siteName(site) + ")");
}

std::array<SiteCounters, kNumSites>
counters()
{
    State &s = state();
    std::array<SiteCounters, kNumSites> out{};
    for (size_t i = 0; i < kNumSites; ++i) {
        out[i].evaluations = s.evaluations[i].load(std::memory_order_relaxed);
        out[i].fires = s.fires[i].load(std::memory_order_relaxed);
    }
    return out;
}


} // namespace mdes::faultsim

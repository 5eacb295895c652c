#include "service/cache.h"

#include <chrono>

#include "support/faultsim.h"
#include "support/trace.h"

namespace mdes::service {

namespace {

int64_t
steadyNowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

DescriptionCache::Key
DescriptionCache::makeKey(std::string_view source,
                          const PipelineConfig &transforms,
                          bool bit_vector, exp::Rep rep)
{
    return store::artifactKey(source, transforms, bit_vector, rep);
}

void
DescriptionCache::attachStore(
    std::shared_ptr<store::ArtifactStore> disk_store)
{
    std::lock_guard<std::mutex> lock(mu_);
    store_ = std::move(disk_store);
}

void
DescriptionCache::setBreakerPolicy(BreakerPolicy policy)
{
    std::lock_guard<std::mutex> lock(mu_);
    breaker_policy_ = policy;
}

void
DescriptionCache::resetBreakers()
{
    std::lock_guard<std::mutex> lock(mu_);
    breakers_.clear();
}

void
DescriptionCache::eraseGeneration(Key key, uint64_t generation)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->generation == generation) {
        lru_.erase(it->second);
        index_.erase(it);
    }
}

void
DescriptionCache::recordBreakerOutcome(Key key, bool success)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (breaker_policy_.threshold == 0)
        return;
    if (success) {
        breakers_.erase(key);
        return;
    }
    BreakerState &b = breakers_[key];
    ++b.consecutive_failures;
    if (b.consecutive_failures >= breaker_policy_.threshold) {
        if (!b.open)
            ++breaker_trips_;
        b.open = true;
        b.open_until_us =
            steadyNowUs() + int64_t(breaker_policy_.cooldown_ms) * 1000;
    }
}

CompiledMdes
DescriptionCache::getOrCompile(
    Key key, const std::function<CompileResult()> &compile,
    Lookup *lookup, uint64_t config_fingerprint,
    const std::function<bool()> &cancel)
{
    if (lookup)
        *lookup = Lookup{};
    // The outer loop re-runs the lookup when a waiter's owner abandons
    // the compile (CancelledError): someone must still produce the
    // artifact, and it might as well be us.
    for (;;) {
        std::shared_future<CompileResult> fut;
        std::promise<CompileResult> mine;
        std::shared_ptr<store::ArtifactStore> disk_store;
        bool is_owner = false;
        uint64_t my_generation = 0;
        uint64_t waited_generation = 0;
        {
            TRACE_SPAN("cache/lookup");
            std::lock_guard<std::mutex> lock(mu_);
            auto it = index_.find(key);
            if (it != index_.end()) {
                ++hits_;
                if (lookup)
                    lookup->hit = true;
                touch(it->second);
                fut = it->second->artifact;
                waited_generation = it->second->generation;
            } else {
                // Breaker gate: a quarantined key fails fast instead of
                // starting yet another doomed compile. An expired
                // cooldown falls through as the one half-open trial
                // (other concurrent misses become its waiters).
                if (breaker_policy_.threshold > 0) {
                    auto bit = breakers_.find(key);
                    if (bit != breakers_.end() && bit->second.open) {
                        if (steadyNowUs() < bit->second.open_until_us) {
                            ++breaker_fast_fails_;
                            throw CircuitOpenError(
                                "circuit open for key " +
                                std::to_string(key) + ": " +
                                std::to_string(
                                    bit->second.consecutive_failures) +
                                " consecutive compile failures");
                        }
                    }
                }
                ++misses_;
                if (lookup)
                    lookup->hit = false;
                fut = mine.get_future().share();
                my_generation = next_generation_++;
                lru_.push_front(Entry{key, my_generation, fut});
                index_[key] = lru_.begin();
                is_owner = true;
                disk_store = store_;
                while (capacity_ > 0 && lru_.size() > capacity_) {
                    index_.erase(lru_.back().key);
                    lru_.pop_back();
                    ++evictions_;
                }
            }
        }

        if (!is_owner) {
            // Another request owns this key's compile; its spans carry
            // the owner's trace id, so the waiter records only the wait
            // itself.
            TRACE_SPAN("cache/wait");
            // Simulated spurious wakes: the waiter comes back without a
            // result and must re-wait. Bounded so even probability-1.0
            // plans cannot spin forever.
            for (int wakes = 0; wakes < 3; ++wakes) {
                if (!faultsim::probe(faultsim::Site::CacheSpuriousWake)
                         .fired)
                    break;
                fut.wait_for(std::chrono::microseconds(100));
            }
            try {
                CompileResult result = fut.get();
                if (lookup)
                    lookup->degraded = result.degraded;
                return result.artifact;
            } catch (const CancelledError &) {
                // The *owner* gave up, which says nothing about our own
                // deadline. Unless we are also cancelled, drop the dead
                // entry (idempotent with the owner's own cleanup) and
                // retry the lookup; this round's first retrier becomes
                // the new owner.
                if (cancel && cancel())
                    throw;
                eraseGeneration(key, waited_generation);
                continue;
            }
        }

        // Single-flight owner: probe the disk tier, then compile. Both
        // run outside the lock; concurrent lookups of this key block on
        // the shared future, so one key costs at most one disk read or
        // one compilation.
        try {
            faultsim::probe(faultsim::Site::CacheSlowCompile);
            CompileResult result;
            if (disk_store) {
                result.artifact = disk_store->load(key, cancel);
                bool from_disk = result.artifact != nullptr;
                if (lookup)
                    lookup->disk = from_disk;
                std::lock_guard<std::mutex> lock(mu_);
                if (from_disk)
                    ++disk_hits_;
                else
                    ++disk_misses_;
            }
            if (!result.artifact) {
                result = compile();
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++compiles_;
                    if (result.degraded)
                        ++degraded_compiles_;
                }
                // A degraded artifact is a stopgap, not a product:
                // publishing or retaining it would pin every future
                // request to the unoptimized fallback.
                if (!result.degraded && disk_store && result.artifact &&
                    disk_store->store(key, *result.artifact,
                                      config_fingerprint, cancel)) {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++disk_stores_;
                }
            }
            recordBreakerOutcome(key, true);
            if (lookup)
                lookup->degraded = result.degraded;
            bool degraded = result.degraded;
            CompiledMdes artifact = result.artifact;
            mine.set_value(std::move(result));
            if (degraded)
                eraseGeneration(key, my_generation);
            return artifact;
        } catch (const CancelledError &) {
            // Our request gave up; that is not the description's fault,
            // so the breaker is not penalized. Waiters will observe the
            // CancelledError and re-run the lookup.
            mine.set_exception(std::current_exception());
            eraseGeneration(key, my_generation);
            throw;
        } catch (...) {
            // Fail every waiter of this round, then forget the entry so
            // a later request retries instead of caching the failure.
            mine.set_exception(std::current_exception());
            recordBreakerOutcome(key, false);
            eraseGeneration(key, my_generation);
            throw;
        }
    }
}

void
DescriptionCache::touch(LruList::iterator it)
{
    lru_.splice(lru_.begin(), lru_, it);
}

DescriptionCache::Stats
DescriptionCache::stats() const
{
    std::shared_ptr<store::ArtifactStore> disk_store;
    Stats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.hits = hits_;
        s.misses = misses_;
        s.evictions = evictions_;
        s.compiles = compiles_;
        s.size = lru_.size();
        s.capacity = capacity_;
        s.disk_enabled = store_ != nullptr;
        s.disk_hits = disk_hits_;
        s.disk_misses = disk_misses_;
        s.disk_stores = disk_stores_;
        s.breaker_trips = breaker_trips_;
        s.breaker_fast_fails = breaker_fast_fails_;
        s.degraded_compiles = degraded_compiles_;
        disk_store = store_;
    }
    if (disk_store) {
        store::StoreStats ss = disk_store->stats();
        s.disk_corrupt = ss.corrupt;
        s.disk_stale = ss.stale_evicted;
        s.disk_evictions = ss.evictions;
        s.disk_retries = ss.retries;
    }
    return s;
}

void
DescriptionCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
}

} // namespace mdes::service

#ifndef MDES_SUPPORT_RNG_H
#define MDES_SUPPORT_RNG_H

/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * The synthetic workload generator must be exactly reproducible across
 * platforms and standard-library versions, so we implement our own small
 * generator (xoshiro256**, seeded via splitmix64) instead of relying on
 * std::mt19937 distributions, whose outputs are not portable.
 */

#include <cassert>
#include <cstdint>
#include <vector>

namespace mdes {

/** Portable, deterministic xoshiro256** generator. */
class Rng
{
  public:
    /** Seed the generator; identical seeds yield identical streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull)
    {
        // splitmix64 expansion of the seed into the full state.
        uint64_t x = seed;
        for (auto &s : state_) {
            x += 0x9E3779B97F4A7C15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
            s = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        auto rotl = [](uint64_t v, int k) {
            return (v << k) | (v >> (64 - k));
        };
        uint64_t result = rotl(state_[1] * 5, 7) * 9;
        uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        assert(bound > 0);
        // Debiased via rejection on the top of the range.
        uint64_t threshold = -bound % bound;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        assert(lo <= hi);
        return lo + int64_t(below(uint64_t(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return double(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Pick an index according to non-negative @p weights (need not sum
     * to 1). At least one weight must be positive.
     */
    size_t
    pickWeighted(const std::vector<double> &weights)
    {
        double total = 0;
        for (double w : weights)
            total += w;
        return pickWeighted(weights, total);
    }

    /**
     * pickWeighted() for callers that draw many times from one set of
     * weights: @p total is their sum, added in index order from zero,
     * so every draw matches the one-argument form bit for bit.
     */
    size_t
    pickWeighted(const std::vector<double> &weights, double total)
    {
        assert(total > 0);
        double r = uniform() * total;
        for (size_t i = 0; i < weights.size(); ++i) {
            r -= weights[i];
            if (r < 0)
                return i;
        }
        return weights.size() - 1;
    }

  private:
    uint64_t state_[4] = {};
};

} // namespace mdes

#endif // MDES_SUPPORT_RNG_H

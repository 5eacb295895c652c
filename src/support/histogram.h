#ifndef MDES_SUPPORT_HISTOGRAM_H
#define MDES_SUPPORT_HISTOGRAM_H

/**
 * @file
 * Integer histogram with ASCII bar rendering.
 *
 * Figure 2 of the paper plots the distribution of options checked per
 * scheduling attempt; the checker records per-attempt counts here and the
 * bench renders the same series.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace mdes {

/** Counts occurrences of small non-negative integer samples. */
class Histogram
{
  public:
    /** Record one sample of @p value. Inline and minimal: the
     * constraint checker records one sample per scheduling attempt, so
     * this is two increments on the hot path (the mean is derived from
     * the counts on demand instead of being maintained here). */
    void
    add(uint64_t value)
    {
        if (value >= counts_.size()) [[unlikely]]
            counts_.resize(value + 1, 0);
        ++counts_[value];
        ++total_;
    }

    /** Record @p n samples of @p value at once (deserialization of
     * bucket arrays; equivalent to n add() calls). */
    void
    addCount(uint64_t value, uint64_t n)
    {
        if (n == 0)
            return;
        if (value >= counts_.size())
            counts_.resize(value + 1, 0);
        counts_[value] += n;
        total_ += n;
    }

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Same samples (trailing empty slots do not count). */
    bool operator==(const Histogram &other) const;

    /** Total number of samples recorded. */
    uint64_t total() const { return total_; }

    /** Count for a specific @p value (0 if never seen). */
    uint64_t countAt(uint64_t value) const;

    /** Fraction of samples equal to @p value. */
    double fractionAt(uint64_t value) const;

    /** Fraction of samples in the inclusive range [lo, hi]. */
    double fractionBetween(uint64_t lo, uint64_t hi) const;

    /** Largest sample value seen (0 for an empty histogram). */
    uint64_t maxValue() const;

    /** Mean of all samples. */
    double mean() const;

    /**
     * Render an ASCII bar chart: one row per distinct value up to
     * maxValue(), bar lengths scaled to @p bar_width characters, with
     * percentage labels. Values with zero count are skipped when
     * @p skip_zero is true.
     */
    std::string render(int bar_width = 50, bool skip_zero = true) const;

  private:
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

} // namespace mdes

#endif // MDES_SUPPORT_HISTOGRAM_H

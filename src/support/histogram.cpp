#include "support/histogram.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace mdes {

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

bool
Histogram::operator==(const Histogram &other) const
{
    const size_t n = std::max(counts_.size(), other.counts_.size());
    for (size_t i = 0; i < n; ++i)
        if (countAt(i) != other.countAt(i))
            return false;
    return total_ == other.total_;
}

uint64_t
Histogram::countAt(uint64_t value) const
{
    return value < counts_.size() ? counts_[value] : 0;
}

double
Histogram::fractionAt(uint64_t value) const
{
    return total_ == 0 ? 0.0 : double(countAt(value)) / double(total_);
}

double
Histogram::fractionBetween(uint64_t lo, uint64_t hi) const
{
    if (total_ == 0)
        return 0.0;
    uint64_t sum = 0;
    for (uint64_t v = lo; v <= hi && v < counts_.size(); ++v)
        sum += counts_[v];
    return double(sum) / double(total_);
}

uint64_t
Histogram::maxValue() const
{
    for (size_t i = counts_.size(); i > 0; --i) {
        if (counts_[i - 1] != 0)
            return i - 1;
    }
    return 0;
}

double
Histogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    uint64_t weighted_sum = 0;
    for (size_t v = 0; v < counts_.size(); ++v)
        weighted_sum += counts_[v] * v;
    return double(weighted_sum) / double(total_);
}

std::string
Histogram::render(int bar_width, bool skip_zero) const
{
    std::ostringstream os;
    if (total_ == 0)
        return "(empty histogram)\n";

    uint64_t peak = *std::max_element(counts_.begin(), counts_.end());
    for (size_t v = 0; v < counts_.size(); ++v) {
        if (skip_zero && counts_[v] == 0)
            continue;
        double frac = double(counts_[v]) / double(total_);
        int len = peak == 0
                      ? 0
                      : int(double(counts_[v]) / double(peak) * bar_width);
        char label[64];
        std::snprintf(label, sizeof(label), "%4zu | %6.2f%% | ", v,
                      frac * 100.0);
        os << label << std::string(size_t(len), '#') << '\n';
    }
    return os.str();
}

} // namespace mdes

#include "sim/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asr::sim {

Histogram::Histogram(double bucket_width, unsigned num_buckets)
    : bucketWidth(bucket_width), buckets(num_buckets, 0)
{
    ASR_ASSERT(bucket_width > 0.0, "bucket width must be positive");
    ASR_ASSERT(num_buckets > 0, "need at least one bucket");
}

void
Histogram::sample(double value)
{
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;

    // Range-check in double before converting: a negative, NaN or
    // huge value has no integral bucket index, and converting it
    // would be undefined behaviour.  All of them count as overflow.
    const double pos = value / bucketWidth;
    if (!(value >= 0.0) || pos >= static_cast<double>(buckets.size()))
        ++overflow;
    else
        ++buckets[static_cast<std::size_t>(pos)];
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::quantile(double fraction) const
{
    if (count_ == 0)
        return 0.0;
    fraction = std::clamp(fraction, 0.0, 1.0);
    const auto target =
        static_cast<std::uint64_t>(fraction * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= target)
            return (static_cast<double>(i) + 1.0) * bucketWidth;
    }
    return max_;
}

void
Histogram::clear()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    overflow = 0;
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

std::string
StatSet::render() const
{
    std::string out;
    for (const auto &[name, value] : counters) {
        out += name;
        out += " = ";
        out += std::to_string(value);
        out += "\n";
    }
    return out;
}

} // namespace asr::sim

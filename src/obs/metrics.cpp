#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace newtop::obs {

// -- LatencyHistogram ---------------------------------------------------------

void LatencyHistogram::record(SimDuration value) {
    if (value < 0) value = 0;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const std::size_t index = std::bit_width(static_cast<std::uint64_t>(value));
    ++buckets_[std::min(index, kBucketCount - 1)];
}

SimDuration LatencyHistogram::bucket_floor(std::size_t index) {
    if (index == 0) return 0;
    return static_cast<SimDuration>(std::uint64_t{1} << (index - 1));
}

SimDuration LatencyHistogram::quantile(double q) const {
    if (count_ == 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        seen += buckets_[i];
        if (seen >= rank) return std::clamp(bucket_floor(i), min_, max_);
    }
    return max_;
}

void LatencyHistogram::append_json(std::string& out) const {
    out += "{\"count\":" + std::to_string(count_);
    out += ",\"sum\":" + std::to_string(sum_);
    out += ",\"min\":" + std::to_string(min_);
    out += ",\"max\":" + std::to_string(max_);
    out += ",\"p50\":" + std::to_string(quantile(0.50));
    out += ",\"p90\":" + std::to_string(quantile(0.90));
    out += ",\"p99\":" + std::to_string(quantile(0.99));
    out += ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        if (buckets_[i] == 0) continue;
        if (!first) out += ',';
        first = false;
        out += '[';
        out += std::to_string(i);
        out += ',';
        out += std::to_string(buckets_[i]);
        out += ']';
    }
    out += "]}";
}

// -- handles ------------------------------------------------------------------

void Counter::resolve_and_add(std::uint64_t delta) {
    value_ = &registry_->counter_slot(name_);
    *value_ += delta;
}

void Histogram::resolve_and_observe(SimDuration value) {
    histogram_ = &registry_->histogram_slot(name_);
    histogram_->record(value);
}

// -- MetricsRegistry ----------------------------------------------------------

std::uint64_t& MetricsRegistry::counter_slot(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end()) it = counters_.emplace(std::string(name), 0).first;
    return it->second;
}

LatencyHistogram& MetricsRegistry::histogram_slot(std::string_view name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name), LatencyHistogram{}).first;
    }
    return it->second;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
    counter_slot(name) += delta;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::observe(std::string_view name, SimDuration value) {
    histogram_slot(name).record(value);
}

const LatencyHistogram* MetricsRegistry::histogram(std::string_view name) const {
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::to_json() const {
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        out += std::to_string(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, histogram] : histograms_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        histogram.append_json(out);
    }
    out += "}}";
    return out;
}

}  // namespace newtop::obs

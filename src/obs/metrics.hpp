// Deterministic observability: named counters and sim-time histograms.
//
// One MetricsRegistry exists per simulated world (owned by the Network) and
// is shared by every layer — CPU queues, the network, the ORB, the group
// communication endpoints and the invocation layer.  Everything is keyed by
// simulated time and stored in ordered maps, so two runs from the same seed
// produce byte-identical to_json() output; there is no wall clock anywhere.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "util/time.hpp"

namespace newtop::obs {

/// Log-scale histogram over non-negative sim durations (microseconds).
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i).  64 buckets cover the full SimDuration range, so the
/// layout never changes with the data — a requirement for reproducible
/// output.
class LatencyHistogram {
public:
    static constexpr std::size_t kBucketCount = 64;

    void record(SimDuration value);

    [[nodiscard]] std::uint64_t count() const { return count_; }
    [[nodiscard]] SimDuration sum() const { return sum_; }
    [[nodiscard]] SimDuration min() const { return min_; }
    [[nodiscard]] SimDuration max() const { return max_; }
    [[nodiscard]] const std::array<std::uint64_t, kBucketCount>& buckets() const {
        return buckets_;
    }

    /// Inclusive lower bound of bucket `index`.
    [[nodiscard]] static SimDuration bucket_floor(std::size_t index);

    /// Quantile estimate from bucket floors: the floor of the bucket holding
    /// the ceil(q * count)-th smallest sample, clamped to [min, max] so the
    /// log-scale coarseness never reports a value outside the observed
    /// range.  Returns 0 when empty.
    [[nodiscard]] SimDuration quantile(double q) const;

    /// Append this histogram as a JSON object to `out` (sparse buckets:
    /// [[index, count], ...]).
    void append_json(std::string& out) const;

private:
    std::uint64_t count_{0};
    SimDuration sum_{0};
    SimDuration min_{0};
    SimDuration max_{0};
    std::array<std::uint64_t, kBucketCount> buckets_{};
};

class MetricsRegistry;

/// A counter bumped without a name lookup.  The first bump finds (or
/// creates) the registry's entry and caches a pointer to it; later bumps go
/// through the pointer.  Entries are never erased and map nodes never move,
/// so the pointer stays valid for the registry's lifetime.  Until its first
/// bump the handle leaves the registry untouched, so a never-bumped counter
/// stays out of to_json() exactly as if add(name) had never been called.
/// A default-constructed handle is unbound and ignores bumps.
class Counter {
public:
    Counter() = default;
    Counter(MetricsRegistry& registry, std::string_view name)
        : registry_(&registry), name_(name) {}

    /// Same effect as registry.add(name, delta).
    void add(std::uint64_t delta = 1) {
        if (value_ != nullptr) {
            *value_ += delta;
        } else if (registry_ != nullptr) {
            resolve_and_add(delta);
        }
    }

private:
    void resolve_and_add(std::uint64_t delta);

    MetricsRegistry* registry_{nullptr};
    std::string name_;
    std::uint64_t* value_{nullptr};
};

/// A histogram recorded into without a name lookup; resolved on the first
/// observe() like Counter.
class Histogram {
public:
    Histogram() = default;
    Histogram(MetricsRegistry& registry, std::string_view name)
        : registry_(&registry), name_(name) {}

    /// Same effect as registry.observe(name, value).
    void observe(SimDuration value) {
        if (histogram_ != nullptr) {
            histogram_->record(value);
        } else if (registry_ != nullptr) {
            resolve_and_observe(value);
        }
    }

private:
    void resolve_and_observe(SimDuration value);

    MetricsRegistry* registry_{nullptr};
    std::string name_;
    LatencyHistogram* histogram_{nullptr};
};

class MetricsRegistry {
public:
    /// Increment counter `name` by `delta` (creating it at zero).
    void add(std::string_view name, std::uint64_t delta = 1);

    /// Current value of a counter; 0 if it was never incremented.
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;

    /// Record `value` into histogram `name` (negative values clamp to 0).
    void observe(std::string_view name, SimDuration value);

    /// The named histogram, or nullptr if nothing was observed under it.
    [[nodiscard]] const LatencyHistogram* histogram(std::string_view name) const;

    /// Everything, as one deterministic JSON object:
    ///   {"counters":{...},"histograms":{...}}
    /// Ordered-map iteration plus integer-only fields make the string a
    /// pure function of the recorded data.
    [[nodiscard]] std::string to_json() const;

    // -- tracing -------------------------------------------------------------

    /// Install (or remove, with nullptr) the trace sink.  Not owned.
    void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
    [[nodiscard]] TraceSink* trace_sink() const { return trace_sink_; }

    /// Record a protocol event if a sink is installed (no-op otherwise).
    void trace(TraceKind kind, SimTime at, std::uint64_t actor, std::uint64_t subject = 0,
               std::uint64_t detail = 0) {
        if (trace_sink_ != nullptr) {
            trace_sink_->record(TraceEvent{at, kind, actor, subject, detail});
        }
    }

    /// Span-aware variant: ties the event into an invocation's span tree.
    /// `parent` is the causally preceding span (0 for a root).
    void trace(TraceKind kind, SimTime at, std::uint64_t actor, SpanContext span,
               std::uint64_t parent, std::uint64_t subject = 0, std::uint64_t detail = 0) {
        if (trace_sink_ != nullptr) {
            trace_sink_->record(
                TraceEvent{at, kind, actor, subject, detail, span.trace, span.span, parent});
        }
    }

private:
    friend class Counter;
    friend class Histogram;

    /// The named entry, created at zero / empty on first use.
    std::uint64_t& counter_slot(std::string_view name);
    LatencyHistogram& histogram_slot(std::string_view name);

    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, LatencyHistogram, std::less<>> histograms_;
    TraceSink* trace_sink_{nullptr};
};

}  // namespace newtop::obs

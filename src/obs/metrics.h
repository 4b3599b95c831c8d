// Metrics registry: named counters, gauges and histograms.
//
// One registry per testbed Site (labelled scope "site.<name>"); subsystems
// receive a MetricsScope in set_metrics(). A fact a subsystem already
// counts in its own stats struct is registered as a *bound* counter: the
// registry entry reads that stats field, so there is one count per fact
// and recording it costs nothing beyond the stats increment. Only values
// no field holds (derived gauges, histograms, sums over other objects) are
// owned metrics that the subsystem pushes through a cached pointer, at one
// null check plus one add or set per event. A default-constructed
// (detached) scope binds nothing and hands out nullptr for every owned
// metric, which is the compiled-in-but-disabled mode the observability
// bench (`bench_obs_overhead`) keeps under 2% of `bench_pipeline`.
//
// Lifetime: a registry must not be read (snapshot, dump, visit, a
// TimeSeriesStore tick) after a subsystem bound into it is destroyed.
// Owners declare the registry before the subsystems they bind (Site, Grid,
// the benches), so it is destroyed after them and read only while they
// live.
//
// Names are hierarchical dotted paths ("site.cern.gridftp.bytes_sent").
// Snapshots export to JSON and to a flat text dump, and support delta
// against an earlier snapshot (counters/histograms subtract, gauges keep
// the latest value).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace gdmp::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Monotonic event/byte count. An owned counter holds its value and is
/// bumped with add(); a bound counter reads a subsystem's stats field
/// (MetricsRegistry::bind_counter) and ignores add().
class Counter {
 public:
  Counter() = default;
  explicit Counter(const std::int64_t* source) noexcept : source_(source) {}

  void add(std::int64_t n = 1) noexcept { value_ += n; }
  std::int64_t value() const noexcept {
    return source_ != nullptr ? *source_ : value_;
  }
  /// The bound stats field; null for an owned counter.
  const std::int64_t* source() const noexcept { return source_; }

 private:
  std::int64_t value_ = 0;
  const std::int64_t* source_ = nullptr;  // bound stats field, if any
};

/// Last-write-wins level (queue depth, bytes used, in-flight transfers).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram plus streaming moments (reuses RunningStats).
/// `bounds` are inclusive upper bounds; one overflow bucket is implicit.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  const std::vector<std::int64_t>& bucket_counts() const noexcept {
    return counts_;
  }
  const RunningStats& stats() const noexcept { return stats_; }

 private:
  std::vector<double> bounds_;        // sorted upper bounds
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1 (overflow last)
  RunningStats stats_;
};

/// Default histogram bounds: decade-ish spread that suits both Mbit/s
/// throughputs and second-scale latencies.
std::vector<double> default_histogram_bounds();

/// Point-in-time copy of every metric, detached from the registry.
struct MetricsSnapshot {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::int64_t counter = 0;                // kCounter
    double gauge = 0;                        // kGauge
    std::int64_t count = 0;                  // kHistogram: sample count
    double sum = 0, min = 0, max = 0;        // kHistogram moments
    std::vector<double> bounds;              // kHistogram
    std::vector<std::int64_t> bucket_counts; // kHistogram
  };

  std::vector<Entry> entries;  // sorted by name

  /// Counters and histogram counts subtract (`this` minus `earlier`);
  /// gauges keep this snapshot's value. Entries absent from `earlier`
  /// pass through unchanged.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /// One JSON object: {"name": {"kind": ..., ...}, ...}.
  std::string to_json() const;

  /// Flat text, one `name value` line per metric (histograms: count/mean/
  /// min/max plus buckets).
  std::string dump() const;
};

class MetricsScope;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. A name registered under a different kind is an
  /// instrumentation bug: it is logged through the Logger (never a silent
  /// drop) and a detached scratch metric is returned so callers stay safe.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  /// Creates counter `name` bound to `source`: every read returns the
  /// field's current value. A name already taken (by any kind, bound or
  /// owned) is an instrumentation bug: it is logged and the existing entry
  /// is left as it is. `source` must outlive every read of this registry
  /// (see the lifetime note at the top of this file).
  void bind_counter(std::string_view name, const std::int64_t& source);
  void bind_counter(std::string_view name, const std::int64_t&&) = delete;

  /// A scope whose metric names are prefixed with `prefix` + ".".
  MetricsScope scope(std::string prefix);

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }
  std::string dump() const { return snapshot().dump(); }

  /// Name-ordered visitation without snapshot allocation; exactly one of
  /// the metric pointers is non-null per call (the one matching `kind`).
  /// The heartbeat fast path (obs/timeseries.h) resolves its pointer plan
  /// through this.
  using Visitor = std::function<void(const std::string& name, MetricKind kind,
                                     const Counter* counter,
                                     const Gauge* gauge,
                                     const Histogram* histogram)>;
  void visit(const Visitor& fn) const;

  /// Monotonic structure version: bumped when a metric is created or bound
  /// and when the registry is cleared (which also drops every binding), so
  /// pointer-caching consumers know when their cached Counter*/Gauge*/
  /// Histogram* must be re-resolved.
  std::uint64_t generation() const noexcept { return generation_; }

  std::size_t size() const noexcept { return metrics_.size(); }
  void clear();

 private:
  struct Slot {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot* find_or_create(std::string_view name, MetricKind kind);

  std::map<std::string, Slot, std::less<>> metrics_;
  std::uint64_t generation_ = 0;
  // Fallbacks for kind-mismatch registrations (kept out of snapshots).
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  std::unique_ptr<Histogram> scratch_histogram_;
};

/// A (registry, prefix) pair. Copyable; a default-constructed scope is
/// detached: it binds nothing and returns nullptr from every accessor, so
/// instrumented components cache the pointers once and pay only a null
/// check when metrics are off.
class MetricsScope {
 public:
  MetricsScope() = default;

  bool attached() const noexcept { return registry_ != nullptr; }

  Counter* counter(std::string_view name) const;
  /// Binds prefixed `name` to a stats field (MetricsRegistry::bind_counter).
  void counter(std::string_view name, const std::int64_t& source) const;
  void counter(std::string_view name, const std::int64_t&&) const = delete;
  Gauge* gauge(std::string_view name) const;
  Histogram* histogram(std::string_view name,
                       std::vector<double> bounds = {}) const;

  /// Child scope: prefix + "." + suffix.
  MetricsScope scope(std::string_view suffix) const;

  const std::string& prefix() const noexcept { return prefix_; }
  MetricsRegistry* registry() const noexcept { return registry_; }

 private:
  friend class MetricsRegistry;
  MetricsScope(MetricsRegistry* registry, std::string prefix)
      : registry_(registry), prefix_(std::move(prefix)) {}

  std::string full_name(std::string_view name) const;

  MetricsRegistry* registry_ = nullptr;
  std::string prefix_;
};

/// Escapes a string for embedding in JSON output (shared by the metrics
/// and trace exporters).
std::string json_escape(std::string_view s);

}  // namespace gdmp::obs

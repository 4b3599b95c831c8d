#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string_view>

namespace gdmp::obs {

double histogram_percentile(const std::vector<double>& bounds,
                            const std::vector<std::int64_t>& bucket_counts,
                            double q, double overflow_value) noexcept {
  std::int64_t total = 0;
  for (const std::int64_t c : bucket_counts) total += c;
  if (total <= 0) return 0.0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(clamped * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    cumulative += bucket_counts[i];
    if (cumulative >= rank) {
      return i < bounds.size() ? bounds[i] : overflow_value;
    }
  }
  return overflow_value;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// ------------------------------------------------------------- RateWindow

RateWindow::RateWindow(int capacity)
    : ring_(static_cast<std::size_t>(capacity > 0 ? capacity : 1), 0) {}

void RateWindow::push(std::int64_t delta) noexcept {
  const int capacity = static_cast<int>(ring_.size());
  if (filled_ == capacity) {
    sum_ -= ring_[static_cast<std::size_t>(head_)];
  } else {
    ++filled_;
  }
  ring_[static_cast<std::size_t>(head_)] = delta;
  sum_ += delta;
  head_ = (head_ + 1) % capacity;
}

// ------------------------------------------------------ WindowedHistogram

WindowedHistogram::WindowedHistogram(int capacity)
    : ring_(static_cast<std::size_t>(capacity > 0 ? capacity : 1)) {}

void WindowedHistogram::push(const std::vector<std::int64_t>& bucket_deltas,
                             std::int64_t count_delta, double sum_delta) {
  if (merged_.size() != bucket_deltas.size()) {
    // First push (or a bucket-layout change, which registries never do):
    // restart the merge with this layout.
    merged_.assign(bucket_deltas.size(), 0);
    for (Slot& slot : ring_) slot = Slot{};
    head_ = 0;
    filled_ = 0;
    count_ = 0;
    sum_ = 0;
  }
  const int capacity = static_cast<int>(ring_.size());
  Slot& slot = ring_[static_cast<std::size_t>(head_)];
  if (filled_ == capacity) {
    // Evict the slot being overwritten from the merge.
    for (std::size_t i = 0; i < merged_.size(); ++i) {
      merged_[i] -= slot.buckets[i];
    }
    count_ -= slot.count;
    sum_ -= slot.sum;
  } else {
    ++filled_;
  }
  slot.buckets.assign(bucket_deltas.begin(), bucket_deltas.end());
  slot.count = count_delta;
  slot.sum = sum_delta;
  for (std::size_t i = 0; i < merged_.size(); ++i) {
    merged_[i] += bucket_deltas[i];
  }
  count_ += count_delta;
  sum_ += sum_delta;
  head_ = (head_ + 1) % capacity;
}

// -------------------------------------------------------- TimeSeriesStore

TimeSeriesStore::TimeSeriesStore(int window_ticks)
    : window_ticks_(window_ticks > 0 ? window_ticks : 1) {}

void TimeSeriesStore::apply_counter(CounterSeries& series,
                                    std::int64_t total) {
  std::int64_t delta = total - series.total;
  // A total that went backwards means the registry was cleared and reused;
  // treat the tick as quiet and re-anchor so rates never go negative.
  if (delta < 0) delta = 0;
  series.delta = delta;
  series.total = total;
  series.window.push(delta);
}

void TimeSeriesStore::apply_gauge(GaugeSeries& series, double value) {
  series.value = value;
  series.stats.add(value);
}

void TimeSeriesStore::apply_hist(HistSeries& series, std::int64_t count,
                                 double sum, double min, double max,
                                 const std::vector<double>& bounds,
                                 const std::vector<std::int64_t>& buckets) {
  if (series.bounds.empty()) series.bounds = bounds;
  std::int64_t count_delta = count - series.total_count;
  double sum_delta = sum - series.total_sum;
  bucket_scratch_.assign(buckets.size(), 0);
  if (series.total_buckets.size() == buckets.size()) {
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      bucket_scratch_[i] = buckets[i] - series.total_buckets[i];
    }
  } else {
    bucket_scratch_ = buckets;  // first sight of this series
  }
  if (count_delta < 0) {  // registry reuse: re-anchor, quiet tick
    count_delta = 0;
    sum_delta = 0;
    std::fill(bucket_scratch_.begin(), bucket_scratch_.end(), 0);
  }
  series.delta_count = count_delta;
  series.total_count = count;
  series.total_sum = sum;
  series.min = min;
  series.max = max;
  series.total_buckets = buckets;
  series.window.push(bucket_scratch_, count_delta, sum_delta);
}

void TimeSeriesStore::add_registry(const MetricsRegistry* registry) {
  Source source;
  source.registry = registry;
  sources_.push_back(source);
  // An explicit flag, not a faked-up generation: a generation sentinel can
  // collide when metrics are created between add_registry and the first
  // tick, silently leaving the plan empty forever.
  plan_dirty_ = true;
}

void TimeSeriesStore::rebuild_plan() {
  plan_dirty_ = false;
  plan_.clear();
  // First registry wins on (unexpected) duplicate names: one plan entry per
  // series, so a tick never double-pushes a window.
  std::set<std::string_view> planned;
  for (Source& source : sources_) {
    source.planned_generation = source.registry->generation();
    source.registry->visit([this, &planned](
                               const std::string& name, MetricKind kind,
                               const Counter* counter, const Gauge* gauge,
                               const Histogram* histogram) {
      if (!planned.insert(name).second) return;
      PlanEntry entry;
      entry.kind = kind;
      switch (kind) {
        case MetricKind::kCounter: {
          if (counter == nullptr) return;
          auto it = counters_.find(name);
          if (it == counters_.end()) {
            it = counters_.emplace(name, CounterSeries(window_ticks_)).first;
          }
          entry.counter = counter;
          entry.counter_series = &it->second;
          break;
        }
        case MetricKind::kGauge: {
          if (gauge == nullptr) return;
          entry.gauge = gauge;
          entry.gauge_series = &gauges_[name];
          break;
        }
        case MetricKind::kHistogram: {
          if (histogram == nullptr) return;
          auto it = hists_.find(name);
          if (it == hists_.end()) {
            it = hists_.emplace(name, HistSeries(window_ticks_)).first;
          }
          entry.histogram = histogram;
          entry.hist_series = &it->second;
          break;
        }
      }
      plan_.push_back(entry);
    });
  }
}

void TimeSeriesStore::tick() {
  if (!plan_dirty_) {
    for (const Source& source : sources_) {
      if (source.registry->generation() != source.planned_generation) {
        plan_dirty_ = true;
        break;
      }
    }
  }
  if (plan_dirty_) rebuild_plan();
  for (const PlanEntry& entry : plan_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        apply_counter(*entry.counter_series, entry.counter->value());
        break;
      case MetricKind::kGauge:
        apply_gauge(*entry.gauge_series, entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        const RunningStats& stats = h.stats();
        const std::int64_t count = static_cast<std::int64_t>(stats.count());
        apply_hist(*entry.hist_series, count,
                   stats.mean() * static_cast<double>(stats.count()),
                   stats.min(), stats.max(), h.bounds(), h.bucket_counts());
        break;
      }
    }
  }
  ++ticks_;
}

}  // namespace gdmp::obs

// Shared pieces of the repository benchmark: the per-repetition result,
// output checks, the host-clock span recorder and small statistics helpers.
//
// The benchmark measures the simulator from outside. Each workload builds
// its inputs from a seed, drives the public APIs of the src/ modules, and
// wraps every call it makes into a module in a host-clock span named
// "<layer>.<call>". Spans stay in memory and are written out at exit; the
// trace reducer (perfbench/reduce_trace.py) turns them into per-layer self
// times. Counts come from the modules' own stats() structs and metric
// registries, which are deterministic for a given seed.
#pragma once

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace perfbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double host_s_since(std::int64_t start_ns) {
  return static_cast<double>(host_ns() - start_ns) * 1e-9;
}

/// CPU time of the calling thread. The set-up and timed-phase figures use
/// it instead of the wall clock: the simulator is single-threaded and never
/// blocks, so CPU time is its cost without the time the host scheduler
/// lends to other processes.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double cpu_s_since(std::int64_t start_ns) {
  return static_cast<double>(cpu_ns() - start_ns) * 1e-9;
}

/// Host-clock spans around the benchmark's calls into each layer. Off by
/// default; the traced run turns it on. A span's parent is the span that
/// was open when it began, so a call made from inside a simulator event
/// nests under the enclosing "sim.run_until".
class HostTrace {
 public:
  struct Record {
    const char* name = nullptr;  // string literal "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into records(), -1 = root
  };

  static HostTrace& get() {
    static HostTrace trace;
    return trace;
  }

  void set_enabled(bool on) { enabled_ = on; }

  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto index = static_cast<std::int32_t>(records_.size());
    records_.push_back(
        Record{name, host_ns(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    records_[static_cast<std::size_t>(index)].end_ns = host_ns();
    stack_.pop_back();
  }

  void clear() {
    records_.clear();
    stack_.clear();
  }

  const std::vector<Record>& records() const noexcept { return records_; }

  /// Writes the spans as JSON ({"spans": [[name, start_ns, end_ns,
  /// parent], ...]}) with times relative to the first span.
  bool write_json(const std::string& path, const std::string& workload) const;

 private:
  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: `Span span("flow.start");` around one call into a layer.
class Span {
 public:
  explicit Span(const char* name) : index_(HostTrace::get().open(name)) {}
  ~Span() { HostTrace::get().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

/// Everything one repetition of a workload reports.
struct RepResult {
  double setup_s = 0;  // host seconds to build the grid and inputs
  double run_s = 0;    // host seconds for the timed phase

  /// Workload operations completed in the timed phase: transfers,
  /// flows, replicas (file + object requests) or catalog operations.
  std::int64_t ops = 0;

  /// Output checks: every one attempted, and those that failed.
  std::int64_t checks = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few messages

  /// Simulated outcomes (deterministic for a seed).
  double sim_makespan_s = 0;
  double sim_goodput_mbps = 0;
  double sim_op_p50_s = 0;
  double sim_op_p99_s = 0;

  /// Per-layer counts and ratios (deterministic for a seed).
  std::map<std::string, double> counts;

  /// Sim-time span summary from obs::Tracer (trace mode only).
  std::map<std::string, double> sim_spans;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// One named workload: `run` builds its inputs from `seed` and executes
/// one repetition; `input_digest` hashes the generated inputs only, so the
/// benchmark can confirm that a different seed changes them.
struct Workload {
  const char* name;
  RepResult (*run)(std::uint64_t seed, bool trace);
  std::uint64_t (*input_digest)(std::uint64_t seed);
};

RepResult run_wan_sweep(std::uint64_t seed, bool trace);
RepResult run_fluid_grid(std::uint64_t seed, bool trace);
RepResult run_replication(std::uint64_t seed, bool trace);
RepResult run_catalog_mix(std::uint64_t seed, bool trace);
std::uint64_t wan_sweep_digest(std::uint64_t seed);
std::uint64_t fluid_grid_digest(std::uint64_t seed);
std::uint64_t replication_digest(std::uint64_t seed);
std::uint64_t catalog_mix_digest(std::uint64_t seed);

/// The per-layer count names every workload reports (zero where the
/// workload bypasses the layer), in output order.
const std::vector<std::string>& layer_count_names();

/// Fills every name of layer_count_names() that `counts` lacks with 0.
void complete_counts(std::map<std::string, double>& counts);

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, q * static_cast<double>(values.size()) - 1e-9));
  return values[std::min(rank, values.size() - 1)];
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sums every counter of `registry` whose name ends with `suffix`.
double sum_counters(const gdmp::obs::MetricsRegistry& registry,
                    std::string_view suffix);

/// Runs `simulator` toward `deadline` in `slice` steps, each inside a
/// "sim.run_until" span, until `done()` holds or no event is pending. The
/// pending-event count is sampled between slices into `pending_max`.
template <typename Done>
void run_sliced(gdmp::sim::Simulator& simulator, gdmp::SimTime deadline,
                gdmp::SimDuration slice, double& pending_max, Done done) {
  while (!done() && simulator.now() < deadline && simulator.pending() > 0) {
    {
      Span span("sim.run_until");
      simulator.run_until(std::min(deadline, simulator.now() + slice));
    }
    pending_max =
        std::max(pending_max, static_cast<double>(simulator.pending()));
  }
}

/// Sim-time view of the existing obs::Tracer for one repetition: enabled
/// on construction when `on`, summarized per span name by `summarize`,
/// disabled and cleared on destruction.
class SimTrace {
 public:
  SimTrace(bool on, gdmp::sim::Simulator& simulator);
  ~SimTrace();
  SimTrace(const SimTrace&) = delete;
  SimTrace& operator=(const SimTrace&) = delete;

  /// Adds "<span>.count", "<span>.total_s" and "<span>.self_s" (duration
  /// minus the union of its children) for every span name, plus
  /// "sched.queue_wait_p99_s", to `out`. No-op when off.
  void summarize(std::map<std::string, double>& out) const;

 private:
  bool on_;
};

/// FNV-1a accumulation for input digests.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench

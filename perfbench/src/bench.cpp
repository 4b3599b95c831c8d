#include "bench.h"

#include <cstdio>

namespace perfbench {

bool HostTrace::write_json(const std::string& path,
                           const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"workload\": \"%s\", \"clock\": \"host_ns\", \"spans\": [",
               workload.c_str());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%s\n[\"%s\", %lld, %lld, %d]", i == 0 ? "" : ",", r.name,
                 static_cast<long long>(r.start_ns - t0),
                 static_cast<long long>(r.end_ns - t0), r.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

const std::vector<std::string>& layer_count_names() {
  static const std::vector<std::string> kNames = {
      "sim.events",
      "sim.pending_max",
      "net.segments",
      "net.retransmits",
      "net.timeouts",
      "net.link_packets",
      "net.link_drops",
      "net.events_per_segment",
      "flow.renegotiations",
      "flow.flows_recomputed",
      "flow.links_recomputed",
      "flow.flows_per_reneg",
      "gridftp.transfers",
      "gridftp.restarts",
      "gridftp.blocks_corrupted",
      "gridftp.control_rpcs",
      "rpc.requests",
      "rpc.auth_failures",
      "rpc.requests_per_replica",
      "catalog.cache_hits",
      "catalog.cache_misses",
      "catalog.cache_stale",
      "catalog.hit_ratio",
      "catalog.lookups_per_replica",
      "sched.completed",
      "sched.busy_deferrals",
      "sched.bounces_per_replica",
      "sched.retries",
      "sched.dead_lettered",
      "sched.peak_active",
      "gdmp.notifications",
      "gdmp.files_replicated",
      "gdmp.replication_failures",
      "gdmp.stage_requests",
      "storage.pool_hits",
      "storage.pool_misses",
      "storage.evictions",
      "storage.mss_stages",
      "storage.mss_archives",
      "objrep.requests",
      "objrep.packs_served",
      "objrep.chunks",
      "objrep.bytes_vs_file",
  };
  return kNames;
}

void complete_counts(std::map<std::string, double>& counts) {
  for (const std::string& name : layer_count_names()) counts.try_emplace(name, 0.0);
}

double sum_counters(const gdmp::obs::MetricsRegistry& registry,
                    std::string_view suffix) {
  double total = 0;
  registry.visit([&](const std::string& name, gdmp::obs::MetricKind kind,
                     const gdmp::obs::Counter* counter,
                     const gdmp::obs::Gauge*, const gdmp::obs::Histogram*) {
    if (kind == gdmp::obs::MetricKind::kCounter && counter != nullptr &&
        name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(counter->value());
    }
  });
  return total;
}

SimTrace::SimTrace(bool on, gdmp::sim::Simulator& simulator) : on_(on) {
  if (!on_) return;
  auto& tracer = gdmp::obs::Tracer::global();
  tracer.clear();
  tracer.set_clock([&simulator] { return simulator.now(); });
  tracer.enable(true);
}

SimTrace::~SimTrace() {
  if (!on_) return;
  auto& tracer = gdmp::obs::Tracer::global();
  tracer.enable(false);
  tracer.clear();
  tracer.set_clock(nullptr);
}

void SimTrace::summarize(std::map<std::string, double>& out) const {
  if (!on_) return;
  const auto& spans = gdmp::obs::Tracer::global().spans();
  // Children per parent id (span ids are dense from 1 after clear()).
  std::map<std::uint64_t, std::vector<std::pair<gdmp::SimTime, gdmp::SimTime>>>
      children;
  for (const auto& span : spans) {
    if (span.open || !span.parent.valid()) continue;
    children[span.parent.value].emplace_back(span.start, span.end);
  }
  std::vector<double> queue_waits;
  for (const auto& span : spans) {
    if (span.open) continue;
    const double total = gdmp::to_seconds(span.end - span.start);
    // Self time: the span minus the union of its children's intervals.
    double covered = 0;
    if (auto it = children.find(span.id.value); it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      gdmp::SimTime lo = 0, hi = -1;
      for (const auto& [s, e] : kids) {
        const gdmp::SimTime cs = std::max(s, span.start);
        const gdmp::SimTime ce = std::min(e, span.end);
        if (ce <= cs) continue;
        if (cs > hi) {
          if (hi > lo) covered += gdmp::to_seconds(hi - lo);
          lo = cs;
          hi = ce;
        } else {
          hi = std::max(hi, ce);
        }
      }
      if (hi > lo) covered += gdmp::to_seconds(hi - lo);
    }
    out[span.name + ".count"] += 1;
    out[span.name + ".total_s"] += total;
    out[span.name + ".self_s"] += total - covered;
    if (span.name == "sched.queue_wait") queue_waits.push_back(total);
  }
  out["sched.queue_wait_p99_s"] = quantile(queue_waits, 0.99);
}

}  // namespace perfbench

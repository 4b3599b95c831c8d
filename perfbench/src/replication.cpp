// replication: a GDMP production campaign on the fluid testbed.
//
// One producer with a mass-storage system and auto-archive publishes
// kCycles production cycles of AOD files. kSubscribers subscriber sites
// replicate every notified file through their ReplicationScheduler; their
// catalog lookups are the reads, publish and add_replica the writes. One
// analysis site requests a sparse object selection from every cycle
// (§5 object replication). The producer pool holds less than the whole
// campaign, so early cycles are evicted to tape; a late site then runs a
// missing_from catch-up that has to stage them back from MSS.
//
// Payloads move on the fluid model, so the cost sits in gdmp, sched, rpc,
// the catalog cache, storage and objrep rather than in packet TCP. The
// seed sets the consumer sites' uplinks, the cycle start times and sizes,
// the file contents and the object selections.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "objrep/selection.h"
#include "testbed/grid.h"
#include "testbed/workload.h"

namespace perfbench {
namespace {

using namespace gdmp;
using namespace gdmp::testbed;

constexpr int kSubscribers = 3;
constexpr int kCycles = 10;
constexpr int kFilesPerCycle = 40;
constexpr std::int64_t kEventsPerFile = 2000;  // one AOD file (19.5 MiB)
constexpr std::int64_t kEventsPerCycle = kFilesPerCycle * kEventsPerFile;
// Cycles start every kCyclePeriod plus a seeded delay of up to kMaxJitter,
// so consecutive cycles sometimes overlap at the subscribers' schedulers.
constexpr SimDuration kCyclePeriod = 120 * kSecond;
constexpr SimDuration kMaxJitter = 15 * kSecond;
constexpr int kObjectsPerSelection = 40;  // one AOD object per 2000 events
// Producer pool: about three cycles, so the first cycles go to tape only.
constexpr Bytes kProducerPool = 3 * kFilesPerCycle * kEventsPerFile * 10 * kKiB;

// Site indices in the grid.
constexpr std::size_t kProducer = 0;
constexpr std::size_t kFirstSubscriber = 1;
constexpr std::size_t kAnalysis = kFirstSubscriber + kSubscribers;
constexpr std::size_t kLate = kAnalysis + 1;

struct CycleInput {
  SimDuration offset;               // start within the campaign
  std::int64_t events;              // the last file holds the remainder
  std::vector<ObjectId> selection;  // sparse AOD objects of this cycle
};

/// Uplink of every non-producer site: 155 Mbit/s within +-10%, by seed.
std::vector<BitsPerSec> make_uplinks(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x0b1);
  std::vector<BitsPerSec> uplinks;
  for (std::size_t s = kFirstSubscriber; s <= kLate; ++s) {
    uplinks.push_back(static_cast<BitsPerSec>(155 * kMbps * rng.uniform(0.9, 1.1)));
  }
  return uplinks;
}

std::vector<CycleInput> make_inputs(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x9e9);
  std::vector<CycleInput> inputs(kCycles);
  for (int c = 0; c < kCycles; ++c) {
    CycleInput& in = inputs[static_cast<std::size_t>(c)];
    in.offset = c * kCyclePeriod + rng.uniform_int(0, kMaxJitter);
    in.events = kEventsPerCycle - rng.uniform_int(0, kEventsPerFile - 1);
    std::map<std::int64_t, bool> events;
    while (static_cast<int>(events.size()) < kObjectsPerSelection) {
      events[c * kEventsPerCycle + rng.uniform_int(0, in.events - 1)] = true;
    }
    for (const auto& [event, unused] : events) {
      in.selection.push_back(
          objstore::make_object_id(objstore::Tier::kAod, event));
    }
  }
  return inputs;
}

GridConfig make_config(std::uint64_t seed) {
  GridConfig config;
  config.transfer_model = flow::TransferModel::kFluid;
  config.event_count = kCycles * kEventsPerCycle;
  config.seed = seed;
  const auto add_site = [&](const std::string& name, BitsPerSec uplink) {
    GridSiteSpec spec;
    spec.name = name;
    spec.wan.wan_bandwidth = uplink;
    spec.site.gdmp.transfer.parallel_streams = 4;
    spec.site.gdmp.transfer.tcp_buffer = 1 * kMiB;
    spec.site.objrep.copier.max_output_file = 16 * kMiB;
    config.sites.push_back(spec);
  };
  const std::vector<BitsPerSec> uplinks = make_uplinks(seed);
  add_site("cern", 622 * kMbps);
  for (int i = 0; i < kSubscribers; ++i) {
    add_site("sub" + std::to_string(i), uplinks[static_cast<std::size_t>(i)]);
  }
  add_site("caltech", uplinks[kAnalysis - kFirstSubscriber]);
  add_site("lyon", uplinks[kLate - kFirstSubscriber]);
  SiteConfig& producer = config.sites[kProducer].site;
  producer.has_mss = true;
  // Enough drives that archiving (a 30 s mount per file) keeps pace with
  // production; a pool evicts a file whose archive is still queued.
  producer.mss.tape_drives = 16;
  producer.gdmp.auto_archive_published = true;
  producer.pool_capacity = kProducerPool;
  return config;
}

/// State the campaign's simulator callbacks share (captured by pointer so
/// each callback fits the simulator's inline budget).
struct Campaign {
  Grid* grid = nullptr;
  std::uint64_t seed = 0;
  const std::vector<CycleInput>* inputs = nullptr;
  RepResult* out = nullptr;

  std::vector<core::PublishedFile> files;        // every produced file
  std::map<LogicalFileName, std::uint32_t> crc;  // at production time
  Bytes campaign_bytes = 0;                      // sum of file sizes
  int object_requests_done = 0;
  int subscriber_replicas_done = 0;
  std::vector<double> notify_to_registered_s;
  Bytes object_bytes = 0;
  double object_cover_bytes = 0;
  SimTime last_completion = 0;
  bool late_done = false;
  std::int64_t late_files = 0;
  std::int64_t late_replicas_done = 0;
  std::vector<LogicalFileName> late_queue;
  std::size_t late_next = 0;
  int late_in_flight = 0;

  void note(SimTime t) { last_completion = std::max(last_completion, t); }
};

void request_objects(Campaign* camp, int cycle) {
  Grid& grid = *camp->grid;
  Site& producer = grid.site(kProducer);
  Site& analysis = grid.site(kAnalysis);
  Span span("objrep.refresh_index");
  analysis.objrep().refresh_index_from(
      producer.name(), producer.host().id(),
      producer.gdmp_server().config().server_port,
      [camp, cycle](Status indexed) {
        camp->out->check(indexed.is_ok(), "replication: index refresh failed");
        Grid& g = *camp->grid;
        const auto& needed =
            (*camp->inputs)[static_cast<std::size_t>(cycle)].selection;
        camp->object_cover_bytes += static_cast<double>(
            objrep::files_covering(g.site(kProducer).federation()->catalog(),
                                   g.model(), needed)
                .total_bytes);
        Span objects_span("objrep.replicate_objects");
        g.site(kAnalysis).objrep().replicate_objects(
            needed,
            [camp, cycle](
                Result<objrep::ObjectReplicationService::Outcome> outcome) {
              Grid& gg = *camp->grid;
              const auto& sel =
                  (*camp->inputs)[static_cast<std::size_t>(cycle)].selection;
              camp->out->check(outcome.is_ok(),
                               "replication: object request failed");
              if (outcome.is_ok()) {
                camp->out->check(
                    outcome->objects_requested ==
                            static_cast<std::int64_t>(sel.size()) &&
                        outcome->payload_bytes ==
                            objrep::selection_bytes(gg.model(), sel),
                    "replication: object outcome does not match selection");
                camp->object_bytes += outcome->transferred_bytes;
              }
              ++camp->object_requests_done;
              camp->note(gg.simulator().now());
            });
      });
}

void run_cycle(Campaign* camp, int cycle) {
  Site& producer = camp->grid->site(kProducer);
  std::vector<core::PublishedFile> files;
  {
    Span span("testbed.produce");
    ProductionConfig production;
    production.tier = objstore::Tier::kAod;
    production.event_lo = cycle * kEventsPerCycle;
    production.event_hi =
        cycle * kEventsPerCycle +
        (*camp->inputs)[static_cast<std::size_t>(cycle)].events;
    production.run_name =
        "s" + std::to_string(camp->seed) + "c" + std::to_string(cycle);
    files = produce_run(producer, production);
  }
  camp->out->check(static_cast<int>(files.size()) == kFilesPerCycle,
                   "replication: cycle produced " +
                       std::to_string(files.size()) + " files");
  for (const auto& file : files) {
    auto info = producer.pool().peek(file.local_path);
    camp->crc[file.lfn] = info.is_ok() ? info->crc() : 0;
    camp->campaign_bytes += info.is_ok() ? info->size : 0;
    camp->files.push_back(file);
  }
  Span span("gdmp.publish");
  producer.gdmp().publish(files, [camp, cycle](Status published) {
    camp->out->check(published.is_ok(), "replication: publish failed");
    request_objects(camp, cycle);
  });
}

void subscribe_consumers(Campaign* camp) {
  Grid& grid = *camp->grid;
  for (std::size_t s = kFirstSubscriber; s < kAnalysis; ++s) {
    Site& site = grid.site(s);
    // The notification-driven consumer path of §4.1: every notified file
    // goes to this site's scheduler, exactly as auto-replication would
    // enqueue it, with a completion that records notify -> registered.
    site.gdmp_server().on_notification = [camp, s](const std::string&,
                                                   const core::PublishedFile&
                                                       file) {
      Grid& g = *camp->grid;
      const SimTime notified = g.simulator().now();
      Span span("sched.submit");
      g.site(s).scheduler().submit(
          file.lfn, 0,
          [camp, notified](Result<gridftp::TransferResult> result) {
            camp->out->check(result.is_ok(),
                             "replication: subscriber replication failed");
            const SimTime now = camp->grid->simulator().now();
            camp->notify_to_registered_s.push_back(to_seconds(now - notified));
            ++camp->subscriber_replicas_done;
            camp->note(now);
          });
    };
  }
}

/// Keeps kLateWindow catch-up replications in flight, pulling from the
/// producer the catalog was compared against, so the evicted early cycles
/// must come back from tape.
void pump_late(Campaign* camp) {
  constexpr int kLateWindow = 4;
  while (camp->late_in_flight < kLateWindow &&
         camp->late_next < camp->late_queue.size()) {
    const LogicalFileName& lfn = camp->late_queue[camp->late_next++];
    ++camp->late_in_flight;
    core::GdmpServer::ReplicateOptions options;
    options.choose_source =
        [producer = camp->grid->site(kProducer).name()](
            const std::vector<Uri>& sources) -> Result<std::size_t> {
      for (std::size_t i = 0; i < sources.size(); ++i) {
        if (sources[i].host == producer) return i;
      }
      return Status(ErrorCode::kNotFound, "producer holds no replica");
    };
    Span span("gdmp.replicate");
    camp->grid->site(kLate).gdmp_server().replicate(
        lfn, options, [camp](Result<gridftp::TransferResult> result) {
          camp->out->check(result.is_ok(),
                           "replication: late catch-up failed: " +
                               result.status().to_string());
          --camp->late_in_flight;
          ++camp->late_replicas_done;
          camp->note(camp->grid->simulator().now());
          if (camp->late_replicas_done == camp->late_files) {
            camp->late_done = true;
          } else {
            pump_late(camp);
          }
        });
  }
}

void start_late_site(Campaign* camp) {
  Grid& grid = *camp->grid;
  Site& producer = grid.site(kProducer);
  Span span("gdmp.missing_from");
  grid.site(kLate).gdmp().missing_from(
      producer.host().id(), producer.gdmp_server().config().server_port,
      [camp](Result<std::vector<core::PublishedFile>> missing) {
        camp->out->check(missing.is_ok(), "replication: missing_from failed");
        if (!missing.is_ok() || missing->empty()) {
          camp->late_done = true;
          return;
        }
        camp->out->check(missing->size() == camp->files.size(),
                         "replication: late site misses " +
                             std::to_string(missing->size()) + " of " +
                             std::to_string(camp->files.size()) + " files");
        camp->late_files = static_cast<std::int64_t>(missing->size());
        for (const auto& file : *missing) camp->late_queue.push_back(file.lfn);
        pump_late(camp);
      });
}

}  // namespace

std::uint64_t replication_digest(std::uint64_t seed) {
  std::uint64_t h = kDigestBasis;
  mix(h, seed);  // file contents are derived from the seed
  for (const BitsPerSec uplink : make_uplinks(seed)) {
    mix(h, static_cast<std::uint64_t>(uplink));
  }
  for (const CycleInput& in : make_inputs(seed)) {
    mix(h, static_cast<std::uint64_t>(in.offset));
    mix(h, static_cast<std::uint64_t>(in.events));
    for (const ObjectId id : in.selection) mix(h, id.value);
  }
  return h;
}

RepResult run_replication(std::uint64_t seed, bool trace) {
  RepResult out;
  const std::int64_t setup_start = cpu_ns();
  const std::vector<CycleInput> inputs = make_inputs(seed);

  std::unique_ptr<Grid> grid;
  {
    Span span("testbed.grid_build");
    grid = std::make_unique<Grid>(make_config(seed));
    out.check(grid->start().is_ok(), "replication: grid start failed");
  }
  sim::Simulator& simulator = grid->simulator();
  SimTrace sim_trace(trace, simulator);
  Campaign camp;
  camp.grid = grid.get();
  camp.seed = seed;
  camp.inputs = &inputs;
  camp.out = &out;
  camp.files.reserve(kCycles * kFilesPerCycle);

  Site& producer = grid->site(kProducer);
  int subscribed = 0;
  for (std::size_t s = kFirstSubscriber; s < kAnalysis; ++s) {
    Span span("gdmp.subscribe");
    grid->site(s).gdmp().subscribe(
        producer.host().id(), producer.gdmp_server().config().server_port,
        [&subscribed](Status status) { subscribed += status.is_ok(); });
  }
  subscribe_consumers(&camp);
  double pending_max = 0;
  run_sliced(simulator, simulator.now() + 60 * kSecond, 10 * kSecond,
             pending_max, [&] { return subscribed == kSubscribers; });
  out.check(subscribed == kSubscribers, "replication: subscriptions failed");
  out.setup_s = cpu_s_since(setup_start);

  // --- timed phase: the campaign, then the late site's catch-up --------
  const std::int64_t run_start = cpu_ns();
  const SimTime campaign_start = simulator.now();
  for (int c = 0; c < kCycles; ++c) {
    simulator.schedule(inputs[static_cast<std::size_t>(c)].offset,
                       [cp = &camp, c] { run_cycle(cp, c); });
  }
  constexpr int kSubscriberReplicas = kCycles * kFilesPerCycle * kSubscribers;
  const SimTime deadline = campaign_start + 48 * 3600 * kSecond;
  run_sliced(simulator, deadline, 10 * kSecond, pending_max, [&] {
    return camp.subscriber_replicas_done == kSubscriberReplicas &&
           camp.object_requests_done == kCycles;
  });
  start_late_site(&camp);
  run_sliced(simulator, deadline, 10 * kSecond, pending_max,
             [&] { return camp.late_done; });
  out.run_s = cpu_s_since(run_start);
  const auto events = static_cast<double>(simulator.events_fired());

  // --- checks ----------------------------------------------------------
  out.check(camp.subscriber_replicas_done == kSubscriberReplicas,
            "replication: " + std::to_string(camp.subscriber_replicas_done) +
                " of " + std::to_string(kSubscriberReplicas) +
                " subscriber replicas completed");
  out.check(camp.object_requests_done == kCycles,
            "replication: object requests did not all complete");
  out.check(camp.late_done, "replication: late catch-up did not finish");
  const catalog::ShardedCatalog& catalog = grid->catalog().catalog();
  const std::string& collection =
      producer.gdmp_server().config().collection;
  for (const core::PublishedFile& file : camp.files) {
    const std::uint32_t crc = camp.crc[file.lfn];
    for (std::size_t s = kFirstSubscriber; s < grid->site_count(); ++s) {
      if (s == kAnalysis) continue;
      Site& site = grid->site(s);
      auto info = site.pool().peek(site.gdmp_server().local_path_for(file.lfn));
      out.check(info.is_ok() && info->crc() == crc,
                "replication: " + site.name() + " lacks a CRC-matching " +
                    file.lfn);
    }
    Span span("catalog.lookup");
    auto locations = catalog.lookup(collection, file.lfn);
    out.check(locations.is_ok() &&
                  locations->size() == static_cast<std::size_t>(kSubscribers) + 2,
              "replication: catalog does not list every replica of " +
                  file.lfn);
  }

  // --- outcomes and counts ---------------------------------------------
  const std::int64_t file_replicas =
      camp.subscriber_replicas_done + camp.late_files;
  out.ops = file_replicas + camp.object_requests_done;
  out.sim_makespan_s = to_seconds(camp.last_completion - campaign_start);
  // Every file reached each subscriber and the late site.
  const double file_bytes =
      static_cast<double>(camp.campaign_bytes) * (kSubscribers + 1);
  out.sim_goodput_mbps =
      ratio((file_bytes + static_cast<double>(camp.object_bytes)) * 8 / 1e6,
            out.sim_makespan_s);
  out.sim_op_p50_s = quantile(camp.notify_to_registered_s, 0.5);
  out.sim_op_p99_s = quantile(camp.notify_to_registered_s, 0.99);

  auto& c = out.counts;
  const auto add = [&c](const char* name, double v) { c[name] += v; };
  const double replicas = static_cast<double>(out.ops);
  double cache_lookups = 0;
  for (std::size_t s = 0; s < grid->site_count(); ++s) {
    Site& site = grid->site(s);
    const auto& reg = site.metrics();
    add("net.segments", sum_counters(reg, ".net.tcp.segments_sent"));
    add("net.retransmits", sum_counters(reg, ".net.tcp.retransmits"));
    add("net.timeouts", sum_counters(reg, ".net.tcp.timeouts"));
    if (const net::Link* link = grid->uplink(s)) {
      add("net.link_packets", static_cast<double>(link->stats().packets_sent));
      add("net.link_drops", static_cast<double>(link->stats().packets_dropped));
    }
    add("gridftp.transfers",
        static_cast<double>(site.ftp_server().stats().retrievals));
    add("gridftp.restarts", sum_counters(reg, ".transfer.restarts"));
    add("gridftp.blocks_corrupted",
        static_cast<double>(site.ftp_server().stats().blocks_corrupted));
    add("gridftp.control_rpcs",
        sum_counters(reg, ".gridftp.rpc.requests_served"));
    add("rpc.requests", sum_counters(reg, ".rpc.requests_served"));
    add("rpc.auth_failures", sum_counters(reg, ".rpc.auth_failures"));
    const auto& cache = site.gdmp_server().catalog().lookup_cache_stats();
    add("catalog.cache_hits", static_cast<double>(cache.hits));
    add("catalog.cache_misses", static_cast<double>(cache.misses));
    add("catalog.cache_stale", static_cast<double>(cache.stale_probes));
    cache_lookups += static_cast<double>(cache.hits + cache.misses +
                                         cache.stale_probes);
    const auto& sched = site.scheduler().stats();
    add("sched.completed", static_cast<double>(sched.completed));
    add("sched.busy_deferrals", static_cast<double>(sched.busy_deferrals));
    // Registry mirror of the same count, kept to show it diverges: the
    // scheduler creates site.*.sched.busy_deferrals but never adds to it.
    add("sched.busy_deferrals_registry",
        sum_counters(reg, ".sched.busy_deferrals"));
    add("sched.retries", static_cast<double>(sched.retries));
    add("sched.dead_lettered", static_cast<double>(sched.dead_lettered));
    c["sched.peak_active"] =
        std::max(c["sched.peak_active"], static_cast<double>(sched.peak_active));
    const auto& gdmp = site.gdmp_server().stats();
    add("gdmp.notifications", static_cast<double>(gdmp.notifications_received));
    add("gdmp.files_replicated", static_cast<double>(gdmp.files_replicated));
    add("gdmp.replication_failures",
        static_cast<double>(gdmp.replication_failures));
    add("gdmp.stage_requests", static_cast<double>(gdmp.stage_requests_served));
    const auto& pool = site.pool().stats();
    add("storage.pool_hits", static_cast<double>(pool.hits));
    add("storage.pool_misses", static_cast<double>(pool.misses));
    add("storage.evictions", static_cast<double>(pool.evictions));
    if (const auto* mss = site.mss()) {
      add("storage.mss_stages", static_cast<double>(mss->stats().stages));
      add("storage.mss_archives", static_cast<double>(mss->stats().archives));
    }
    const auto& objrep = site.objrep().stats();
    add("objrep.requests", static_cast<double>(objrep.requests));
    add("objrep.packs_served", static_cast<double>(objrep.packs_served));
    add("objrep.chunks", static_cast<double>(objrep.chunks_received));
  }
  // The catalog host serves RPCs outside any site registry.
  add("rpc.requests", static_cast<double>(grid->catalog().operations_served()));
  const flow::FlowEngineStats& flow = grid->flow_engine()->stats();
  c["flow.renegotiations"] = static_cast<double>(flow.renegotiations);
  c["flow.flows_recomputed"] = static_cast<double>(flow.flows_recomputed);
  c["flow.links_recomputed"] = static_cast<double>(flow.links_recomputed);
  c["flow.flows_per_reneg"] =
      ratio(static_cast<double>(flow.flows_recomputed),
            static_cast<double>(flow.renegotiations));
  c["sim.events"] = events;
  c["sim.pending_max"] = pending_max;
  c["rpc.requests_per_replica"] = ratio(c["rpc.requests"], replicas);
  c["catalog.hit_ratio"] = ratio(c["catalog.cache_hits"], cache_lookups);
  c["catalog.lookups_per_replica"] = ratio(cache_lookups, replicas);
  c["sched.bounces_per_replica"] =
      ratio(c["sched.busy_deferrals"], c["sched.completed"]);
  c["objrep.bytes_vs_file"] =
      ratio(static_cast<double>(camp.object_bytes), camp.object_cover_bytes);

  out.check(c["sched.dead_lettered"] == 0,
            "replication: scheduler dead-lettered requests");
  out.check(c["storage.mss_stages"] > 0,
            "replication: the late catch-up staged nothing from MSS");
  sim_trace.summarize(out.sim_spans);
  return out;
}

}  // namespace perfbench

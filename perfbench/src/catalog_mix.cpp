// catalog_mix: an open loop of replica-catalog requests in sim time.
//
// Four CatalogClients at different sites (seeded WAN delays around the
// 125 ms CERN-ANL round trip) send Poisson-timed requests to one
// CatalogServer: about 90% lookups, about 10% writes (half
// add_replica at the client's own location, half publish_batch of new
// files) and rare attribute searches. Lookup keys are Zipf-skewed over a
// catalog populated in set-up with more LFNs than one client cache holds,
// so the tail of the key set misses the cache and remote writes force
// stamp revalidation. ShardedCatalog, LdapStore, CatalogCache and the
// rc.*_batch RPCs do most of the work; no payload moves.
//
// Latency is measured from each request's due time. The benchmark keeps a
// shadow of every replica location it created: a lookup may lag remote
// writes by the cache TTL, but must never list a location that does not
// exist, and must always show the client's own completed writes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "gdmp/catalog_service.h"
#include "net/topology.h"
#include "security/credentials.h"

namespace perfbench {
namespace {

using namespace gdmp;

constexpr int kClients = 4;
// The catalog holds twice as many LFNs as one client cache, so the tail of
// the key set misses. Both are scaled down from the GDMP defaults (65,536
// cache entries) to keep one repetition near a second.
constexpr int kKeys = 16'384;
constexpr std::size_t kCacheCapacity = 8'192;
constexpr int kRequests = 16'000;
constexpr double kRatePerClient = 20.0;  // requests per sim second
constexpr double kZipfExponent = 0.9;
constexpr double kWriteShare = 0.10;
constexpr double kSearchShare = 0.001;
constexpr int kPublishBatch = 4;
constexpr int kRunIndexes = 100;  // attribute values searches select on
constexpr SimDuration kCacheTtl = 60 * kSecond;
constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;
const char* const kCollection = "cms";

enum class Op { kLookup, kAddReplica, kPublish, kSearch };

struct Request {
  SimTime due;
  int client;
  Op op;
  int key;  // lookup / add_replica target, search run index
};

std::string key_lfn(int key) { return "lfn://cms/mix/" + std::to_string(key); }
std::string site_name(int client) { return "site" + std::to_string(client); }
std::string url_prefix(const std::string& site) {
  return "gsiftp://" + site + ":2811/pool";
}

/// Zipf(kZipfExponent) ranks mapped through a fixed permutation, so the
/// hot keys spread over every shard.
class KeySampler {
 public:
  KeySampler() : cdf_(kKeys) {
    double total = 0;
    for (int r = 0; r < kKeys; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cdf_[static_cast<std::size_t>(r)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto rank = static_cast<std::uint64_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<int>((rank * 0x9e3779b1ULL + 12345) % kKeys);
  }

 private:
  std::vector<double> cdf_;
};

/// One-way WAN delay of each site's leg: 31.25 ms within +-5%, by seed
/// (two legs in series make the 125 ms CERN-ANL round trip).
std::vector<SimDuration> make_delays(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xde1);
  std::vector<SimDuration> delays;
  for (int c = 0; c <= kClients; ++c) {
    delays.push_back(static_cast<SimDuration>(
        static_cast<double>(31 * kMillisecond + 250 * kMicrosecond) *
        rng.uniform(0.95, 1.05)));
  }
  return delays;
}

std::vector<Request> make_inputs(std::uint64_t seed) {
  static const KeySampler sampler;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xca7);
  std::vector<Request> requests;
  requests.reserve(kRequests);
  std::vector<double> clock(kClients, 1.0);  // start after set-up settles
  for (int i = 0; i < kRequests; ++i) {
    const int client = i % kClients;
    clock[static_cast<std::size_t>(client)] +=
        rng.exponential(1.0 / kRatePerClient);
    Request r{};
    r.due = static_cast<SimTime>(clock[static_cast<std::size_t>(client)] *
                                 static_cast<double>(kSecond));
    r.client = client;
    const double u = rng.uniform();
    if (u < kSearchShare) {
      r.op = Op::kSearch;
      r.key = static_cast<int>(rng.uniform_int(0, kRunIndexes - 1));
    } else if (u < kSearchShare + kWriteShare / 2) {
      r.op = Op::kAddReplica;
      r.key = sampler.sample(rng);
    } else if (u < kSearchShare + kWriteShare) {
      r.op = Op::kPublish;
      r.key = 0;
    } else {
      r.op = Op::kLookup;
      r.key = sampler.sample(rng);
    }
    requests.push_back(r);
  }
  return requests;
}

/// The mix's state shared by the request callbacks.
struct Mix {
  sim::Simulator* simulator = nullptr;
  std::vector<std::unique_ptr<core::CatalogClient>> clients;
  const std::vector<Request>* requests = nullptr;
  RepResult* out = nullptr;

  /// Shadow of every replica location, by key: bit c = site c holds it
  /// (the populated location included).
  std::vector<std::uint8_t> locations;
  /// Per client and key: sim time its own add_replica completed (-1 none).
  std::vector<std::vector<SimTime>> own_write_done;
  std::vector<int> run_index_base;   // populated files per run index
  std::vector<int> run_index_count;  // populated + published so far
  int published = 0;                 // new LFNs published so far
  std::int64_t completed = 0;
  std::vector<double> lookup_latency_s;
  SimTime last_completion = 0;

  void finish(const Request& r) {
    ++completed;
    last_completion = std::max(last_completion, simulator->now());
    if (r.op == Op::kLookup) {
      lookup_latency_s.push_back(to_seconds(simulator->now() - r.due));
    }
  }
};

void check_lookup(Mix* mix, const Request& r, SimTime issued,
                  const Result<core::ReplicaInfo>& result) {
  mix->out->check(result.is_ok(), "catalog_mix: lookup failed");
  if (!result.is_ok()) return;
  const std::string lfn = key_lfn(r.key);
  std::uint8_t seen = 0;
  bool known = true;
  for (const PhysicalFileName& pfn : result->locations) {
    bool matched = false;
    for (int c = 0; c <= kClients; ++c) {
      if (pfn == url_prefix(site_name(c)) + "/" + lfn) {
        seen |= static_cast<std::uint8_t>(1u << c);
        matched = true;
      }
    }
    known = known && matched;
  }
  const std::uint8_t truth = mix->locations[static_cast<std::size_t>(r.key)];
  mix->out->check(known && (seen & ~truth) == 0,
                  "catalog_mix: lookup lists a location that does not exist");
  const std::uint8_t home = static_cast<std::uint8_t>(1u << (r.key % kClients));
  mix->out->check((seen & home) != 0,
                  "catalog_mix: lookup lost the populated location");
  const SimTime own = mix->own_write_done[static_cast<std::size_t>(r.client)]
                                         [static_cast<std::size_t>(r.key)];
  if (own >= 0 && own <= issued) {
    mix->out->check((seen & (1u << r.client)) != 0,
                    "catalog_mix: a site's own write is invisible to it");
  }
}

void issue(Mix* mix, std::size_t index) {
  const Request& r = (*mix->requests)[index];
  core::CatalogClient& client = *mix->clients[static_cast<std::size_t>(r.client)];
  const std::string site = site_name(r.client);
  const SimTime issued = mix->simulator->now();
  switch (r.op) {
    case Op::kLookup: {
      Span span("catalog.lookup");
      client.lookup(kCollection, key_lfn(r.key),
                    [mix, index, issued](Result<core::ReplicaInfo> result) {
                      const Request& req = (*mix->requests)[index];
                      check_lookup(mix, req, issued, result);
                      mix->finish(req);
                    });
      break;
    }
    case Op::kAddReplica: {
      Span span("catalog.add_replica");
      client.add_replica(
          kCollection, key_lfn(r.key), site, url_prefix(site),
          [mix, index](Status status) {
            const Request& req = (*mix->requests)[index];
            // A replica this site already registered is not an error.
            const bool ok =
                status.is_ok() || status.code() == ErrorCode::kAlreadyExists;
            mix->out->check(ok, "catalog_mix: add_replica failed");
            if (ok) {
              mix->locations[static_cast<std::size_t>(req.key)] |=
                  static_cast<std::uint8_t>(1u << req.client);
              mix->own_write_done[static_cast<std::size_t>(req.client)]
                                 [static_cast<std::size_t>(req.key)] =
                  mix->simulator->now();
            }
            mix->finish(req);
          });
      break;
    }
    case Op::kPublish: {
      std::vector<core::PublishedFile> files(kPublishBatch);
      for (int i = 0; i < kPublishBatch; ++i) {
        const int serial = mix->published++;
        core::PublishedFile& file = files[static_cast<std::size_t>(i)];
        file.lfn = "lfn://cms/new/" + site + "/" + std::to_string(serial);
        file.local_path = "/pool/" + file.lfn;
        file.size = 1 * kMiB + serial;
        file.content_seed = static_cast<std::uint64_t>(serial) * 2654435761u;
        file.extra["runidx"] = std::to_string(serial % kRunIndexes);
      }
      Span span("catalog.publish_batch");
      client.publish_batch(
          kCollection, files, site, url_prefix(site),
          [mix, index, files](Status status, std::vector<Status> statuses) {
            bool ok = status.is_ok() && statuses.size() == files.size();
            for (const Status& s : statuses) ok = ok && s.is_ok();
            mix->out->check(ok, "catalog_mix: publish_batch failed");
            if (ok) {
              for (const auto& file : files) {
                ++mix->run_index_count[static_cast<std::size_t>(
                    std::stoi(file.extra.at("runidx")))];
              }
            }
            mix->finish((*mix->requests)[index]);
          });
      break;
    }
    case Op::kSearch: {
      Span span("catalog.search");
      client.search(
          kCollection, "(runidx=" + std::to_string(r.key) + ")",
          [mix, index](Result<std::vector<core::ReplicaInfo>> found) {
            const Request& req = (*mix->requests)[index];
            // A cached search may lag new publishes by the TTL, but it
            // holds every populated file and nothing unpublished.
            const auto k = static_cast<std::size_t>(req.key);
            const int n = found.is_ok() ? static_cast<int>(found->size()) : -1;
            mix->out->check(n >= mix->run_index_base[k] &&
                                n <= mix->run_index_count[k],
                            "catalog_mix: search result count out of range");
            mix->finish(req);
          });
      break;
    }
  }
}

}  // namespace

std::uint64_t catalog_mix_digest(std::uint64_t seed) {
  std::uint64_t h = kDigestBasis;
  for (const SimDuration d : make_delays(seed)) mix(h, static_cast<std::uint64_t>(d));
  for (const Request& r : make_inputs(seed)) {
    mix(h, static_cast<std::uint64_t>(r.due));
    mix(h, static_cast<std::uint64_t>(r.client) << 8 |
               static_cast<std::uint64_t>(r.op));
    mix(h, static_cast<std::uint64_t>(r.key));
  }
  return h;
}

RepResult run_catalog_mix(std::uint64_t seed, bool trace) {
  RepResult out;
  const std::int64_t setup_start = cpu_ns();
  const std::vector<Request> requests = make_inputs(seed);

  sim::Simulator simulator;
  net::Network network(simulator);
  obs::MetricsRegistry registry;
  net::GridTopology topology;
  std::vector<std::unique_ptr<net::TcpStack>> stacks;
  {
    Span span("net.build_grid");
    const std::vector<SimDuration> delays = make_delays(seed);
    std::vector<net::GridSiteLink> sites(kClients + 1);
    for (int c = 0; c <= kClients; ++c) {
      auto& link = sites[static_cast<std::size_t>(c)];
      link.site_name = c == kClients ? "rc" : site_name(c);
      link.wan.wan_one_way_delay = delays[static_cast<std::size_t>(c)];
    }
    topology = net::make_grid_topology(network, sites);
    for (int c = 0; c <= kClients; ++c) {
      stacks.push_back(std::make_unique<net::TcpStack>(
          simulator, *topology.hosts[static_cast<std::size_t>(c)]));
      stacks.back()->set_metrics(registry.scope(
          (c == kClients ? std::string("rc") : site_name(c)) + ".net.tcp"));
    }
  }
  SimTrace sim_trace(trace, simulator);
  security::CertificateAuthority ca("BenchCA");
  core::CatalogServerConfig server_config;
  server_config.shards = 8;
  core::CatalogServer server(*stacks[kClients], ca,
                             ca.issue("/CN=replica-catalog", kYear),
                             server_config);
  out.check(server.start().is_ok(), "catalog_mix: server start failed");

  Mix mix;
  mix.simulator = &simulator;
  mix.requests = &requests;
  mix.out = &out;
  mix.locations.assign(kKeys, 0);
  mix.own_write_done.assign(kClients, std::vector<SimTime>(kKeys, -1));
  mix.run_index_count.assign(kRunIndexes, 0);
  {
    // Populate: every key registered with one replica at site key % 4.
    Span span("catalog.populate");
    catalog::ShardedCatalog& catalog = server.catalog();
    bool ok = catalog.create_collection(kCollection).is_ok();
    for (int c = 0; c < kClients; ++c) {
      ok = ok && catalog
                     .create_location(kCollection, site_name(c),
                                      url_prefix(site_name(c)))
                     .is_ok();
    }
    for (int key = 0; key < kKeys; ++key) {
      catalog::LogicalFileAttributes attributes;
      attributes.size = 1 * kMiB + key;
      attributes.extra["runidx"] = std::to_string(key % kRunIndexes);
      const int home = key % kClients;
      ok = ok &&
           catalog.register_logical_file(kCollection, key_lfn(key), attributes)
               .is_ok() &&
           catalog.add_replica(kCollection, site_name(home), key_lfn(key))
               .is_ok();
      mix.locations[static_cast<std::size_t>(key)] =
          static_cast<std::uint8_t>(1u << home);
      ++mix.run_index_count[static_cast<std::size_t>(key % kRunIndexes)];
    }
    out.check(ok, "catalog_mix: populate failed");
    mix.run_index_base = mix.run_index_count;
  }
  for (int c = 0; c < kClients; ++c) {
    core::CatalogClientConfig config;
    config.cache_ttl = kCacheTtl;
    config.cache_capacity = kCacheCapacity;
    mix.clients.push_back(std::make_unique<core::CatalogClient>(
        *stacks[static_cast<std::size_t>(c)],
        topology.hosts[kClients]->id(), server_config.port, ca,
        ca.issue("/CN=" + site_name(c), kYear), config));
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    simulator.schedule_at(requests[i].due, [m = &mix, i] { issue(m, i); });
  }
  out.setup_s = cpu_s_since(setup_start);

  // --- timed phase: the open loop --------------------------------------
  const std::int64_t run_start = cpu_ns();
  double pending_max = 0;
  run_sliced(simulator, 24 * 3600 * kSecond, 10 * kSecond, pending_max,
             [&] { return mix.completed == kRequests; });
  out.run_s = cpu_s_since(run_start);

  out.check(mix.completed == kRequests,
            "catalog_mix: " + std::to_string(mix.completed) + " of " +
                std::to_string(kRequests) + " requests completed");
  out.ops = mix.completed;
  const SimTime first_due = requests.front().due;
  out.sim_makespan_s = to_seconds(mix.last_completion - first_due);
  const double delivered = sum_counters(registry, ".net.tcp.bytes_delivered");
  out.sim_goodput_mbps = ratio(delivered * 8 / 1e6, out.sim_makespan_s);
  out.sim_op_p50_s = quantile(mix.lookup_latency_s, 0.5);
  out.sim_op_p99_s = quantile(mix.lookup_latency_s, 0.99);

  auto& c = out.counts;
  c["sim.events"] = static_cast<double>(simulator.events_fired());
  c["sim.pending_max"] = pending_max;
  c["net.segments"] = sum_counters(registry, ".net.tcp.segments_sent");
  c["net.retransmits"] = sum_counters(registry, ".net.tcp.retransmits");
  c["net.timeouts"] = sum_counters(registry, ".net.tcp.timeouts");
  c["net.events_per_segment"] = ratio(c["sim.events"], c["net.segments"]);
  c["rpc.requests"] = static_cast<double>(server.operations_served());
  double lookups = 0;
  for (const auto& client : mix.clients) {
    const auto& stats = client->lookup_cache_stats();
    c["catalog.cache_hits"] += static_cast<double>(stats.hits);
    c["catalog.cache_misses"] += static_cast<double>(stats.misses);
    c["catalog.cache_stale"] += static_cast<double>(stats.stale_probes);
    lookups += static_cast<double>(stats.hits + stats.misses +
                                   stats.stale_probes);
  }
  c["catalog.hit_ratio"] = ratio(c["catalog.cache_hits"], lookups);
  sim_trace.summarize(out.sim_spans);
  return out;
}

}  // namespace perfbench

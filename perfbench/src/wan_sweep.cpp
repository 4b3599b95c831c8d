// wan_sweep: the §6 GridFTP measurement as a closed loop with one client.
//
// Sequential extended_gets on the packet model over the 45 Mbit/s,
// 125 ms CERN-ANL path with 18 Mbit/s of CBR cross traffic each way: a
// fixed subset of the Fig 5/6 sweep (1 MB and 100 MB files, 1-10 streams,
// 64 KB and 1 MB buffers). The seed sets the cross-traffic generators and
// the file contents, so each seed sees a different loss pattern. Every
// point must complete CRC-verified with a rate inside the band
// EXPERIMENTS.md records for Fig 5/6.
#include <memory>
#include <vector>

#include "bench.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/cross_traffic.h"
#include "net/topology.h"
#include "storage/disk.h"
#include "storage/disk_pool.h"

namespace perfbench {
namespace {

using namespace gdmp;

struct Point {
  Bytes file_size;
  int streams;
  Bytes buffer;
  double band_lo_mbps;  // Fig 5/6 band the measured rate must fall in
  double band_hi_mbps;
};

// Bands: EXPERIMENTS.md Fig 5/6 tables widened for the loss pattern a
// different cross-traffic seed produces. A 64 KB window caps one stream
// at 64 KiB / 125 ms = 4.2 Mbit/s; the 27 Mbit/s left by the cross
// traffic caps every point. The sweep leaves out the multi-stream 1 MB
// points of 100 MB: their drop-tail loss bursts make the work of one run
// depend on the seed (1.6x more segments from one seed to the next), so
// host time would measure the seed instead of the code.
const std::vector<Point>& points() {
  static const std::vector<Point> kPoints = {
      {1 * kMiB, 1, 64 * kKiB, 1.5, 4.0},
      {1 * kMiB, 4, 64 * kKiB, 2.5, 6.5},
      {1 * kMiB, 10, 64 * kKiB, 3.0, 7.5},
      {1 * kMiB, 1, 1 * kMiB, 2.5, 6.5},
      {1 * kMiB, 4, 1 * kMiB, 2.8, 7.0},
      {1 * kMiB, 10, 1 * kMiB, 3.0, 7.5},
      {100 * kMiB, 10, 64 * kKiB, 18.0, 27.5},
      {100 * kMiB, 1, 1 * kMiB, 15.0, 27.5},
  };
  return kPoints;
}

std::uint64_t point_seed(std::uint64_t seed, std::size_t index) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x51ed27 + index * 0x2545f491ULL;
}

constexpr SimDuration kYear = 365LL * 24 * 3600 * kSecond;
constexpr BitsPerSec kCrossTraffic = 18 * kMbps;

}  // namespace

std::uint64_t wan_sweep_digest(std::uint64_t seed) {
  std::uint64_t h = kDigestBasis;
  for (std::size_t i = 0; i < points().size(); ++i) {
    mix(h, point_seed(seed, i));
    mix(h, static_cast<std::uint64_t>(points()[i].file_size));
  }
  return h;
}

RepResult run_wan_sweep(std::uint64_t seed, bool trace) {
  RepResult out;
  std::vector<double> seconds;
  double bytes_total = 0;
  double segments = 0, retransmits = 0, timeouts = 0, link_packets = 0,
         link_drops = 0, restarts = 0, corrupted = 0, control_rpcs = 0,
         events = 0, transfers = 0, pending_max = 0, pool_hits = 0,
         pool_misses = 0;

  for (std::size_t index = 0; index < points().size(); ++index) {
    const Point& point = points()[index];
    const std::uint64_t pseed = point_seed(seed, index);
    const std::int64_t setup_start = cpu_ns();

    // --- set-up: path, stacks, storage, server, cross traffic ---------
    sim::Simulator simulator;
    SimTrace sim_trace(trace, simulator);
    net::Network network(simulator);
    obs::MetricsRegistry registry;
    net::WanPath path;
    std::unique_ptr<net::TcpStack> server_stack, client_stack;
    std::unique_ptr<net::DatagramSink> sink_a, sink_b;
    std::unique_ptr<net::CbrSource> cbr_up, cbr_down;
    security::CertificateAuthority ca("BenchCA");
    storage::Disk disk(simulator, storage::DiskConfig{});
    storage::DiskPool pool(100 * kGiB, disk);
    std::unique_ptr<gridftp::FtpServer> server;
    std::unique_ptr<gridftp::FtpClient> client;
    std::uint32_t expected_crc = 0;
    {
      Span span("net.build_path");
      path = net::make_wan_path(network, "cern", "anl");
      server_stack = std::make_unique<net::TcpStack>(simulator, *path.host_a);
      client_stack = std::make_unique<net::TcpStack>(simulator, *path.host_b);
      server_stack->set_metrics(registry.scope("cern.net.tcp"));
      client_stack->set_metrics(registry.scope("anl.net.tcp"));
      net::CbrConfig cbr;
      cbr.rate = kCrossTraffic;
      sink_a = std::make_unique<net::DatagramSink>(*path.host_a);
      sink_b = std::make_unique<net::DatagramSink>(*path.host_b);
      cbr_up = std::make_unique<net::CbrSource>(network, *path.host_a,
                                                *path.host_b, cbr, pseed + 1);
      cbr_down = std::make_unique<net::CbrSource>(
          network, *path.host_b, *path.host_a, cbr, pseed + 2);
      cbr_up->start();
      cbr_down->start();
    }
    {
      Span span("storage.add_file");
      auto added = pool.add_file("/pool/testfile", point.file_size,
                                 pseed ^ 0x7e57, 0);
      out.check(added.is_ok(), "wan_sweep: add_file failed");
      if (added.is_ok()) expected_crc = added->crc();
    }
    {
      Span span("gridftp.server_start");
      server = std::make_unique<gridftp::FtpServer>(
          *server_stack, pool, ca, ca.issue("/CN=cern-gridftp", kYear));
      server->set_metrics(registry.scope("cern.gridftp"));
      out.check(server->start().is_ok(), "wan_sweep: server start failed");
      client = std::make_unique<gridftp::FtpClient>(
          *client_stack, ca, ca.issue("/CN=anl-client", kYear));
    }
    {
      // Let the cross traffic reach steady state before the transfer.
      Span span("sim.run_until");
      simulator.run_until(2 * kSecond);
    }
    out.setup_s += cpu_s_since(setup_start);

    // --- timed phase: one extended_get --------------------------------
    const std::int64_t run_start = cpu_ns();
    gridftp::TransferOptions options;
    options.parallel_streams = point.streams;
    options.tcp_buffer = point.buffer;
    options.expected_crc = expected_crc;
    bool done = false;
    Result<gridftp::TransferResult> result =
        Status(ErrorCode::kInternal, "transfer never completed");
    {
      Span span("gridftp.get");
      client->get(path.host_a->id(), gridftp::kControlPort, "/pool/testfile",
                  "/discard", /*pool=*/nullptr, options,
                  [&](Result<gridftp::TransferResult> r) {
                    done = true;
                    result = std::move(r);
                    // CBR would otherwise keep the slice running.
                    simulator.request_stop();
                  });
    }
    run_sliced(simulator, 4 * 3600 * kSecond, 1 * kSecond, pending_max,
               [&] { return done; });
    out.run_s += cpu_s_since(run_start);
    events += static_cast<double>(simulator.events_fired());

    // --- checks and counts --------------------------------------------
    out.check(done && result.is_ok(), "wan_sweep: transfer failed");
    if (done && result.is_ok()) {
      const auto& r = *result;
      out.check(r.bytes == point.file_size, "wan_sweep: short transfer");
      out.check(r.crc == expected_crc, "wan_sweep: CRC mismatch");
      out.check(r.mbps >= point.band_lo_mbps && r.mbps <= point.band_hi_mbps,
                "wan_sweep: rate " + std::to_string(r.mbps) +
                    " Mbit/s outside the Fig 5/6 band at point " +
                    std::to_string(index));
      seconds.push_back(to_seconds(r.elapsed));
      bytes_total += static_cast<double>(r.bytes);
      restarts += r.attempts - 1;
      ++out.ops;
    }
    segments += sum_counters(registry, ".net.tcp.segments_sent");
    retransmits += sum_counters(registry, ".net.tcp.retransmits");
    timeouts += sum_counters(registry, ".net.tcp.timeouts");
    for (const net::Link* link : {path.bottleneck_ab, path.bottleneck_ba}) {
      link_packets += static_cast<double>(link->stats().packets_sent);
      link_drops += static_cast<double>(link->stats().packets_dropped);
    }
    pool_hits += static_cast<double>(pool.stats().hits);
    pool_misses += static_cast<double>(pool.stats().misses);
    transfers += static_cast<double>(server->stats().retrievals);
    corrupted += static_cast<double>(server->stats().blocks_corrupted);
    control_rpcs += sum_counters(registry, ".gridftp.rpc.requests_served");
    cbr_up->stop();
    cbr_down->stop();
    sim_trace.summarize(out.sim_spans);
  }

  double makespan = 0;
  for (const double s : seconds) makespan += s;
  out.sim_makespan_s = makespan;
  out.sim_goodput_mbps = ratio(bytes_total * 8.0 / 1e6, makespan);
  out.sim_op_p50_s = quantile(seconds, 0.5);
  out.sim_op_p99_s = quantile(seconds, 0.99);

  auto& c = out.counts;
  c["sim.events"] = events;
  c["sim.pending_max"] = pending_max;
  c["net.segments"] = segments;
  c["net.retransmits"] = retransmits;
  c["net.timeouts"] = timeouts;
  c["net.link_packets"] = link_packets;
  c["net.link_drops"] = link_drops;
  c["net.events_per_segment"] = ratio(events, segments);
  c["gridftp.transfers"] = transfers;
  c["gridftp.restarts"] = restarts;
  c["gridftp.blocks_corrupted"] = corrupted;
  c["gridftp.control_rpcs"] = control_rpcs;
  c["rpc.requests"] = control_rpcs;
  c["storage.pool_hits"] = pool_hits;
  c["storage.pool_misses"] = pool_misses;
  return out;
}

}  // namespace perfbench

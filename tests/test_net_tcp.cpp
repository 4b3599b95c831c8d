// Tests for the network simulator and TCP Reno+SACK implementation.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "net/cross_traffic.h"
#include "net/tcp.h"
#include "net/topology.h"

namespace gdmp::net {
namespace {

struct WanFixture {
  sim::Simulator simulator;
  Network network{simulator};
  WanPath path;
  std::unique_ptr<TcpStack> stack_a;
  std::unique_ptr<TcpStack> stack_b;

  explicit WanFixture(WanConfig config = {}) {
    path = make_wan_path(network, "a", "b", config);
    stack_a = std::make_unique<TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<TcpStack>(simulator, *path.host_b);
  }
};

TEST(Link, DropsWhenQueueFull) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 1 * kMbps;
  config.queue_capacity = 3000;
  int delivered = 0;
  Link link(simulator, config, [&](const Packet&) { ++delivered; });
  Packet packet;
  packet.payload_len = 1000;
  for (int i = 0; i < 5; ++i) link.enqueue(packet);
  simulator.run();
  EXPECT_EQ(delivered, 2);  // 2×1040 fit in 3000; the rest dropped
  EXPECT_EQ(link.stats().packets_dropped, 3);
}

TEST(Link, SerializationPlusPropagationDelay) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte per microsecond
  config.propagation = 10 * kMillisecond;
  SimTime arrival = -1;
  Link link(simulator, config, [&](const Packet&) { arrival = simulator.now(); });
  Packet packet;
  packet.payload_len = 960;  // wire = 1000 B -> 1 ms serialization
  link.enqueue(packet);
  simulator.run();
  EXPECT_EQ(arrival, 11 * kMillisecond);
}

TEST(Link, UtilizationSampleOnEmptyWindowRepeatsLastValue) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;  // 1 byte per microsecond
  Link link(simulator, config, [](const Packet&) {});
  Packet packet;
  packet.payload_len = 960;  // wire = 1000 B -> 1 ms busy
  link.enqueue(packet);
  simulator.run_until(2 * kMillisecond);
  const double utilization = link.sample_utilization();
  EXPECT_NEAR(utilization, 0.5, 0.01);  // 1 ms busy of a 2 ms window
  // Regression: sampling again with no sim time elapsed used to divide by
  // a zero-length window. It must repeat the last sample and leave the
  // window anchors alone.
  EXPECT_EQ(link.sample_utilization(), utilization);
  // The anchors did not move: the next real window still measures cleanly.
  link.enqueue(packet);
  simulator.run_until(4 * kMillisecond);
  EXPECT_NEAR(link.sample_utilization(), 0.5, 0.01);
}

TEST(Link, DeliveryCountersTrackArrivals) {
  sim::Simulator simulator;
  LinkConfig config;
  config.bandwidth = 8 * kMbps;
  config.queue_capacity = 3000;
  Link link(simulator, config, [](const Packet&) {});
  Packet packet;
  packet.payload_len = 1000;  // wire = 1040 B
  for (int i = 0; i < 5; ++i) link.enqueue(packet);  // 2 fit, 3 drop
  simulator.run();
  EXPECT_EQ(link.stats().packets_delivered, 2);
  EXPECT_EQ(link.stats().bytes_delivered, 2 * 1040);
  EXPECT_EQ(link.stats().bytes_sent, link.stats().bytes_delivered);
  EXPECT_EQ(link.stats().packets_dropped, 3);
}

// ------------------------------------------------- link FIFO equivalence

/// Reference link with two kernel events per packet: one when its
/// serialization ends (releasing its queue space) and one when it arrives.
/// net::Link's single-event FIFO must reproduce it exactly.
class PerPacketReferenceLink {
 public:
  PerPacketReferenceLink(sim::Simulator& simulator, LinkConfig config,
                         std::function<void(const Packet&)> deliver)
      : simulator_(simulator), config_(config), deliver_(std::move(deliver)) {}

  bool enqueue(const Packet& packet) {
    const Bytes size = packet.wire_size();
    if (backlog_ + size > config_.queue_capacity) {
      ++stats_.packets_dropped;
      stats_.bytes_dropped += size;
      return false;
    }
    backlog_ += size;
    ++stats_.packets_sent;
    stats_.bytes_sent += size;
    const SimTime start = std::max(busy_until_, simulator_.now());
    const SimTime done = start + transmission_delay(size, config_.bandwidth);
    busy_until_ = done;
    busy_time_ += done - start;
    simulator_.schedule_at(done, [this, size] { backlog_ -= size; });
    in_flight_.push_back(packet);
    simulator_.schedule_at(done + config_.propagation, [this] {
      const Packet arrived = in_flight_.front();
      in_flight_.pop_front();
      ++stats_.packets_delivered;
      stats_.bytes_delivered += arrived.wire_size();
      deliver_(arrived);
    });
    return true;
  }

  void set_bandwidth(BitsPerSec bandwidth) { config_.bandwidth = bandwidth; }
  Bytes backlog() const { return backlog_; }
  SimDuration queueing_delay() const {
    return busy_until_ > simulator_.now() ? busy_until_ - simulator_.now() : 0;
  }
  SimDuration busy_time() const { return busy_time_ - queueing_delay(); }
  const LinkStats& stats() const { return stats_; }

 private:
  sim::Simulator& simulator_;
  LinkConfig config_;
  std::function<void(const Packet&)> deliver_;
  LinkStats stats_;
  Bytes backlog_ = 0;
  SimTime busy_until_ = 0;
  SimDuration busy_time_ = 0;
  std::deque<Packet> in_flight_;
};

/// What one side of a pair saw at each delivery.
struct Delivery {
  SimTime at;
  std::int64_t id;
  Bytes backlog;
  SimDuration queueing_delay;
  SimDuration busy_time;
  bool operator==(const Delivery&) const = default;
};

void expect_same_stats(const LinkStats& a, const LinkStats& b) {
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
}

class LinkFifo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkFifo, MatchesPerPacketReference) {
  Rng rng(GetParam());
  sim::Simulator simulator;
  // Packets re-sent from a delivery callback carry id + kEcho, once.
  constexpr std::int64_t kEcho = 1'000'000;

  struct Pair {
    std::unique_ptr<PerPacketReferenceLink> ref;
    std::unique_ptr<Link> link;
    std::vector<Delivery> ref_log;
    std::vector<Delivery> log;
  };
  // Pair 0 has no propagation delay; pair 2's delay is a whole number of
  // 1040-byte serializations, so its deliveries land on later packets'
  // serialization-done instants.
  constexpr int kPairs = 3;
  std::vector<Pair> pairs(kPairs);
  const BitsPerSec rates[] = {8 * kMbps, 45 * kMbps, 100 * kMbps};
  for (int i = 0; i < kPairs; ++i) {
    LinkConfig config;
    config.bandwidth = rates[rng.uniform_int(0, 2)];
    const SimDuration tx = transmission_delay(1040, config.bandwidth);
    config.propagation = i == 0   ? 0
                         : i == 1 ? rng.uniform_int(1, 3000) * kMicrosecond
                                  : rng.uniform_int(1, 4) * tx;
    config.queue_capacity = rng.uniform_int(3, 8) * 1040;
    Pair& pair = pairs[i];
    // Each side logs its own state at every delivery and echoes some
    // packets back onto its own link, exercising an enqueue from inside
    // the delivery event.
    pair.ref = std::make_unique<PerPacketReferenceLink>(
        simulator, config, [&pair, &simulator](const Packet& p) {
          pair.ref_log.push_back({simulator.now(), p.seq, pair.ref->backlog(),
                                  pair.ref->queueing_delay(),
                                  pair.ref->busy_time()});
          if (p.seq < kEcho && p.seq % 5 == 0) {
            Packet echo = p;
            echo.seq += kEcho;
            pair.ref->enqueue(echo);
          }
        });
    pair.link = std::make_unique<Link>(
        simulator, config, [&pair, &simulator](const Packet& p) {
          pair.log.push_back({simulator.now(), p.seq, pair.link->backlog(),
                              pair.link->queueing_delay(),
                              pair.link->busy_time()});
          if (p.seq < kEcho && p.seq % 5 == 0) {
            Packet echo = p;
            echo.seq += kEcho;
            pair.link->enqueue(echo);
          }
        });
  }

  int accepted = 0;
  int dropped = 0;
  int exact_fits = 0;        // accepted with the backlog landing on capacity
  int early_probes = 0;      // at a done instant, scheduled before the packet
  int late_probes = 0;       // at a done instant, scheduled after it
  int instant_enqueues = 0;  // enqueues made by probes at those instants
  std::int64_t next_id = 1;

  const auto compare = [&](Pair& pair) {
    EXPECT_EQ(pair.ref->backlog(), pair.link->backlog());
    EXPECT_EQ(pair.ref->queueing_delay(), pair.link->queueing_delay());
    EXPECT_EQ(pair.ref->busy_time(), pair.link->busy_time());
    expect_same_stats(pair.ref->stats(), pair.link->stats());
  };
  const auto make_packet = [&] {
    Packet p;
    p.seq = next_id++;
    const Bytes payloads[] = {0, 500, 1000, 1000, 1000, 1460};
    p.payload_len = payloads[rng.uniform_int(0, 5)];
    return p;
  };
  // Enqueues one packet on both sides of `pair`; both must decide alike.
  const auto enqueue_both = [&](Pair& pair, const Packet& p) {
    const Bytes before = pair.ref->backlog();
    const bool ok = pair.ref->enqueue(p);
    EXPECT_EQ(pair.link->enqueue(p), ok);
    if (!ok) {
      ++dropped;
      return false;
    }
    ++accepted;
    if (before + p.wire_size() == pair.link->config().queue_capacity) {
      ++exact_fits;
    }
    return true;
  };
  // A probe compares both sides at an instant of interest and may enqueue
  // one more packet exactly then.
  const auto probe = [&](Pair& pair, SimTime at, bool add) {
    simulator.schedule_at(at, [&, pair_ptr = &pair, add] {
      compare(*pair_ptr);
      if (!add) return;
      enqueue_both(*pair_ptr, make_packet());
      ++instant_enqueues;
    });
  };
  const auto burst = [&](Pair& pair, int count) {
    for (int k = 0; k < count; ++k) {
      const Packet p = make_packet();
      const SimTime done =
          simulator.now() + pair.link->queueing_delay() +
          transmission_delay(p.wire_size(), pair.link->config().bandwidth);
      const bool early = rng.chance(0.5);
      if (early) probe(pair, done, rng.chance(0.5));
      const bool ok = enqueue_both(pair, p);
      if (ok && early) ++early_probes;
      if (rng.chance(0.5)) {
        probe(pair, done, rng.chance(0.5));
        if (ok) ++late_probes;
      }
      if (ok && rng.chance(0.3)) {
        probe(pair, done + pair.link->config().propagation, rng.chance(0.5));
      }
    }
  };

  constexpr SimTime kHorizon = 400 * kMillisecond;
  constexpr SimDuration kGrid = 520 * kMicrosecond;  // half a 1040 B @ 8 Mb/s
  for (int op = 0; op < 400; ++op) {
    const SimTime at = rng.uniform_int(0, kHorizon / kGrid) * kGrid;
    const int which = static_cast<int>(rng.uniform_int(0, kPairs - 1));
    const double kind = rng.uniform();
    if (kind < 0.75) {
      const int count = static_cast<int>(rng.uniform_int(1, 8));
      simulator.schedule_at(at,
                            [&, which, count] { burst(pairs[which], count); });
    } else if (kind < 0.85) {
      const BitsPerSec rate = rates[rng.uniform_int(0, 2)];
      simulator.schedule_at(at, [&, which, rate] {
        pairs[which].ref->set_bandwidth(rate);
        pairs[which].link->set_bandwidth(rate);
        compare(pairs[which]);
      });
    } else {
      simulator.schedule_at(at, [&, which] { compare(pairs[which]); });
    }
  }
  simulator.run();

  for (Pair& pair : pairs) {
    compare(pair);
    EXPECT_EQ(pair.link->backlog(), 0);
    ASSERT_EQ(pair.log.size(), pair.ref_log.size());
    for (std::size_t i = 0; i < pair.log.size(); ++i) {
      ASSERT_EQ(pair.log[i], pair.ref_log[i]) << "delivery " << i;
    }
  }
  EXPECT_EQ(simulator.pending(), 0u);
  // The seeded run reached the cases it exists for.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(exact_fits, 0);
  EXPECT_GT(early_probes, 0);
  EXPECT_GT(late_probes, 0);
  EXPECT_GT(instant_enqueues, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkFifo,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Network, RoutesAcrossMultipleHops) {
  sim::Simulator simulator;
  Network network(simulator);
  auto path = make_wan_path(network, "x", "y");
  bool received = false;
  path.host_b->set_protocol_handler(Protocol::kDatagram,
                                    [&](const Packet&) { received = true; });
  Packet packet;
  packet.src = path.host_a->id();
  packet.dst = path.host_b->id();
  packet.protocol = Protocol::kDatagram;
  packet.payload_len = 100;
  EXPECT_TRUE(path.host_a->send(packet));
  simulator.run();
  EXPECT_TRUE(received);
}

TEST(Network, FindByName) {
  sim::Simulator simulator;
  Network network(simulator);
  make_wan_path(network, "cern", "anl");
  ASSERT_NE(network.find("cern"), nullptr);
  ASSERT_NE(network.find("anl-gw"), nullptr);
  EXPECT_EQ(network.find("slac"), nullptr);
}

TEST(Tcp, HandshakeEstablishesBothSides) {
  WanFixture f;
  TcpConfig config;
  TcpConnection::Ptr accepted;
  ASSERT_TRUE(f.stack_b->listen(
      5000, config, [&](TcpConnection::Ptr c) { accepted = std::move(c); }));
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  bool established = false;
  client->on_established = [&](const Status& s) { established = s.is_ok(); };
  f.simulator.run_until(10 * kSecond);
  EXPECT_TRUE(established);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(accepted->established());
}

TEST(Tcp, ConnectToClosedPortFails) {
  WanFixture f;
  auto client = f.stack_a->connect(f.path.host_b->id(), 1234, TcpConfig{});
  Status result = Status::ok();
  bool called = false;
  client->on_established = [&](const Status& s) {
    called = true;
    result = s;
  };
  f.simulator.run_until(10 * kSecond);
  EXPECT_TRUE(called);
  EXPECT_EQ(result.code(), ErrorCode::kAborted);
}

TEST(Tcp, RealBytesArriveInOrderAndIntact) {
  WanFixture f;
  std::vector<std::uint8_t> received;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_data = [&](std::span<const std::uint8_t> data) {
      received.insert(received.end(), data.begin(), data.end());
    };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  std::vector<std::uint8_t> sent(10000);
  std::iota(sent.begin(), sent.end(), 0);
  client->on_established = [&](const Status&) {
    client->send(sent);
  };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(received, sent);
}

TEST(Tcp, SyntheticBytesCountedExactly) {
  WanFixture f;
  Bytes received = 0;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_synthetic_data = [&](Bytes n) { received += n; };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send_synthetic(5 * kMiB);
  };
  f.simulator.run_until(120 * kSecond);
  EXPECT_EQ(received, 5 * kMiB);
}

TEST(Tcp, MixedRealAndSyntheticPreserveOrder) {
  WanFixture f;
  std::string log;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_data = [&](std::span<const std::uint8_t> d) {
      log += "r" + std::to_string(d.size());
    };
    c->on_synthetic_data = [&](Bytes n) { log += "s" + std::to_string(n); };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send({1, 2, 3});
    client->send_synthetic(1000);
    client->send({4, 5});
  };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(log, "r3s1000r2");
}

TEST(Tcp, ThroughputIsWindowLimitedWithSmallBuffers) {
  // 64 KB window / 125 ms RTT ≈ 4.2 Mbit/s — the paper's untuned baseline.
  WanFixture f;
  TcpConfig config;
  config.send_buffer = 64 * kKiB;
  config.recv_buffer = 64 * kKiB;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 5 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) {
    client->send_synthetic(total);
  };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(120 * kSecond);
  ASSERT_GT(finished, 0);
  const double mbps = throughput_mbps(total, finished);
  EXPECT_GT(mbps, 3.0);
  EXPECT_LT(mbps, 5.0);
}

TEST(Tcp, TunedBufferFillsMostOfThePipe) {
  WanFixture f;
  TcpConfig config;
  config.send_buffer = 1 * kMiB;
  config.recv_buffer = 1 * kMiB;
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 20 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) { client->send_synthetic(total); };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(120 * kSecond);
  ASSERT_GT(finished, 0);
  EXPECT_GT(throughput_mbps(total, finished), 25.0);  // of 45 Mbit/s
}

TEST(Tcp, RecoversFromHeavyCongestionLoss) {
  // Two tuned flows overflow a BDP-sized bottleneck queue; both must still
  // finish and retransmissions must be recorded.
  WanConfig wan;
  wan.wan_queue = 704 * kKiB;  // 2 x 1 MiB windows cannot fit
  WanFixture f(wan);
  TcpConfig config;
  config.send_buffer = 1 * kMiB;
  config.recv_buffer = 1 * kMiB;
  std::vector<TcpConnection::Ptr> servers;
  (void)f.stack_b->listen(5000, config,
                    [&](TcpConnection::Ptr c) { servers.push_back(c); });
  int done = 0;
  std::vector<TcpConnection::Ptr> clients;
  for (int i = 0; i < 2; ++i) {
    auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
    auto* client_raw = client.get();  // `clients` owns it; avoid a self-cycle
    client->on_established = [client_raw](const Status&) {
      client_raw->send_synthetic(10 * kMiB);
    };
    client->on_send_drained = [&done] { ++done; };
    clients.push_back(client);
  }
  f.simulator.run_until(300 * kSecond);
  EXPECT_EQ(done, 2);
  const auto total_retx = clients[0]->stats().retransmits +
                          clients[1]->stats().retransmits +
                          clients[0]->stats().timeouts +
                          clients[1]->stats().timeouts;
  EXPECT_GT(total_retx, 0);
  EXPECT_GT(f.path.bottleneck_ab->stats().packets_dropped, 0);
}

TEST(Tcp, GracefulCloseCompletesBothSides) {
  WanFixture f;
  TcpConnection::Ptr server;
  bool server_closed = false, client_closed = false;
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_closed = [&](const Status& s) { server_closed = s.is_ok(); };
    auto* raw = c.get();  // `server` owns it; avoid a self-cycle
    c->on_synthetic_data = [raw](Bytes) { raw->close(); };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) {
    client->send_synthetic(1000);
    client->close();
  };
  client->on_closed = [&](const Status& s) { client_closed = s.is_ok(); };
  f.simulator.run_until(60 * kSecond);
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(f.stack_a->connection_count(), 0u);
  EXPECT_EQ(f.stack_b->connection_count(), 0u);
}

TEST(Tcp, AbortResetsPeer) {
  WanFixture f;
  TcpConnection::Ptr server;
  Status server_status = Status::ok();
  (void)f.stack_b->listen(5000, TcpConfig{}, [&](TcpConnection::Ptr c) {
    server = c;
    c->on_closed = [&](const Status& s) { server_status = s; };
  });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, TcpConfig{});
  client->on_established = [&](const Status&) { client->abort(); };
  f.simulator.run_until(30 * kSecond);
  EXPECT_EQ(server_status.code(), ErrorCode::kAborted);
}

// Parameterized sweep: throughput must scale roughly with buffer size while
// window-limited (property derived from throughput = window / RTT).
class TcpBufferSweep : public ::testing::TestWithParam<Bytes> {};

TEST_P(TcpBufferSweep, ThroughputTracksWindowOverRtt) {
  WanFixture f;
  TcpConfig config;
  config.send_buffer = GetParam();
  config.recv_buffer = GetParam();
  TcpConnection::Ptr server;
  (void)f.stack_b->listen(5000, config, [&](TcpConnection::Ptr c) { server = c; });
  auto client = f.stack_a->connect(f.path.host_b->id(), 5000, config);
  const Bytes total = 8 * kMiB;
  SimTime finished = 0;
  client->on_established = [&](const Status&) { client->send_synthetic(total); };
  client->on_send_drained = [&] {
    if (finished == 0) finished = f.simulator.now();
  };
  f.simulator.run_until(600 * kSecond);
  ASSERT_GT(finished, 0);
  const double expected =
      static_cast<double>(GetParam()) * 8.0 / 0.125 / 1e6;  // window/RTT
  const double measured = throughput_mbps(total, finished);
  EXPECT_GT(measured, expected * 0.6);
  EXPECT_LT(measured, expected * 1.3);
}

INSTANTIATE_TEST_SUITE_P(WindowLimited, TcpBufferSweep,
                         ::testing::Values(32 * kKiB, 64 * kKiB, 128 * kKiB,
                                           256 * kKiB));

TEST(CrossTraffic, CbrOffersConfiguredRate) {
  sim::Simulator simulator;
  Network network(simulator);
  auto path = make_wan_path(network, "a", "b");
  DatagramSink sink(*path.host_b);
  CbrConfig config;
  config.rate = 10 * kMbps;
  CbrSource source(network, *path.host_a, *path.host_b, config, 5);
  source.start();
  simulator.run_until(10 * kSecond);
  source.stop();
  const double offered_mbps =
      static_cast<double>(source.bytes_offered()) * 8.0 / 10.0 / 1e6;
  EXPECT_NEAR(offered_mbps, 10.0, 0.7);
  EXPECT_GT(sink.bytes_received(), 0);
}

}  // namespace
}  // namespace gdmp::net

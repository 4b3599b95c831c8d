// Tests for the fluid-flow transfer model (src/flow): the weighted max-min
// solver, the engine's incremental renegotiation, teardown discipline, and
// fluid GridFTP end to end — including the Figure 5/6 operating points
// where the fluid model must track the packet model within tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/random.h"
#include "counting_callback.h"
#include "flow/fair_share.h"
#include "flow/flow_engine.h"
#include "gridftp/client.h"
#include "gridftp/server.h"
#include "net/topology.h"
#include "obs/channel.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/disk_pool.h"

namespace gdmp::flow {
namespace {

constexpr SimTime kYear = 365LL * 24 * 3600 * kSecond;
constexpr double kEff = 1460.0 / 1500.0;

// ---------------------------------------------------------------- WaterFill

TEST(WaterFill, EqualSharesOnOneLink) {
  std::vector<ShareFlow> flows(4);
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership;
  for (auto& flow : flows) {
    flow.link_begin = static_cast<std::int32_t>(membership.size());
    flow.link_count = 1;
    membership.push_back(0);
  }
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  for (const auto& flow : flows) {
    EXPECT_NEAR(flow.rate, 25e6, 1.0);
    EXPECT_EQ(flow.bottleneck, 0);
  }
}

TEST(WaterFill, WeightsSplitProportionally) {
  std::vector<ShareFlow> flows(2);
  flows[0].weight = 1.0;
  flows[1].weight = 3.0;
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  flows[1].link_begin = 1;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 25e6, 1.0);
  EXPECT_NEAR(flows[1].rate, 75e6, 1.0);
}

TEST(WaterFill, CapBoundFlowFreesBandwidthForOthers) {
  std::vector<ShareFlow> flows(2);
  flows[0].cap = 10e6;
  std::vector<ShareLink> links(1);
  links[0].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  flows[1].link_begin = 1;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 10e6, 1.0);
  EXPECT_EQ(flows[0].bottleneck, -1);  // its own cap, not a link
  EXPECT_NEAR(flows[1].rate, 90e6, 1.0);
  EXPECT_EQ(flows[1].bottleneck, 0);
}

TEST(WaterFill, MultiLinkBottleneckIsTheNarrowLink) {
  // Flow 0 crosses the 10 Mbit/s link then the 100 Mbit/s link; flow 1
  // crosses only the wide link. Classic max-min: 10 / 90.
  std::vector<ShareFlow> flows(2);
  std::vector<ShareLink> links(2);
  links[0].capacity = 10e6;
  links[1].capacity = 100e6;
  std::vector<std::int32_t> membership = {0, 1, 1};
  flows[0].link_begin = 0;
  flows[0].link_count = 2;
  flows[1].link_begin = 2;
  flows[1].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 0.0);
  EXPECT_NEAR(flows[0].rate, 10e6, 1.0);
  EXPECT_EQ(flows[0].bottleneck, 0);
  EXPECT_NEAR(flows[1].rate, 90e6, 1.0);
  EXPECT_EQ(flows[1].bottleneck, 1);
}

TEST(WaterFill, MinRateFloorsOverloadedLinks) {
  std::vector<ShareFlow> flows(1);
  std::vector<ShareLink> links(1);
  links[0].capacity = 0.0;  // fully pre-consumed by fixed load
  std::vector<std::int32_t> membership = {0};
  flows[0].link_begin = 0;
  flows[0].link_count = 1;
  WaterFill solver;
  solver.solve(flows, links, membership, 1e3);
  EXPECT_EQ(flows[0].rate, 1e3);
}

// --------------------------------------------------------------- FlowEngine

/// Two hosts joined by one duplex link.
struct PairNet {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::Node* a = nullptr;
  net::Node* b = nullptr;
  net::Link* ab = nullptr;

  explicit PairNet(BitsPerSec bandwidth = 100 * kMbps,
                   SimDuration propagation = 5 * kMillisecond) {
    a = &network.add_node("a");
    b = &network.add_node("b");
    net::LinkConfig config;
    config.bandwidth = bandwidth;
    config.propagation = propagation;
    network.connect(*a, *b, config);
    network.compute_routes();
    ab = network.link_between(*a, *b);
  }
};

TEST(FlowEngine, SingleFlowDrainsAtPayloadRate) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  const Bytes bytes = 10 * kMiB;
  bool done = false;
  FlowDone result;
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = bytes;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = true;
    result = d;
  });
  ASSERT_TRUE(id.valid());
  net.simulator.run_until(60 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.transferred, bytes);
  const double expected_sec = bytes * 8.0 / (100e6 * kEff);
  EXPECT_NEAR(to_seconds(result.finished - result.started), expected_sec,
              expected_sec * 0.01);
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_completed, 1);
}

TEST(FlowEngine, SecondFlowHalvesTheFirstMidFlight) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  const FlowId first = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(first), 100e6 * kEff, 1e3);

  const FlowId second = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(2 * kSecond);
  EXPECT_NEAR(engine.rate(first), 50e6 * kEff, 1e3);
  EXPECT_NEAR(engine.rate(second), 50e6 * kEff, 1e3);
  EXPECT_NEAR(engine.link_utilization(net.ab), 1.0, 1e-6);
}

TEST(FlowEngine, WindowCapReproducesUntunedCeiling) {
  PairNet net(100 * kMbps, 62 * kMillisecond + 500 * kMicrosecond);
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  spec.window = 64 * kKiB;  // the Figure 5 untuned buffer
  const FlowId id = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  const double rtt_sec = 0.125;
  EXPECT_NEAR(engine.rate(id), 64.0 * kKiB * 8 / rtt_sec,
              engine.rate(id) * 0.01);
}

TEST(FlowEngine, PinnedFlowTakesFixedShare) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec cross;
  cross.src = net.a->id();
  cross.dst = net.b->id();
  cross.bytes = kUnboundedBytes;
  cross.pinned_rate = 60 * kMbps;
  const FlowId pinned = engine.start(cross, [](const FlowDone&) {});
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  const FlowId fair = engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(pinned), 60e6 * kEff, 1e3);
  EXPECT_NEAR(engine.rate(fair), 40e6 * kEff, 1e3);
  EXPECT_TRUE(engine.active(pinned));  // unbounded: never completes
}

TEST(FlowEngine, CancelFiresNotOkWithPartialBytes) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 100 * kMiB;
  bool done = false;
  FlowDone result;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = true;
    result = d;
  });
  net.simulator.run_until(1 * kSecond);
  const Bytes seen = engine.transferred(id);
  EXPECT_GT(seen, 0);
  EXPECT_LT(seen, 100 * kMiB);
  ASSERT_TRUE(engine.cancel(id));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.ok);
  EXPECT_NEAR(static_cast<double>(result.transferred),
              static_cast<double>(seen), 2.0);
  EXPECT_FALSE(engine.cancel(id));  // stale id: no-op
  EXPECT_EQ(engine.active_flows(), 0u);
  EXPECT_EQ(engine.stats().flows_cancelled, 1);
}

TEST(FlowEngine, ChurnRenegotiatesOnlyTouchedLinks) {
  // Two disjoint host pairs; churn on one pair must not recompute the
  // other pair's link or flows.
  sim::Simulator simulator;
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::Node& c = network.add_node("c");
  net::Node& d = network.add_node("d");
  net::LinkConfig config;
  config.bandwidth = 100 * kMbps;
  config.propagation = 5 * kMillisecond;
  network.connect(a, b, config);
  network.connect(c, d, config);
  network.compute_routes();

  FlowEngine engine(simulator, network);
  FlowSpec ab;
  ab.src = a.id();
  ab.dst = b.id();
  ab.bytes = 10 * kGiB;
  FlowSpec cd = ab;
  cd.src = c.id();
  cd.dst = d.id();
  (void)engine.start(ab, [](const FlowDone&) {});
  (void)engine.start(cd, [](const FlowDone&) {});
  simulator.run_until(1 * kSecond);

  const std::int64_t links_before = engine.stats().links_recomputed;
  const std::int64_t flows_before = engine.stats().flows_recomputed;
  (void)engine.start(ab, [](const FlowDone&) {});
  simulator.run_until(2 * kSecond);
  // Exactly the a→b link; its two resident flows — the c→d pair untouched.
  EXPECT_EQ(engine.stats().links_recomputed - links_before, 1);
  EXPECT_EQ(engine.stats().flows_recomputed - flows_before, 2);
}

TEST(FlowEngine, RegistryCountsClassesPerRenegotiation) {
  // Three flows on one path form two rate classes (windowed and not); the
  // registry reads the stats, and classes count the closure's classes
  // while flows_recomputed counts the flows they cover.
  PairNet net;
  FlowEngine engine(net.simulator, net.network);
  obs::MetricsRegistry registry;
  engine.set_metrics(registry.scope("flow"));
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 10 * kGiB;
  (void)engine.start(spec, [](const FlowDone&) {});
  (void)engine.start(spec, [](const FlowDone&) {});
  spec.window = 64 * kKiB;
  (void)engine.start(spec, [](const FlowDone&) {});
  net.simulator.run_until(1 * kSecond);

  const FlowEngineStats& stats = engine.stats();
  EXPECT_EQ(stats.renegotiations, 1);
  EXPECT_EQ(stats.classes_recomputed, 2);
  EXPECT_EQ(stats.flows_recomputed, 3);
  EXPECT_EQ(registry.counter("flow.renegotiations").value(),
            stats.renegotiations);
  EXPECT_EQ(registry.counter("flow.links_recomputed").value(),
            stats.links_recomputed);
  EXPECT_EQ(registry.counter("flow.classes_recomputed").value(),
            stats.classes_recomputed);
}

TEST(FlowEngine, LinkCapacityChangeRenegotiatesMidFlight) {
  PairNet net;
  FluidConfig config;
  config.model_slow_start = false;
  FlowEngine engine(net.simulator, net.network, config);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 1 * kGiB;
  bool done = false;
  const FlowId id = engine.start(spec, [&](const FlowDone& d) {
    done = d.ok;
  });
  net.simulator.run_until(1 * kSecond);
  EXPECT_NEAR(engine.rate(id), 100e6 * kEff, 1e3);

  net.ab->set_bandwidth(20 * kMbps);
  engine.on_link_changed(net.ab);
  net.simulator.run_until(2 * kSecond);
  EXPECT_NEAR(engine.rate(id), 20e6 * kEff, 1e3);

  net.simulator.run_until(30 * 60 * kSecond);
  EXPECT_TRUE(done);  // the completion event moved with the rate
}

TEST(FlowEngine, UnroutedFlowReturnsInvalidId) {
  sim::Simulator simulator;
  net::Network network(simulator);
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  network.compute_routes();  // no link between them
  FlowEngine engine(simulator, network);
  FlowSpec spec;
  spec.src = a.id();
  spec.dst = b.id();
  spec.bytes = kMiB;
  const FlowId id = engine.start(spec, [](const FlowDone&) {});
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(engine.active_flows(), 0u);
}

TEST(FlowEngine, TeardownMidFlightDropsWorkWithoutCallbacks) {
  PairNet net;
  auto engine = std::make_unique<FlowEngine>(net.simulator, net.network);
  FlowSpec spec;
  spec.src = net.a->id();
  spec.dst = net.b->id();
  spec.bytes = 100 * kMiB;
  bool fired = false;
  (void)engine->start(spec, [&](const FlowDone&) { fired = true; });
  (void)engine->start(spec, [&](const FlowDone&) { fired = true; });
  net.simulator.run_until(1 * kSecond);
  engine.reset();  // pending completion + renegotiation events outlive it
  net.simulator.run_until(60 * kSecond);
  EXPECT_FALSE(fired);  // teardown discipline: in-flight work is dropped
}

// ------------------------------------------- class-vs-flow equivalence

/// Per-flow reference for the engine: the same dirty-link closure,
/// fixed-load folding, bottleneck-driven expansion, slow-start deficit and
/// ceil+1 ns completion rounding, but every flow is its own WaterFill entry
/// with its own settle and its own completion event. The engine must
/// reproduce it while solving, settling and scheduling per rate class.
class PerFlowReference {
 public:
  using Done = std::function<void(const FlowDone&)>;

  PerFlowReference(sim::Simulator& simulator, net::Network& network,
                   FluidConfig config)
      : simulator_(simulator), network_(network), config_(config) {}

  int start(const FlowSpec& spec, Done done) {
    std::vector<net::Link*> route;
    if (!network_.path_links(spec.src, spec.dst, route) || route.empty()) {
      return -1;
    }
    Flow flow;
    flow.spec = spec;
    flow.done = std::move(done);
    flow.pinned = spec.pinned_rate > 0;
    flow.remaining = static_cast<double>(spec.bytes);
    flow.started = flow.settled_at = simulator_.now();
    SimDuration one_way = 0;
    for (net::Link* link : route) {
      one_way += link->config().propagation;
      flow.path.push_back(intern(link));
    }
    flow.rtt = std::max<SimDuration>(2 * one_way, kMicrosecond);
    const double rtt_sec = to_seconds(flow.rtt);
    const double ref_sec = to_seconds(config_.reference_rtt);
    flow.weight = std::max(spec.weight, 1e-9) * ref_sec / rtt_sec;
    flow.cap = spec.window > 0
                   ? static_cast<double>(spec.window) * 8.0 / rtt_sec
                   : std::numeric_limits<double>::infinity();
    const int id = static_cast<int>(flows_.size());
    flows_.push_back(std::move(flow));
    for (const int li : flows_[id].path) {
      if (flows_[id].pinned) {
        links_[li].pinned += spec.pinned_rate * config_.efficiency;
      } else {
        links_[li].flows.push_back(id);
      }
      mark_dirty(li);
    }
    if (flows_[id].pinned) apply(id, spec.pinned_rate * config_.efficiency, -1);
    schedule_renegotiation();
    return id;
  }

  bool cancel(int id) {
    if (!active(id)) return false;
    settle(flows_[id]);
    retire(id, false);
    return true;
  }

  bool active(int id) const { return id >= 0 && flows_[id].active; }
  double rate(int id) const { return active(id) ? flows_[id].rate : 0.0; }

  Bytes transferred(int id) const {
    if (!active(id)) return 0;
    const Flow& flow = flows_[id];
    const double dt = to_seconds(simulator_.now() - flow.settled_at);
    const double left = flow.remaining - flow.rate * dt / 8.0;
    return delivered(flow, std::max(left, 0.0));
  }

  void on_link_changed(const net::Link* link) {
    const int li = intern(link);
    links_[li].capacity = link->config().bandwidth * config_.efficiency;
    mark_dirty(li);
    schedule_renegotiation();
  }

 private:
  struct Flow {
    FlowSpec spec;
    Done done;
    bool active = true;
    bool pinned = false;
    bool rated = false;
    bool in_closure = false;
    double weight = 1.0;
    double cap = 0.0;
    double rate = 0.0;
    double remaining = 0.0;
    SimTime settled_at = 0;
    SimTime started = 0;
    SimDuration rtt = 0;
    int bottleneck = -1;
    std::vector<int> path;
    sim::EventHandle completion;
  };
  struct Link {
    const net::Link* link = nullptr;
    double capacity = 0.0;
    double pinned = 0.0;
    std::vector<int> flows;  // active fair-share flows, start order
    bool dirty = false;
    int share_index = -1;
  };

  static Bytes delivered(const Flow& flow, double remaining) {
    const double done = static_cast<double>(flow.spec.bytes) - remaining;
    if (done <= 0.0) return 0;
    if (done >= static_cast<double>(flow.spec.bytes)) return flow.spec.bytes;
    return static_cast<Bytes>(done);
  }

  int intern(const net::Link* link) {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      if (links_[i].link == link) return static_cast<int>(i);
    }
    Link state;
    state.link = link;
    state.capacity = link->config().bandwidth * config_.efficiency;
    links_.push_back(state);
    return static_cast<int>(links_.size() - 1);
  }

  void mark_dirty(int li) {
    if (links_[li].dirty) return;
    links_[li].dirty = true;
    dirty_.push_back(li);
  }

  void schedule_renegotiation() {
    if (reneg_pending_) return;
    reneg_pending_ = true;
    simulator_.schedule(config_.reneg_quantum, [this] { renegotiate(); });
  }

  void settle(Flow& flow) {
    const SimTime now = simulator_.now();
    if (now <= flow.settled_at) return;
    const double moved = flow.rate * to_seconds(now - flow.settled_at) / 8.0;
    flow.remaining -= std::min(moved, flow.remaining);
    flow.settled_at = now;
  }

  void absorb(int li, std::vector<int>& closure) {
    for (const int id : links_[li].flows) {
      if (flows_[id].in_closure) continue;
      flows_[id].in_closure = true;
      closure.push_back(id);
    }
  }

  void renegotiate() {
    reneg_pending_ = false;
    if (dirty_.empty()) return;
    std::vector<int> closure;
    std::vector<int> solve_links;
    std::vector<ShareFlow> share_flows;
    std::vector<ShareLink> share_links;
    for (const int li : dirty_) {
      links_[li].share_index = static_cast<int>(solve_links.size());
      solve_links.push_back(li);
    }
    std::size_t absorbed_scan = 0;
    std::size_t flow_scan = 0;
    for (int round = 1;; ++round) {
      for (; absorbed_scan < solve_links.size(); ++absorbed_scan) {
        if (links_[solve_links[absorbed_scan]].dirty) {
          absorb(solve_links[absorbed_scan], closure);
        }
      }
      for (; flow_scan < closure.size(); ++flow_scan) {
        for (const int li : flows_[closure[flow_scan]].path) {
          if (links_[li].share_index >= 0) continue;
          links_[li].share_index = static_cast<int>(solve_links.size());
          solve_links.push_back(li);
        }
      }
      share_links.assign(solve_links.size(), ShareLink{});
      for (std::size_t i = 0; i < solve_links.size(); ++i) {
        const Link& link = links_[solve_links[i]];
        double fixed = link.pinned;
        for (const int id : link.flows) {
          if (!flows_[id].in_closure) fixed += flows_[id].rate;
        }
        share_links[i].capacity = link.capacity - fixed;
      }
      share_flows.assign(closure.size(), ShareFlow{});
      std::vector<std::int32_t> membership;
      for (std::size_t i = 0; i < closure.size(); ++i) {
        const Flow& flow = flows_[closure[i]];
        share_flows[i].weight = flow.weight;
        share_flows[i].cap = flow.cap;
        share_flows[i].link_begin =
            static_cast<std::int32_t>(membership.size());
        share_flows[i].link_count =
            static_cast<std::int32_t>(flow.path.size());
        for (const int li : flow.path) {
          membership.push_back(links_[li].share_index);
        }
      }
      WaterFill solver;
      solver.solve(share_flows, share_links, membership, config_.min_rate);
      if (round >= config_.max_rounds) break;
      bool expanded = false;
      for (std::size_t i = 0; i < solve_links.size(); ++i) {
        Link& link = links_[solve_links[i]];
        if (link.dirty) continue;
        if (share_links[i].residual <= config_.slack_epsilon) continue;
        const bool claimable = std::any_of(
            link.flows.begin(), link.flows.end(), [&](int id) {
              return !flows_[id].in_closure &&
                     flows_[id].bottleneck == solve_links[i];
            });
        if (!claimable) continue;
        link.dirty = true;
        absorb(solve_links[i], closure);
        expanded = true;
      }
      if (!expanded) break;
    }
    for (std::size_t i = 0; i < closure.size(); ++i) {
      const int bottleneck = share_flows[i].bottleneck;
      apply(closure[i], share_flows[i].rate,
            bottleneck >= 0 ? solve_links[bottleneck] : -1);
    }
    for (const int li : solve_links) {
      links_[li].share_index = -1;
      links_[li].dirty = false;
    }
    for (const int id : closure) flows_[id].in_closure = false;
    dirty_.clear();
  }

  void apply(int id, double rate, int bottleneck) {
    Flow& flow = flows_[id];
    settle(flow);
    if (!flow.rated) {
      flow.rated = true;
      if (config_.model_slow_start && !flow.pinned &&
          flow.spec.bytes < kUnboundedBytes) {
        const double steady = std::min(
            flow.spec.window > 0 ? static_cast<double>(flow.spec.window)
                                 : std::numeric_limits<double>::infinity(),
            rate * to_seconds(flow.rtt) / 8.0);
        const double initial = static_cast<double>(config_.initial_window);
        if (steady > initial) {
          flow.remaining +=
              steady * std::max(0.0, std::log2(steady / initial) - 2.0);
        }
      }
    }
    flow.rate = std::max(rate, static_cast<double>(config_.min_rate));
    flow.bottleneck = bottleneck;
    simulator_.cancel(flow.completion);
    flow.completion = {};
    const double ns = flow.remaining * 8.0 / flow.rate * 1e9;
    if (!(ns < static_cast<double>(std::numeric_limits<SimTime>::max() / 4))) {
      return;
    }
    flow.completion =
        simulator_.schedule(static_cast<SimDuration>(ns) + 1, [this, id] {
          settle(flows_[id]);
          flows_[id].remaining = 0.0;
          retire(id, true);
        });
  }

  void retire(int id, bool ok) {
    Flow& flow = flows_[id];
    for (const int li : flow.path) {
      if (flow.pinned) {
        const double pinned = flow.spec.pinned_rate * config_.efficiency;
        links_[li].pinned = std::max(links_[li].pinned - pinned, 0.0);
      } else {
        std::erase(links_[li].flows, id);
      }
      mark_dirty(li);
    }
    simulator_.cancel(flow.completion);
    flow.completion = {};
    flow.active = false;
    FlowDone done;
    done.ok = ok;
    done.transferred = ok ? flow.spec.bytes : delivered(flow, flow.remaining);
    done.started = flow.started;
    done.finished = simulator_.now();
    done.tag = flow.spec.tag;
    Done callback = std::move(flow.done);
    schedule_renegotiation();
    callback(done);
  }

  sim::Simulator& simulator_;
  net::Network& network_;
  FluidConfig config_;
  std::vector<Flow> flows_;
  std::vector<Link> links_;
  std::vector<int> dirty_;
  bool reneg_pending_ = false;
};

// Property: over seeded random schedules on a small multi-site grid —
// mixed weights and windows on shared paths (several classes per path and
// per link), cancels mid-flight, capacity steps, pinned cross traffic and
// unbounded flows — the class engine's rates, progress and completion
// times match the per-flow reference, and every completion fires once.
class FlowClassEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowClassEquivalence, MatchesPerFlowReference) {
  Rng rng(GetParam());
  sim::Simulator simulator;
  net::Network network(simulator);
  constexpr int kSites = 4;
  std::vector<net::GridSiteLink> sites(kSites);
  const BitsPerSec wan_rates[kSites] = {20 * kMbps, 45 * kMbps, 45 * kMbps,
                                        100 * kMbps};
  for (int i = 0; i < kSites; ++i) {
    sites[i].site_name = "site" + std::to_string(i);
    sites[i].wan.wan_bandwidth = wan_rates[i];
    sites[i].wan.wan_one_way_delay = (5 + 10 * i) * kMillisecond;
  }
  const net::GridTopology topo = net::make_grid_topology(network, sites);
  std::vector<net::Link*> wan_links;
  for (int i = 0; i < kSites; ++i) {
    wan_links.push_back(network.link_between(*topo.gateways[i], *topo.core));
    wan_links.push_back(network.link_between(*topo.core, *topo.gateways[i]));
  }

  FluidConfig config;
  config.reneg_quantum = rng.chance(0.5) ? 0 : 20 * kMillisecond;
  FlowEngine engine(simulator, network, config);
  PerFlowReference reference(simulator, network, config);

  struct Tracked {
    FlowId id;
    int ref = -1;
    double byte_slack = 1.0;  // progress tolerance (see launch)
    FlowDone done;
    FlowDone ref_done;
    int ref_calls = 0;
    gdmp::testing::CountingCallback calls;
  };
  constexpr int kOps = 160;
  std::vector<Tracked> flows;
  flows.reserve(kOps);

  const auto launch = [&](const FlowSpec& spec) {
    flows.emplace_back();
    const std::size_t index = flows.size() - 1;
    Tracked& t = flows[index];
    // Progress is size - remaining in doubles. For an unbounded flow that
    // is a 2^62-byte remainder with a 1 KiB ulp, and the reference rounds
    // it again at every settle.
    if (spec.bytes == kUnboundedBytes) t.byte_slack = 64.0 * kKiB;
    const std::function<void(const FlowDone&)> record =
        [&flows, index](const FlowDone& d) { flows[index].done = d; };
    t.id = engine.start(spec, t.calls.wrap(record));
    t.ref = reference.start(spec, [&flows, index](const FlowDone& d) {
      flows[index].ref_done = d;
      ++flows[index].ref_calls;
    });
    ASSERT_TRUE(t.id.valid());
    ASSERT_GE(t.ref, 0);
  };

  const auto compare = [&] {
    for (Tracked& t : flows) {
      ASSERT_EQ(engine.active(t.id), reference.active(t.ref));
      const double ref_rate = reference.rate(t.ref);
      EXPECT_NEAR(engine.rate(t.id), ref_rate, 1e-9 * ref_rate + 1e-6);
      EXPECT_NEAR(static_cast<double>(engine.transferred(t.id)),
                  static_cast<double>(reference.transferred(t.ref)),
                  t.byte_slack);
    }
  };

  constexpr SimTime kHorizon = 20 * kSecond;
  // Samples are scheduled first, so one sharing an instant with an op or an
  // engine event sees both models before that instant's work.
  for (int i = 0; i < 120; ++i) {
    simulator.schedule_at(rng.uniform_int(0, kHorizon / kMillisecond) *
                              kMillisecond,
                          compare);
  }
  for (int op = 0; op < kOps; ++op) {
    const SimTime at =
        rng.uniform_int(0, kHorizon / kMillisecond - 1) * kMillisecond;
    const double kind = rng.uniform();
    if (kind < 0.55) {
      FlowSpec spec;
      const int src = static_cast<int>(rng.uniform_int(0, kSites - 1));
      int dst = static_cast<int>(rng.uniform_int(0, kSites - 2));
      if (dst >= src) ++dst;
      spec.src = topo.hosts[src]->id();
      spec.dst = topo.hosts[dst]->id();
      spec.bytes = rng.chance(0.08) ? kUnboundedBytes
                                    : rng.uniform_int(64 * kKiB, 6 * kMiB);
      spec.weight = rng.chance(0.5) ? 1.0 : 2.0;
      const Bytes windows[] = {0, 64 * kKiB, 256 * kKiB};
      spec.window = windows[rng.uniform_int(0, 2)];
      simulator.schedule_at(at, [&launch, spec] { launch(spec); });
    } else if (kind < 0.65) {
      // Pinned cross traffic between a site host and the core.
      FlowSpec spec;
      const int site = static_cast<int>(rng.uniform_int(0, kSites - 1));
      const bool up = rng.chance(0.5);
      spec.src = up ? topo.hosts[site]->id() : topo.core->id();
      spec.dst = up ? topo.core->id() : topo.hosts[site]->id();
      spec.pinned_rate = static_cast<double>(rng.uniform_int(1, 8)) * kMbps;
      spec.bytes = rng.chance(0.5) ? kUnboundedBytes
                                   : rng.uniform_int(256 * kKiB, 4 * kMiB);
      simulator.schedule_at(at, [&launch, spec] { launch(spec); });
    } else if (kind < 0.88) {
      const std::uint64_t pick = rng.next();
      simulator.schedule_at(at, [&flows, &engine, &reference, pick] {
        if (flows.empty()) return;
        Tracked& t = flows[pick % flows.size()];
        EXPECT_EQ(engine.cancel(t.id), reference.cancel(t.ref));
      });
    } else {
      net::Link* link = wan_links[rng.uniform_int(0, 2 * kSites - 1)];
      const BitsPerSec steps[] = {10 * kMbps, 20 * kMbps, 45 * kMbps,
                                  100 * kMbps};
      const BitsPerSec bandwidth = steps[rng.uniform_int(0, 3)];
      simulator.schedule_at(at, [&engine, &reference, link, bandwidth] {
        link->set_bandwidth(bandwidth);
        engine.on_link_changed(link);
        reference.on_link_changed(link);
      });
    }
  }

  simulator.run_until(kHorizon);
  // Unbounded flows never drain: cancel what is left, then run dry.
  for (Tracked& t : flows) {
    EXPECT_EQ(engine.cancel(t.id), reference.cancel(t.ref));
  }
  simulator.run();

  EXPECT_EQ(engine.active_flows(), 0u);
  std::int64_t completed = 0;
  for (const Tracked& t : flows) {
    EXPECT_TRUE(t.calls.exactly_once());
    EXPECT_EQ(t.ref_calls, 1);
    EXPECT_EQ(t.done.ok, t.ref_done.ok);
    EXPECT_EQ(t.done.started, t.ref_done.started);
    EXPECT_LE(std::llabs(t.done.finished - t.ref_done.finished), 1)
        << "completion times differ by more than 1 ns";
    EXPECT_NEAR(static_cast<double>(t.done.transferred),
                static_cast<double>(t.ref_done.transferred), t.byte_slack);
    completed += t.done.ok ? 1 : 0;
  }
  EXPECT_EQ(engine.stats().flows_completed, completed);
  EXPECT_GT(completed, 0);
  // Classes really aggregate: fewer class re-rates than flow re-rates.
  EXPECT_LT(engine.stats().classes_recomputed,
            engine.stats().flows_recomputed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowClassEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------ fluid GridFTP

struct FluidFtpFixture {
  sim::Simulator simulator;
  net::Network network{simulator};
  net::WanPath path;
  std::unique_ptr<net::TcpStack> stack_a;
  std::unique_ptr<net::TcpStack> stack_b;
  std::unique_ptr<FlowEngine> engine;
  security::CertificateAuthority ca{"TestCA"};
  storage::DiskConfig disk_config{};
  std::unique_ptr<storage::Disk> disk_a, disk_b;
  std::unique_ptr<storage::DiskPool> pool_a, pool_b;
  std::unique_ptr<gridftp::FtpServer> server;
  std::unique_ptr<gridftp::FtpClient> client;

  explicit FluidFtpFixture(gridftp::FtpServerConfig server_config = {}) {
    path = net::make_wan_path(network, "src", "dst");
    stack_a = std::make_unique<net::TcpStack>(simulator, *path.host_a);
    stack_b = std::make_unique<net::TcpStack>(simulator, *path.host_b);
    engine = std::make_unique<FlowEngine>(simulator, network);
    disk_a = std::make_unique<storage::Disk>(simulator, disk_config);
    disk_b = std::make_unique<storage::Disk>(simulator, disk_config);
    pool_a = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_a);
    pool_b = std::make_unique<storage::DiskPool>(100 * kGiB, *disk_b);
    server_config.flow_engine = engine.get();
    server = std::make_unique<gridftp::FtpServer>(
        *stack_a, *pool_a, ca, ca.issue("/CN=src", kYear), server_config);
    client = std::make_unique<gridftp::FtpClient>(
        *stack_b, ca, ca.issue("/CN=dst", kYear));
    EXPECT_TRUE(server->start().is_ok());
  }

  gridftp::TransferOptions fluid_options(int streams = 1) {
    gridftp::TransferOptions options;
    options.parallel_streams = streams;
    options.flow_engine = engine.get();
    return options;
  }
};

TEST(FluidFtp, GetDeliversContentAndIdentity) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 2 * kMiB, 0x1234, 0);
  auto options = f.fluid_options(2);
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->content_seed, 0x1234u);
                  EXPECT_EQ(result->crc,
                            crc32_synthetic(0x1234, 0, 2 * kMiB));
                  EXPECT_EQ(result->streams, 2);
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto local = f.pool_b->peek("/pool/f");
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local->size, 2 * kMiB);
  EXPECT_EQ(local->content_seed, 0x1234u);
  EXPECT_EQ(f.engine->stats().flows_completed, 2);  // one per stripe
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, PartialGetMovesOnlyRange) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 10 * kMiB, 7, 0);
  auto options = f.fluid_options(1);
  options.range = gridftp::ByteRange{1 * kMiB, 2 * kMiB};
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/part", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 2 * kMiB);
                  EXPECT_EQ(result->crc,
                            crc32_synthetic(7, 1 * kMiB, 2 * kMiB));
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.pool_b->peek("/pool/part")->size, 2 * kMiB);
}

TEST(FluidFtp, PutStoresFileRemotely) {
  FluidFtpFixture f;
  (void)f.pool_b->add_file("/local/f", 3 * kMiB, 0x77, 0);
  auto options = f.fluid_options(3);
  bool done = false;
  f.client->put(f.path.host_a->id(), gridftp::kControlPort, *f.pool_b,
                "/local/f", "/pool/stored", options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_EQ(result->bytes, 3 * kMiB);
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  auto stored = f.pool_a->peek("/pool/stored");
  ASSERT_TRUE(stored.is_ok());
  EXPECT_EQ(stored->size, 3 * kMiB);
  EXPECT_EQ(stored->content_seed, 0x77u);
}

TEST(FluidFtp, CorruptionDetectedAndRepairedByRestart) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 0.3;
  config.fault_seed = 11;
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 4 * kMiB, 0x5151, 0);
  auto options = f.fluid_options(4);
  options.expected_crc = crc32_synthetic(0x5151, 0, 4 * kMiB);
  options.max_attempts = 10;
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                  EXPECT_GT(result->attempts, 1);
                  EXPECT_EQ(result->content_seed, 0x5151u);
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(f.server->stats().blocks_corrupted, 0);
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, PersistentCorruptionExhaustsAttempts) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 1.0;  // every stripe poisoned
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 3, 0);
  auto options = f.fluid_options(1);
  options.expected_crc = crc32_synthetic(3, 0, 1 * kMiB);
  options.max_attempts = 2;
  Status status = Status::ok();
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  status = result.status();
                });
  f.simulator.run_until(600 * kSecond);
  EXPECT_EQ(status.code(), ErrorCode::kCorrupted);
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, EmitsPerfAndRestartMarkers) {
  gridftp::FtpServerConfig config;
  config.corrupt_probability = 0.4;
  config.fault_seed = 5;
  FluidFtpFixture f(config);
  (void)f.pool_a->add_file("/pool/f", 8 * kMiB, 0xabc, 0);

  obs::TransferChannel channel;
  int perf_markers = 0;
  int restarts = 0;
  bool summary_ok = false;
  std::uint32_t stripe_count = 0;
  obs::TransferChannel::Observer observer;
  observer.on_perf = [&](const obs::PerfMarker& marker) {
    ++perf_markers;
    stripe_count = std::max(stripe_count, marker.stripe_count);
  };
  observer.on_restart = [&](const obs::RestartMarker&) { ++restarts; };
  observer.on_complete = [&](const obs::TransferSummary& summary) {
    summary_ok = summary.ok;
  };
  channel.subscribe(std::move(observer));

  auto options = f.fluid_options(4);
  options.channel = &channel;
  options.expected_crc = crc32_synthetic(0xabc, 0, 8 * kMiB);
  options.max_attempts = 10;
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                });
  f.simulator.run_until(600 * kSecond);
  ASSERT_TRUE(done);
  // The same marker stream the packet path produces: per-stripe perf
  // markers from the monitor, restart markers from the repair attempts,
  // one terminal summary.
  EXPECT_GE(perf_markers, 4);
  EXPECT_EQ(stripe_count, 4u);
  EXPECT_GT(restarts, 0);
  EXPECT_TRUE(summary_ok);
}

TEST(FluidFtp, ThirdPartyPushRunsOnServerEngine) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 3 * kMiB, 0x3a3a, 0);
  gridftp::FtpServer dest(*f.stack_b, *f.pool_b, f.ca,
                          f.ca.issue("/CN=dst-gridftp", kYear));
  ASSERT_TRUE(dest.start().is_ok());
  // The orchestrating client carries no engine: the source server's
  // FtpServerConfig::flow_engine alone moves the pushed payload.
  gridftp::TransferOptions options;
  options.parallel_streams = 2;
  bool done = false;
  f.client->third_party(f.path.host_a->id(), gridftp::kControlPort,
                        "/pool/f", f.path.host_b->id(), gridftp::kControlPort,
                        "/pool/copy", options,
                        [&](Result<gridftp::TransferResult> result) {
                          done = true;
                          ASSERT_TRUE(result.is_ok())
                              << result.status().to_string();
                          EXPECT_EQ(result->bytes, 3 * kMiB);
                          EXPECT_EQ(result->crc,
                                    crc32_synthetic(0x3a3a, 0, 3 * kMiB));
                        });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_GT(f.engine->stats().flows_started, 0);
  auto copy = f.pool_b->peek("/pool/copy");
  ASSERT_TRUE(copy.is_ok());
  EXPECT_EQ(copy->crc(), crc32_synthetic(0x3a3a, 0, 3 * kMiB));
  EXPECT_EQ(f.engine->active_flows(), 0u);
}

TEST(FluidFtp, FallsBackToPacketWithoutEngine) {
  FluidFtpFixture f;
  (void)f.pool_a->add_file("/pool/f", 1 * kMiB, 9, 0);
  auto options = f.fluid_options(1);
  options.flow_engine = nullptr;  // a null engine selects the packet path
  bool done = false;
  f.client->get(f.path.host_a->id(), gridftp::kControlPort, "/pool/f",
                "/pool/f", f.pool_b.get(), options,
                [&](Result<gridftp::TransferResult> result) {
                  done = true;
                  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
                });
  f.simulator.run_until(300 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(f.engine->stats().flows_started, 0);
}

// ------------------------------------------------- Figure 5/6 equivalence

TEST(FluidEquivalence, Fig5UntunedOperatingPoints) {
  // Figure 5 operating points: 25 MB over the 45 Mbit/s, 125 ms shared
  // path with 64 KB buffers. The fluid model must land within 10% of the
  // packet model's rate.
  for (const int streams : {1, 5}) {
    bench::WanBenchConfig config;
    config.seed = static_cast<std::uint64_t>(25 * kMiB) ^ (streams * 977);
    const auto packet = bench::run_wan_get(config, 25 * kMiB, streams,
                                           64 * kKiB, TransferModel::kPacket);
    const auto fluid = bench::run_wan_get(config, 25 * kMiB, streams,
                                          64 * kKiB, TransferModel::kFluid);
    ASSERT_TRUE(packet.ok);
    ASSERT_TRUE(fluid.ok);
    EXPECT_NEAR(fluid.mbps, packet.mbps, 0.10 * packet.mbps)
        << "streams=" << streams;
    EXPECT_LT(fluid.events, packet.events / 10) << "streams=" << streams;
  }
}

TEST(FluidEquivalence, Fig6TunedOperatingPoints) {
  // Figure 6: the same path with 1 MB tuned buffers. At one stream both
  // models sit in the clean congestion-limited regime and must agree
  // within 10%. At three or more streams the packet model's identical,
  // simultaneously-started streams synchronize their losses on the deep
  // drop-tail buffer and dip well below the paper's measured plateau
  // (~23 Mbit/s with production cross traffic); the fluid model holds the
  // residual fair share, so there we pin it against the paper's number
  // instead (see DESIGN.md §5f and the DISABLED_ sweep below).
  bench::WanBenchConfig config;
  config.seed = static_cast<std::uint64_t>(25 * kMiB) ^ 1409;
  const auto packet = bench::run_wan_get(config, 25 * kMiB, 1, 1 * kMiB,
                                         TransferModel::kPacket);
  const auto fluid = bench::run_wan_get(config, 25 * kMiB, 1, 1 * kMiB,
                                        TransferModel::kFluid);
  ASSERT_TRUE(packet.ok);
  ASSERT_TRUE(fluid.ok);
  EXPECT_NEAR(fluid.mbps, packet.mbps, 0.10 * packet.mbps);
  EXPECT_LT(fluid.events, packet.events / 10);

  const auto plateau = bench::run_wan_get(config, 25 * kMiB, 5, 1 * kMiB,
                                          TransferModel::kFluid);
  ASSERT_TRUE(plateau.ok);
  EXPECT_NEAR(plateau.mbps, 23.0, 2.3);  // the paper's tuned peak ±10%
}

// Calibration aid, not a regression gate: prints the tuned packet-vs-fluid
// sweep (with and without cross traffic) that motivated the operating-point
// choices above. Run with --gtest_also_run_disabled_tests.
TEST(FluidEquivalence, DISABLED_TunedSweepDiagnostic) {
  for (const BitsPerSec cross : {BitsPerSec(0), 18 * kMbps}) {
    for (const int streams : {1, 2, 3, 5, 8, 10}) {
      bench::WanBenchConfig config;
      config.cross_traffic = cross;
      config.seed = static_cast<std::uint64_t>(streams * 1409 + 7);
      const auto packet = bench::run_wan_get(
          config, 25 * kMiB, streams, 1 * kMiB, TransferModel::kPacket);
      const auto fluid = bench::run_wan_get(
          config, 25 * kMiB, streams, 1 * kMiB, TransferModel::kFluid);
      std::printf("cross=%2.0f n=%2d packet=%6.2f fluid=%6.2f ratio=%.3f\n",
                  cross / 1e6, streams, packet.mbps, fluid.mbps,
                  packet.mbps > 0 ? fluid.mbps / packet.mbps : 0.0);
    }
  }
}

}  // namespace
}  // namespace gdmp::flow

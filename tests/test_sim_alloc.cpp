// Zero-allocation regression tests for the simulation kernel (DESIGN.md §5e).
//
// The fast-path claim is that steady-state schedule/fire/cancel/reschedule
// performs no heap allocation as long as callbacks fit InlineFunction's
// 64-byte buffer. This binary pins that claim by replacing the global
// operator new with a counting version and asserting the count does not
// move across a measured region. It is a separate test binary because the
// replacement is program-wide and must not leak into the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "flow/flow_engine.h"
#include "net/cross_traffic.h"
#include "net/topology.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // gdmp-lint: owned-new (global operator new replacement for the counting test)
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? alignment : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gdmp::sim {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Production-sized capture: `this`-style pointer plus a guard and two ints —
// 32 bytes, comfortably inside the 64-byte inline buffer but beyond
// std::function's typical small-object optimisation.
struct Payload {
  std::uint64_t guard;
  std::uint64_t id;
  std::uint64_t bytes;
};

TEST(InlineFunctionAlloc, InlineCaptureAllocatesNothing) {
  std::uint64_t sink = 0;
  const Payload payload{1, 2, 3};
  const std::uint64_t before = allocation_count();
  InlineFunction<void(), 64> fn([&sink, payload] { sink += payload.id; });
  EXPECT_TRUE(fn.is_inline());
  fn();
  InlineFunction<void(), 64> moved = std::move(fn);
  moved();
  moved.reset();
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(sink, 4u);
}

TEST(InlineFunctionAlloc, OversizedCaptureFallsBackToOneHeapCell) {
  std::uint64_t sink = 0;
  struct Big {
    std::uint64_t words[12];  // 96 bytes: exceeds the 64-byte buffer
  };
  const Big big{{7}};
  const std::uint64_t before = allocation_count();
  InlineFunction<void(), 64> fn([&sink, big] { sink += big.words[0]; });
  EXPECT_FALSE(fn.is_inline());
  EXPECT_EQ(allocation_count(), before + 1);
  fn();
  // Moves of a spilled callable shuffle the pointer, never reallocate.
  InlineFunction<void(), 64> moved = std::move(fn);
  moved();
  EXPECT_EQ(allocation_count(), before + 1);
  EXPECT_EQ(sink, 14u);
}

// Self-perpetuating hold model: a fixed working set of pending events where
// every fire schedules one successor. After a warmup pass has grown the
// heap vector and slot table to their steady-state footprint, running
// thousands more events must allocate exactly nothing.
struct Hold {
  Simulator& sim;
  std::int64_t to_schedule;
  std::uint64_t sink = 0;
  std::uint32_t x = 0x2545f491u;

  void fire(const Payload& payload) {
    sink += payload.id;
    if (to_schedule <= 0) return;
    --to_schedule;
    x = x * 1664525u + 1013904223u;
    const Payload next{payload.guard, payload.id + 1, x};
    sim.schedule(static_cast<SimDuration>(x % 100 + 1),
                 [this, next] { fire(next); });
  }
};

TEST(SimulatorAlloc, SteadyStateScheduleFireAllocatesNothing) {
  Simulator sim;
  constexpr int kWorkingSet = 64;
  Hold hold{sim, /*to_schedule=*/20'000};
  for (int i = 0; i < kWorkingSet; ++i) {
    hold.fire(Payload{0xabc, static_cast<std::uint64_t>(i), 0});
  }
  // Warmup: fire a quarter of the budget so every container reaches its
  // steady-state capacity (heap vector, slot table, free list).
  while (sim.events_fired() < 5'000 && sim.step()) {
  }
  const std::uint64_t before = allocation_count();
  sim.run();
  EXPECT_EQ(allocation_count(), before);
  EXPECT_EQ(sim.events_fired(), 20'000u);
  EXPECT_GT(hold.sink, 0u);
}

TEST(SimulatorAlloc, SteadyStateCancelScheduleChurnAllocatesNothing) {
  Simulator sim;
  constexpr int kTimers = 64;
  std::uint64_t sink = 0;
  std::uint32_t x = 0x9e3779b9u;
  std::vector<EventHandle> handles(kTimers);
  const auto make_timer = [&](int i) {
    const Payload p{0xfeed, static_cast<std::uint64_t>(i), x};
    return sim.schedule(static_cast<SimDuration>(200 + x % 100),
                        [&sink, p] { sink += p.id; });
  };
  const auto churn = [&](int operations) {
    for (int op = 0; op < operations; ++op) {
      x = x * 1664525u + 1013904223u;
      const int i = static_cast<int>(x % kTimers);
      sim.cancel(handles[i]);
      handles[i] = make_timer(i);
      if ((op & 31) == 0) sim.run_until(sim.now() + 1);
    }
  };
  for (int i = 0; i < kTimers; ++i) handles[i] = make_timer(i);
  churn(1'000);  // warmup: grows the slot table / free list
  const std::uint64_t before = allocation_count();
  churn(10'000);
  EXPECT_EQ(allocation_count(), before);
}

TEST(SimulatorAlloc, RescheduleAndPeriodicTimerAllocateNothing) {
  Simulator sim;
  std::uint64_t ticks = 0;
  PeriodicTimer timer(sim, /*period=*/10, [&ticks] { ++ticks; });
  timer.start();
  std::uint64_t sink = 0;
  const Payload p{0xbeef, 1, 2};
  const EventHandle rto = sim.schedule(500, [&sink, p] { sink += p.id; });
  sim.run_until(100);  // warmup: timer armed, slot table grown
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 1'000; ++i) {
    ASSERT_TRUE(sim.reschedule(rto, 500));  // RTO re-arm: never fires
    sim.run_until(sim.now() + 10);          // periodic tick re-arms inline
  }
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(ticks, 1'000u);
  EXPECT_EQ(sink, 0u);
}

// FlowEngine contract (flow/flow_engine.h): "steady state allocates
// nothing" — flow slots, per-slot path vectors, free list and all solver
// scratch are pooled. Exercised here with a fixed working set of unbounded
// flows churned through cancel/start plus forced link renegotiations, the
// exact shape of grid cross-traffic turnover.
TEST(FlowEngineAlloc, RenegotiationChurnAllocatesNothing) {
  Simulator sim;
  net::Network network{sim};
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::LinkConfig link_config;
  link_config.bandwidth = 100 * kMbps;
  link_config.propagation = 5 * kMillisecond;
  network.connect(a, b, link_config);
  network.compute_routes();
  net::Link* ab = network.link_between(a, b);
  ASSERT_NE(ab, nullptr);

  flow::FluidConfig config;
  config.model_slow_start = false;
  flow::FlowEngine engine(sim, network, config);

  constexpr int kFlows = 8;
  flow::FlowId ids[kFlows];
  std::uint64_t retired = 0;
  const auto launch = [&]() {
    flow::FlowSpec spec;
    spec.src = a.id();
    spec.dst = b.id();
    spec.bytes = flow::kUnboundedBytes;
    return engine.start(spec,
                        [&retired](const flow::FlowDone&) { ++retired; });
  };
  std::uint32_t x = 1;
  const auto churn = [&](int operations) {
    for (int op = 0; op < operations; ++op) {
      x = x * 1664525u + 1013904223u;
      const int i = static_cast<int>(x % kFlows);
      engine.cancel(ids[i]);
      ids[i] = launch();
      if ((op & 7) == 0) engine.on_link_changed(ab);
      sim.run_until(sim.now() + kMillisecond);
    }
  };
  for (int i = 0; i < kFlows; ++i) ids[i] = launch();
  churn(200);  // warmup: slot pool, free list and solver scratch grow
  const std::uint64_t before = allocation_count();
  churn(1'000);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(retired, 1'000u);
  for (int i = 0; i < kFlows; ++i) EXPECT_TRUE(engine.active(ids[i]));
}

// Rate-class churn: members join and leave a class, the earliest finisher
// and other members are cancelled, small members drain through the class's
// head event, and a class empties (releasing its slot and index node) and
// re-forms under the same key. After warm-up none of it allocates.
TEST(FlowEngineAlloc, ClassChurnAllocatesNothing) {
  Simulator sim;
  net::Network network{sim};
  net::Node& a = network.add_node("a");
  net::Node& b = network.add_node("b");
  net::LinkConfig link_config;
  link_config.bandwidth = 100 * kMbps;
  link_config.propagation = 5 * kMillisecond;
  network.connect(a, b, link_config);
  network.compute_routes();

  flow::FlowEngine engine(sim, network);
  std::uint64_t retired = 0;
  const auto launch = [&](Bytes bytes, Bytes window) {
    flow::FlowSpec spec;
    spec.src = a.id();
    spec.dst = b.id();
    spec.bytes = bytes;
    spec.window = window;
    return engine.start(spec,
                        [&retired](const flow::FlowDone&) { ++retired; });
  };
  // A resident class on the same link keeps the link's class list and the
  // solve non-trivial while the churned class comes and goes.
  const flow::FlowId resident = launch(flow::kUnboundedBytes, 64 * kKiB);

  const auto cycle = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      flow::FlowId members[4];
      for (int i = 0; i < 4; ++i) members[i] = launch((i + 1) * kGiB, 0);
      const flow::FlowId quick = launch(10 * kKiB, 0);  // drains first
      sim.run_until(sim.now() + 200 * kMillisecond);
      engine.cancel(members[0]);  // the earliest remaining finisher
      engine.cancel(members[2]);  // a member deeper in the heap
      const flow::FlowId late = launch(5 * kGiB, 0);  // joins mid-flight
      sim.run_until(sim.now() + kMillisecond);
      engine.cancel(members[1]);
      engine.cancel(members[3]);
      engine.cancel(late);  // the class drains to empty
      (void)quick;
      sim.run_until(sim.now() + kMillisecond);
    }
  };
  cycle(20);  // warm-up: slot and class pools, heaps, index nodes grow
  const std::uint64_t before = allocation_count();
  cycle(200);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(retired, 200u * 6);
  EXPECT_TRUE(engine.active(resident));
  EXPECT_EQ(engine.active_flows(), 1u);
}

// Link contract (net/link.h): in-flight packets live in a per-link ring
// that grows only to the link's high-water mark, and each link owns one
// delivery event re-armed in place. Forwarding CBR cross traffic plus
// TCP-window-sized datagram bursts across the CERN–ANL dumbbell therefore
// allocates nothing once every ring has seen its deepest backlog.
TEST(LinkAlloc, SteadyStateForwardingAllocatesNothing) {
  Simulator sim;
  net::Network network{sim};
  const net::WanPath path = net::make_wan_path(network, "cern", "anl");
  net::CbrConfig cbr_config;
  cbr_config.rate = 20 * kMbps;
  net::CbrSource cbr(network, *path.host_a, *path.host_b, cbr_config);
  const net::DatagramSink sink(*path.host_b);
  cbr.start();

  // Every 50 ms, a 64 KiB window's worth of segments leaves at once.
  net::Packet segment;
  segment.src = path.host_a->id();
  segment.dst = path.host_b->id();
  segment.protocol = net::Protocol::kDatagram;
  segment.payload_len = 1460;
  PeriodicTimer bursts(sim, 50 * kMillisecond, [&] {
    for (int i = 0; i < 45; ++i) path.host_a->send(segment);
  });
  bursts.start();

  sim.run_until(2 * kSecond);  // warm-up: rings and the event pool grow
  const std::uint64_t before = allocation_count();
  const Bytes received_before = sink.bytes_received();
  sim.run_until(6 * kSecond);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GT(sink.bytes_received() - received_before, 10 * kMiB);
  EXPECT_GT(path.bottleneck_ab->stats().packets_delivered, 0);
}

// HeartbeatReporter contract (obs/heartbeat.h): once the stream shape
// settles, a tick — sampler pull, windowed series update, watchdog sweep
// and rollup render into the reused line buffer — performs no allocation.
TEST(HeartbeatAlloc, SteadyStateTickAndRenderAllocateNothing) {
  Simulator sim;
  // Sink state outlives the reporter: its destructor still emits the
  // campaign record through the sink.
  std::uint64_t lines = 0;
  std::string last_line;
  last_line.reserve(4096);  // the sink itself must not allocate either

  obs::HeartbeatConfig config;
  config.rollup_path.clear();  // sink only; no file stream
  obs::HeartbeatReporter reporter(sim, config);

  obs::MetricsRegistry registry;
  obs::Counter& bytes = registry.counter("site.cern.bytes_in");
  obs::Counter& requests = registry.counter("gridftp.requests");
  obs::Gauge& depth = registry.gauge("sched.queue_depth");
  reporter.add_registry(&registry);

  reporter.set_sink([&lines, &last_line](const std::string& line) {
    ++lines;
    last_line.assign(line);  // capacity reuse after the reserve above
  });

  const auto advance = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      bytes.add(1'000'000);
      requests.add(3);
      depth.set(static_cast<double>(i % 17));
      reporter.tick();
    }
  };
  advance(20);  // warmup: plan build, window rings, line buffer capacity
  const std::uint64_t before = allocation_count();
  advance(200);
  EXPECT_EQ(allocation_count(), before);
  EXPECT_GE(lines, 220u);
  EXPECT_NE(last_line.find("\"type\":\"rollup\""), std::string::npos);
}

}  // namespace
}  // namespace gdmp::sim

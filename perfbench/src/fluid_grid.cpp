// fluid_grid: an open loop of fluid flows over a 32-site grid.
//
// N flows of 2-4 MiB between random site pairs start at seeded instants
// over a five-second ramp and drain under max-min sharing. Only the flow
// engine and the kernel's reschedule path work here: no TCP, catalog or
// scheduler. Every started flow must complete, and the bytes the engine
// reports must equal the bytes the flows asked for.
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "flow/flow_engine.h"
#include "net/topology.h"

namespace perfbench {
namespace {

using namespace gdmp;

constexpr int kSites = 32;
constexpr int kFlows = 10'000;
constexpr SimDuration kRamp = 5 * kSecond;

struct FlowInput {
  int src;
  int dst;
  Bytes bytes;
  SimDuration at;
};

std::vector<FlowInput> make_inputs(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xf10);
  std::vector<FlowInput> inputs;
  inputs.reserve(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    FlowInput in{};
    in.src = static_cast<int>(rng.uniform_int(0, kSites - 1));
    in.dst = static_cast<int>(rng.uniform_int(0, kSites - 2));
    if (in.dst >= in.src) ++in.dst;  // distinct sites
    in.bytes = 2 * kMiB + rng.uniform_int(0, 2 * kMiB - 1);
    in.at = rng.uniform_int(0, kRamp - 1);
    inputs.push_back(in);
  }
  return inputs;
}

// Shared context so each start callback fits the simulator's inline
// callback budget (one pointer and an index).
struct Ctx {
  flow::FlowEngine* engine = nullptr;
  std::vector<flow::FlowSpec> specs;
  std::vector<double> completion_s;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  Bytes bytes_moved = 0;
  SimTime last_finish = 0;
};

}  // namespace

std::uint64_t fluid_grid_digest(std::uint64_t seed) {
  std::uint64_t h = kDigestBasis;
  for (const FlowInput& in : make_inputs(seed)) {
    mix(h, static_cast<std::uint64_t>(in.src));
    mix(h, static_cast<std::uint64_t>(in.dst));
    mix(h, static_cast<std::uint64_t>(in.bytes));
    mix(h, static_cast<std::uint64_t>(in.at));
  }
  return h;
}

RepResult run_fluid_grid(std::uint64_t seed, bool trace) {
  RepResult out;
  const std::int64_t setup_start = cpu_ns();

  sim::Simulator simulator;
  SimTrace sim_trace(trace, simulator);
  net::Network network(simulator);
  net::GridTopology topology;
  {
    Span span("net.build_grid");
    std::vector<net::GridSiteLink> sites(kSites);
    for (int i = 0; i < kSites; ++i) {
      sites[static_cast<std::size_t>(i)].site_name = "site" + std::to_string(i);
    }
    topology = net::make_grid_topology(network, sites);
  }
  // Completions within one quantum coalesce into a single renegotiation.
  flow::FluidConfig fluid;
  fluid.reneg_quantum = 250 * kMillisecond;
  flow::FlowEngine engine(simulator, network, fluid);

  Ctx ctx;
  ctx.engine = &engine;
  ctx.specs.reserve(kFlows);
  ctx.completion_s.reserve(kFlows);
  Bytes requested = 0;
  for (const FlowInput& in : make_inputs(seed)) {
    flow::FlowSpec spec;
    spec.src = topology.hosts[static_cast<std::size_t>(in.src)]->id();
    spec.dst = topology.hosts[static_cast<std::size_t>(in.dst)]->id();
    spec.bytes = in.bytes;
    spec.window = 64 * kKiB;
    requested += in.bytes;
    const std::size_t index = ctx.specs.size();
    ctx.specs.push_back(spec);
    simulator.schedule(in.at, [c = &ctx, index] {
      Span span("flow.start");
      const flow::FlowId id = c->engine->start(
          c->specs[index], [c](const flow::FlowDone& done) {
            if (!done.ok) {
              ++c->failed;
              return;
            }
            ++c->completed;
            c->bytes_moved += done.transferred;
            c->last_finish = done.finished;
            c->completion_s.push_back(to_seconds(done.finished - done.started));
          });
      if (!id.valid()) ++c->failed;
    });
  }
  out.setup_s = cpu_s_since(setup_start);

  const std::int64_t run_start = cpu_ns();
  double pending_max = 0;
  run_sliced(simulator, 24 * 3600 * kSecond, 1 * kSecond, pending_max,
             [] { return false; });
  out.run_s = cpu_s_since(run_start);

  const flow::FlowEngineStats& stats = engine.stats();
  out.check(ctx.failed == 0, "fluid_grid: flows failed to start or finish");
  out.check(ctx.completed == kFlows,
            "fluid_grid: completed " + std::to_string(ctx.completed) + " of " +
                std::to_string(kFlows) + " flows");
  out.check(stats.flows_started == kFlows && stats.flows_completed == kFlows,
            "fluid_grid: engine started/completed counts disagree");
  out.check(ctx.bytes_moved == requested && stats.bytes_completed == requested,
            "fluid_grid: bytes not conserved");
  out.check(engine.active_flows() == 0, "fluid_grid: flows left active");

  out.ops = ctx.completed;
  out.sim_makespan_s = to_seconds(ctx.last_finish);
  out.sim_goodput_mbps = ratio(static_cast<double>(ctx.bytes_moved) * 8 / 1e6,
                               out.sim_makespan_s);
  out.sim_op_p50_s = quantile(ctx.completion_s, 0.5);
  out.sim_op_p99_s = quantile(ctx.completion_s, 0.99);

  auto& c = out.counts;
  c["sim.events"] = static_cast<double>(simulator.events_fired());
  c["sim.pending_max"] = pending_max;
  c["flow.renegotiations"] = static_cast<double>(stats.renegotiations);
  c["flow.flows_recomputed"] = static_cast<double>(stats.flows_recomputed);
  c["flow.links_recomputed"] = static_cast<double>(stats.links_recomputed);
  c["flow.flows_per_reneg"] =
      ratio(static_cast<double>(stats.flows_recomputed),
            static_cast<double>(stats.renegotiations));
  sim_trace.summarize(out.sim_spans);
  return out;
}

}  // namespace perfbench

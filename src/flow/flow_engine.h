// Fluid flow engine: rate-based transfer simulation.
//
// Each active transfer is a flow with a payload rate; the engine assigns
// weighted max-min fair shares per link (fair_share.h). Rates are
// renegotiated only when the flow set or a link capacity changes, and the
// renegotiation is *incremental*: it solves over the closure of links the
// change touched, folding unaffected traffic in as fixed load, and expands
// only to links whose freed slack can actually be claimed (a resident
// class recorded that link as its bottleneck).
//
// Rate classes: fair-share flows with the same (path, effective weight,
// cap) always get the same max-min rate, so the engine solves, applies and
// schedules per *class*. A class serves its members at one rate and keeps
// a processor-sharing virtual clock — bytes served per member. A member's
// finish tag is the clock at admission plus its bytes (and its slow-start
// deficit), so a common rate change never reorders a class's members:
// only the earliest finisher holds a kernel event, and a re-rate is one
// clock settle and one reschedule per class. Per-link fixed load (pinned
// traffic plus out-of-closure classes) is a running sum updated on admit,
// retire and re-rate. Pinned flows join fixed-rate classes that never
// enter a solve; they only use the clock for their completion. Steady
// state allocates nothing: flow and class slots, member heaps, per-class
// path vectors, index nodes and all solver scratch are pooled (DESIGN.md
// §5e kernel discipline).
//
// Determinism: closure discovery follows event order (dirty list) and
// per-link insertion order; the unordered containers (Link* and class-key
// indexes) are lookup-only and never iterated.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/det_hash.h"
#include "common/types.h"
#include "flow/fair_share.h"
#include "flow/flow.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace gdmp::flow {

class FlowEngine {
 public:
  /// Completion callback. Fires exactly once per started flow — on drain
  /// (ok) or cancel (not ok) — never from inside start(). Invoked after the
  /// engine has fully retired the flow, so callbacks may start or cancel
  /// flows reentrantly. NOT invoked by the engine destructor (teardown
  /// discipline: in-flight work is dropped, like net::Link).
  using Completion = sim::InlineFunction<void(const FlowDone&), 64>;

  FlowEngine(sim::Simulator& simulator, net::Network& network,
             FluidConfig config = {});
  ~FlowEngine();

  FlowEngine(const FlowEngine&) = delete;
  FlowEngine& operator=(const FlowEngine&) = delete;

  /// Starts a flow. The route must exist (compute_routes() has run) and be
  /// at least one link long. Returns an invalid id if unrouted.
  FlowId start(const FlowSpec& spec, Completion on_done);

  /// Cancels an active flow; its completion fires with ok=false before
  /// this returns. Stale / completed ids are a no-op returning false.
  bool cancel(FlowId id);

  bool active(FlowId id) const noexcept;
  /// Current payload rate (bits/s); 0 for inactive ids.
  BitsPerSec rate(FlowId id) const noexcept;
  /// Payload bytes delivered so far, settled to now(). During the modelled
  /// slow-start deficit this reads 0 (the window is still growing).
  Bytes transferred(FlowId id) const noexcept;

  /// Re-reads `link->config().bandwidth` and renegotiates the flows
  /// crossing it. Call after mutating a link the engine has seen; unknown
  /// links are a no-op.
  void on_link_changed(const net::Link* link);

  /// Offered payload load / payload capacity for a link the engine has
  /// routed flows over (0 for unknown links). Complements
  /// net::Link::busy_time() which only moves under the packet model.
  double link_utilization(const net::Link* link) const noexcept;

  /// Cumulative payload bytes fair-share flows have moved across `link`
  /// as of now() — settled credit plus each resident flow's unsettled
  /// in-flight portion, so the value is exact between renegotiations.
  /// Pinned (background) flows are excluded: they model cross-traffic
  /// load, not transfers. 0 for unknown links.
  double link_bytes_moved(const net::Link* link) const noexcept;

  std::size_t active_flows() const noexcept { return active_count_; }
  const FlowEngineStats& stats() const noexcept { return stats_; }
  const FluidConfig& config() const noexcept { return config_; }
  sim::Simulator& simulator() noexcept { return simulator_; }

  /// Caches the "active_flows" gauge and binds the stats() counts
  /// ("renegotiations", "links_recomputed", "classes_recomputed",
  /// "completed") under `scope`.
  void set_metrics(const obs::MetricsScope& scope);

 private:
  struct FlowState {
    FlowSpec spec{};
    Completion on_done{};
    std::uint32_t gen = 0;
    bool in_use = false;
    std::int32_t rate_class = -1;
    /// Index in the class's `members`: below `admitted` a heap position,
    /// at or above it a pending (not yet rated) member.
    std::uint32_t pos = 0;
    /// Class clock at which this member's last byte drains (admitted only).
    double finish_tag = 0.0;
    SimTime started = 0;
  };

  /// Identity of a rate class. `path_hash` stands for the path; a lookup
  /// also compares the path itself, so a collision only costs sharing.
  struct ClassKey {
    std::uint64_t path_hash = 0;
    double weight_eff = 0.0;
    double cap = 0.0;
    double pinned_rate = 0.0;
    friend bool operator==(const ClassKey&, const ClassKey&) = default;
  };
  struct ClassKeyHash {
    std::size_t operator()(const ClassKey& key) const noexcept;
  };
  struct RateClass {
    std::vector<std::int32_t> path;         // link indices, src → dst
    std::vector<std::int32_t> pos_in_link;  // slot in each link's classes
                                            // (fair-share classes only)
    /// Flow slots: [0, admitted) is a min-heap on (finish_tag, slot); the
    /// tail holds members started since the class was last rated.
    std::vector<std::uint32_t> members;
    std::uint32_t admitted = 0;
    std::uint32_t gen = 0;
    ClassKey key{};
    bool indexed = false;  // owns its class_index_ entry
    bool in_closure = false;
    double rate = 0.0;       // payload bits/s of every admitted member
    double clock = 0.0;      // bytes served per member as of settled_at
    SimTime settled_at = 0;
    SimDuration rtt = 0;
    std::int32_t bottleneck = -1;  // link index that froze the class rate
    sim::EventHandle completion{};  // earliest finisher's drain

    bool pinned() const noexcept { return key.pinned_rate > 0.0; }
  };

  using ClassIndex = common::UnorderedMap<ClassKey, std::int32_t, ClassKeyHash>;

  struct LinkState {
    const net::Link* link = nullptr;
    double capacity = 0.0;  // payload bits/s (wire bandwidth × efficiency)
    double pinned = 0.0;    // payload load of pinned flows
    double load = 0.0;      // running payload load of admitted fair-share
                            // members; a renegotiation takes its closure's
                            // share out until it applies the new rates
    std::vector<std::int32_t> classes;  // fair-share classes crossing
    double bytes_moved = 0.0;  // settled fair-share payload bytes
    bool dirty = false;
    std::int32_t share_index = -1;  // renegotiation scratch
  };

  std::int32_t intern_link(const net::Link* link);
  std::uint32_t alloc_slot();
  std::int32_t find_or_create_class(const ClassKey& key, SimDuration rtt);
  void free_class(std::int32_t index);
  double clock_at(const RateClass& cls, SimTime now) const noexcept;
  void settle(RateClass& cls, SimTime now);
  void admit_pending(RateClass& cls, double first_rate);
  SimTime head_drain_time(const RateClass& cls) const noexcept;
  void arm(std::int32_t index);
  void on_head_due(std::int32_t index, std::uint32_t gen);
  void join_closure(std::int32_t index);
  void mark_dirty(std::int32_t link_index);
  SimTime next_renegotiation() const noexcept;
  void schedule_renegotiation();
  void renegotiate();
  void apply_rate(std::int32_t index, double rate, std::int32_t bottleneck);
  bool finishes_before(std::uint32_t a, std::uint32_t b) const noexcept;
  void place(RateClass& cls, std::uint32_t pos, std::uint32_t slot);
  void sift_up(RateClass& cls, std::uint32_t pos);
  void sift_down(RateClass& cls, std::uint32_t pos);
  void leave_class(std::uint32_t slot);
  void complete(std::uint32_t slot);
  void retire(std::uint32_t slot, bool ok);

  sim::Simulator& simulator_;
  net::Network& network_;
  FluidConfig config_;

  std::vector<FlowState> flows_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_count_ = 0;

  std::vector<RateClass> classes_;
  std::vector<std::int32_t> free_classes_;
  ClassIndex class_index_;  // lookup-only
  std::vector<ClassIndex::node_type> free_nodes_;  // recycled index nodes

  std::vector<LinkState> links_;
  common::UnorderedMap<const net::Link*, std::int32_t>
      link_index_;  // lookup-only

  std::vector<std::int32_t> dirty_links_;
  sim::EventHandle reneg_event_{};
  bool reneg_pending_ = false;
  SimTime reneg_at_ = 0;  // when the pending renegotiation fires

  // Renegotiation scratch, reused across solves.
  WaterFill solver_;
  std::vector<std::int32_t> closure_classes_;
  std::vector<std::int32_t> solve_links_;
  std::vector<ShareFlow> share_flows_;
  std::vector<ShareLink> share_links_;
  std::vector<std::int32_t> membership_;
  std::vector<net::Link*> path_scratch_;
  std::vector<std::int32_t> link_scratch_;

  FlowEngineStats stats_;
  obs::Gauge* active_gauge_ = nullptr;

  /// Completion / renegotiation events may outlive the engine in the
  /// simulator queue; they hold this sentinel weakly.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::flow

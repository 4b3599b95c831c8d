#include "flow/flow_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace gdmp::flow {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// Payload bytes actually delivered (the slow-start deficit drains first,
/// so early on this reads 0).
Bytes delivered_bytes(Bytes total, double remaining) noexcept {
  const double done = static_cast<double>(total) - remaining;
  if (done <= 0.0) return 0;
  if (done >= static_cast<double>(total)) return total;
  return static_cast<Bytes>(done);
}

std::uint64_t mix64(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 27);
}

std::uint64_t bits_of(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

}  // namespace

std::size_t FlowEngine::ClassKeyHash::operator()(
    const ClassKey& key) const noexcept {
  std::uint64_t h = mix64(key.path_hash, bits_of(key.weight_eff));
  h = mix64(h, bits_of(key.cap));
  return static_cast<std::size_t>(mix64(h, bits_of(key.pinned_rate)));
}

FlowEngine::FlowEngine(sim::Simulator& simulator, net::Network& network,
                       FluidConfig config)
    : simulator_(simulator), network_(network), config_(config) {}

FlowEngine::~FlowEngine() {
  for (RateClass& cls : classes_) {
    simulator_.cancel(cls.completion);
  }
  simulator_.cancel(reneg_event_);
  // Teardown discipline (see Completion): in-flight flows are dropped with
  // their parked completions uncalled.
  flows_.clear();
}

void FlowEngine::set_metrics(const obs::MetricsScope& scope) {
  active_gauge_ = scope.gauge("active_flows");
  scope.counter("renegotiations", stats_.renegotiations);
  scope.counter("links_recomputed", stats_.links_recomputed);
  scope.counter("classes_recomputed", stats_.classes_recomputed);
  scope.counter("completed", stats_.flows_completed);
}

std::int32_t FlowEngine::intern_link(const net::Link* link) {
  const auto [it, inserted] =
      link_index_.try_emplace(link, static_cast<std::int32_t>(links_.size()));
  if (inserted) {
    LinkState state;
    state.link = link;
    state.capacity = link->config().bandwidth * config_.efficiency;
    links_.push_back(std::move(state));
  }
  return it->second;
}

std::uint32_t FlowEngine::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  flows_.emplace_back();
  flows_.back().gen = 1;
  // Keep the free list's capacity ahead of the slot pool (same idiom as the
  // event heap): retire() can then push a slot without ever allocating, even
  // if every flow completes at once.
  if (free_slots_.capacity() < flows_.size()) {
    free_slots_.reserve(flows_.size() * 2);
  }
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

std::int32_t FlowEngine::find_or_create_class(const ClassKey& key,
                                              SimDuration rtt) {
  const auto found = class_index_.find(key);
  if (found != class_index_.end() &&
      classes_[found->second].path == link_scratch_) {
    return found->second;
  }

  std::int32_t index;
  if (!free_classes_.empty()) {
    index = free_classes_.back();
    free_classes_.pop_back();
  } else {
    index = static_cast<std::int32_t>(classes_.size());
    classes_.emplace_back();
    classes_.back().gen = 1;
    // Capacity ahead of the class pool, as for flow slots: free_class()
    // never allocates.
    if (free_classes_.capacity() < classes_.size()) {
      free_classes_.reserve(classes_.size() * 2);
      free_nodes_.reserve(classes_.size() * 2);
    }
  }
  RateClass& cls = classes_[index];
  cls.path.assign(link_scratch_.begin(), link_scratch_.end());
  cls.pos_in_link.clear();
  cls.members.clear();
  cls.admitted = 0;
  cls.key = key;
  cls.in_closure = false;
  cls.rate = cls.pinned() ? key.pinned_rate : 0.0;
  cls.clock = 0.0;
  cls.settled_at = simulator_.now();
  cls.rtt = rtt;
  cls.bottleneck = -1;
  cls.completion = {};
  if (!cls.pinned()) {
    for (const std::int32_t li : cls.path) {
      std::vector<std::int32_t>& classes = links_[li].classes;
      cls.pos_in_link.push_back(static_cast<std::int32_t>(classes.size()));
      classes.push_back(index);
    }
  }
  // A class whose key is taken by a different path (hash collision, or a
  // route recomputed under live flows) simply stays unindexed.
  cls.indexed = found == class_index_.end();
  if (cls.indexed) {
    if (free_nodes_.empty()) {
      class_index_.emplace(key, index);
    } else {
      ClassIndex::node_type node = std::move(free_nodes_.back());
      free_nodes_.pop_back();
      node.key() = key;
      node.mapped() = index;
      class_index_.insert(std::move(node));
    }
  }
  return index;
}

void FlowEngine::free_class(std::int32_t index) {
  RateClass& cls = classes_[index];
  simulator_.cancel(cls.completion);
  cls.completion = {};
  for (std::size_t i = 0; i < cls.pos_in_link.size(); ++i) {
    const std::int32_t li = cls.path[i];
    LinkState& link = links_[li];
    const auto pos = static_cast<std::size_t>(cls.pos_in_link[i]);
    const std::int32_t moved = link.classes.back();
    link.classes[pos] = moved;
    link.classes.pop_back();
    if (moved != index) {
      RateClass& other = classes_[moved];
      for (std::size_t j = 0; j < other.path.size(); ++j) {
        if (other.path[j] == li) {
          other.pos_in_link[j] = static_cast<std::int32_t>(pos);
          break;
        }
      }
    }
    // An empty link carries no load: drop the running sum's rounding drift.
    if (link.classes.empty()) link.load = 0.0;
  }
  if (cls.indexed) free_nodes_.push_back(class_index_.extract(cls.key));
  ++cls.gen;
  free_classes_.push_back(index);
}

FlowId FlowEngine::start(const FlowSpec& spec, Completion on_done) {
  path_scratch_.clear();
  if (!network_.path_links(spec.src, spec.dst, path_scratch_) ||
      path_scratch_.empty()) {
    // gdmp-lint: dropped-ok — unrouted flow never started; header contract fires completions for started flows only
    return FlowId{};
  }

  SimDuration one_way = 0;
  std::uint64_t path_hash = 0;
  link_scratch_.clear();
  for (net::Link* link : path_scratch_) {
    one_way += link->config().propagation;
    const std::int32_t li = intern_link(link);
    link_scratch_.push_back(li);
    path_hash = mix64(path_hash, static_cast<std::uint64_t>(li));
  }
  const SimDuration rtt = std::max<SimDuration>(2 * one_way, kMicrosecond);
  const double rtt_sec = to_seconds(rtt);
  const double ref_sec =
      to_seconds(std::max<SimDuration>(config_.reference_rtt, kMicrosecond));
  ClassKey key;
  key.path_hash = path_hash;
  key.weight_eff = std::max(spec.weight, 1e-9) * ref_sec / rtt_sec;
  key.cap = spec.window > 0
                ? static_cast<double>(spec.window) * 8.0 / rtt_sec
                : kInf;
  const double pinned = spec.pinned_rate * config_.efficiency;
  key.pinned_rate =
      spec.pinned_rate > 0
          ? std::max(pinned, static_cast<double>(config_.min_rate))
          : 0.0;
  const std::int32_t index = find_or_create_class(key, rtt);

  const std::uint32_t slot = alloc_slot();
  FlowState& flow = flows_[slot];
  flow.spec = spec;
  flow.on_done = std::move(on_done);
  flow.in_use = true;
  flow.rate_class = index;
  flow.started = simulator_.now();
  RateClass& cls = classes_[index];
  flow.pos = static_cast<std::uint32_t>(cls.members.size());
  cls.members.push_back(slot);

  for (const std::int32_t li : cls.path) {
    if (cls.pinned()) links_[li].pinned += pinned;
    mark_dirty(li);
  }

  ++stats_.flows_started;
  ++active_count_;
  if (active_gauge_) active_gauge_->set(static_cast<double>(active_count_));

  if (cls.pinned()) {
    // Unresponsive flow: its rate is fixed now and forever; only the
    // fair-share population renegotiates around it.
    admit_pending(cls, cls.rate);
    if (cls.members[0] == slot) arm(index);
  }
  schedule_renegotiation();
  return FlowId{slot, flow.gen};
}

bool FlowEngine::cancel(FlowId id) {
  if (!active(id)) return false;
  ++stats_.flows_cancelled;
  retire(id.slot, false);
  return true;
}

bool FlowEngine::active(FlowId id) const noexcept {
  return id.valid() && id.slot < flows_.size() && flows_[id.slot].in_use &&
         flows_[id.slot].gen == id.gen;
}

BitsPerSec FlowEngine::rate(FlowId id) const noexcept {
  if (!active(id)) return 0.0;
  const FlowState& flow = flows_[id.slot];
  const RateClass& cls = classes_[flow.rate_class];
  return flow.pos < cls.admitted ? cls.rate : 0.0;
}

Bytes FlowEngine::transferred(FlowId id) const noexcept {
  if (!active(id)) return 0;
  const FlowState& flow = flows_[id.slot];
  const RateClass& cls = classes_[flow.rate_class];
  if (flow.pos >= cls.admitted) return 0;
  const double left = flow.finish_tag - clock_at(cls, simulator_.now());
  return delivered_bytes(flow.spec.bytes, left > 0.0 ? left : 0.0);
}

void FlowEngine::on_link_changed(const net::Link* link) {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return;
  links_[it->second].capacity =
      link->config().bandwidth * config_.efficiency;
  mark_dirty(it->second);
  schedule_renegotiation();
}

double FlowEngine::link_utilization(const net::Link* link) const noexcept {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return 0.0;
  const LinkState& state = links_[it->second];
  if (state.capacity <= 0.0) return 0.0;
  return (state.pinned + state.load) / state.capacity;
}

double FlowEngine::link_bytes_moved(const net::Link* link) const noexcept {
  const auto it = link_index_.find(link);
  if (it == link_index_.end()) return 0.0;
  const LinkState& state = links_[it->second];
  double total = state.bytes_moved;
  // Resident classes have settled state only as of their last re-rate;
  // add what their members have moved since (settle() credits it later).
  // A member outlives its drain only by the nanosecond completion
  // rounding, so clamping per member would change this by under a byte.
  const SimTime now = simulator_.now();
  for (const std::int32_t index : state.classes) {
    const RateClass& cls = classes_[index];
    total += (clock_at(cls, now) - cls.clock) * cls.admitted;
  }
  return total;
}

double FlowEngine::clock_at(const RateClass& cls, SimTime now) const noexcept {
  if (now <= cls.settled_at) return cls.clock;
  return cls.clock + cls.rate * to_seconds(now - cls.settled_at) / 8.0;
}

void FlowEngine::settle(RateClass& cls, SimTime now) {
  if (now <= cls.settled_at) return;
  const double clock = clock_at(cls, now);
  // Per-link byte accounting for fair-share traffic. Pinned flows are
  // background load, not transfers — see link_bytes_moved().
  if (!cls.pinned() && cls.admitted > 0) {
    const double moved = (clock - cls.clock) * cls.admitted;
    for (const std::int32_t li : cls.path) links_[li].bytes_moved += moved;
  }
  cls.clock = clock;
  cls.settled_at = now;
}

void FlowEngine::admit_pending(RateClass& cls, double first_rate) {
  const double clock = clock_at(cls, simulator_.now());
  while (cls.admitted < cls.members.size()) {
    const std::uint32_t pos = cls.admitted++;
    FlowState& flow = flows_[cls.members[pos]];
    double bytes = static_cast<double>(flow.spec.bytes);
    if (config_.model_slow_start && !cls.pinned() &&
        flow.spec.bytes < kUnboundedBytes) {
      // One-shot slow-start tax: bytes "lost" while the window doubles from
      // the initial window up to its steady value (capped by the receive
      // window or the path rate × RTT product).
      const double steady_window =
          std::min(flow.spec.window > 0
                       ? static_cast<double>(flow.spec.window)
                       : kInf,
                   first_rate * to_seconds(cls.rtt) / 8.0);
      const double initial =
          std::max(static_cast<double>(config_.initial_window), 1.0);
      if (steady_window > initial) {
        const double doublings = std::log2(steady_window / initial);
        bytes += steady_window * std::max(0.0, doublings - 2.0);
      }
    }
    flow.finish_tag = clock + bytes;
    sift_up(cls, pos);
  }
}

SimTime FlowEngine::head_drain_time(const RateClass& cls) const noexcept {
  if (cls.admitted == 0) return kNever;
  const double left = flows_[cls.members[0]].finish_tag - cls.clock;
  const double ns = (left > 0.0 ? left : 0.0) * 8.0 / cls.rate * 1e9;
  if (!(ns < static_cast<double>(
            std::numeric_limits<SimTime>::max() / 4))) {
    return kNever;  // effectively never (unbounded background flows)
  }
  return cls.settled_at + static_cast<SimDuration>(ns) + 1;  // ceil
}

void FlowEngine::arm(std::int32_t index) {
  RateClass& cls = classes_[index];
  const SimTime when = head_drain_time(cls);
  if (when == kNever) {
    simulator_.cancel(cls.completion);
    cls.completion = {};
    return;
  }
  if (simulator_.reschedule_at(cls.completion, when)) return;
  cls.completion = simulator_.schedule_at(
      when, [this, index, gen = cls.gen,
             weak = std::weak_ptr<bool>(alive_)] {
        if (weak.expired()) return;
        on_head_due(index, gen);
      });
}

void FlowEngine::on_head_due(std::int32_t index, std::uint32_t gen) {
  // Every member due by now completes in finish-tag order; completion
  // callbacks may start, cancel or free classes (re-check each round).
  for (;;) {
    RateClass& cls = classes_[index];
    if (cls.gen != gen) return;  // stale: the class was freed
    if (head_drain_time(cls) > simulator_.now()) return;  // arm() moved it
    complete(cls.members[0]);
  }
}

void FlowEngine::mark_dirty(std::int32_t link_index) {
  LinkState& link = links_[link_index];
  if (link.dirty) return;
  link.dirty = true;
  dirty_links_.push_back(link_index);
}

SimTime FlowEngine::next_renegotiation() const noexcept {
  if (reneg_pending_) return reneg_at_;
  return simulator_.now() + std::max<SimDuration>(config_.reneg_quantum, 0);
}

void FlowEngine::schedule_renegotiation() {
  if (reneg_pending_) return;
  reneg_at_ = next_renegotiation();
  reneg_pending_ = true;
  if (simulator_.reschedule(reneg_event_, config_.reneg_quantum)) return;
  reneg_event_ = simulator_.schedule(
      config_.reneg_quantum,
      [this, weak = std::weak_ptr<bool>(alive_)] {
        if (weak.expired()) return;
        renegotiate();
      });
}

void FlowEngine::join_closure(std::int32_t index) {
  RateClass& cls = classes_[index];
  if (cls.in_closure) return;
  cls.in_closure = true;
  closure_classes_.push_back(index);
  // Until apply_rate() adds it back, `load` holds only the fixed load.
  const double load = cls.rate * cls.admitted;
  for (const std::int32_t li : cls.path) links_[li].load -= load;
}

void FlowEngine::renegotiate() {
  reneg_pending_ = false;
  if (dirty_links_.empty()) return;
  ++stats_.renegotiations;

  closure_classes_.clear();
  solve_links_.clear();

  // Seed: every dirty link is *absorbed* — its resident classes will be
  // re-rated. (`dirty` doubles as the absorbed marker below.)
  for (const std::int32_t li : dirty_links_) {
    LinkState& link = links_[li];
    if (link.share_index >= 0) continue;
    link.share_index = static_cast<std::int32_t>(solve_links_.size());
    solve_links_.push_back(li);
  }

  std::size_t absorbed_scan = 0;  // solve_links_ entries whose classes joined
  std::size_t class_scan = 0;     // closure classes whose paths were walked
  int round = 0;
  for (;;) {
    // Discovery: classes of newly absorbed links join the closure; links on
    // newly joined classes' paths join the solve as capacity constraints
    // (their own residents stay fixed unless a later round absorbs them).
    for (; absorbed_scan < solve_links_.size(); ++absorbed_scan) {
      const LinkState& link = links_[solve_links_[absorbed_scan]];
      if (!link.dirty) continue;  // constraint-only link, not absorbed
      for (const std::int32_t index : link.classes) join_closure(index);
    }
    for (; class_scan < closure_classes_.size(); ++class_scan) {
      const RateClass& cls = classes_[closure_classes_[class_scan]];
      for (const std::int32_t li : cls.path) {
        LinkState& link = links_[li];
        if (link.share_index >= 0) continue;
        link.share_index = static_cast<std::int32_t>(solve_links_.size());
        solve_links_.push_back(li);
      }
    }

    // Solver input: closure classes over solve links, with pinned traffic
    // and out-of-closure classes folded in as fixed load.
    share_links_.clear();
    for (const std::int32_t li : solve_links_) {
      const LinkState& link = links_[li];
      ShareLink entry;
      entry.capacity =
          link.capacity - link.pinned - std::max(link.load, 0.0);
      share_links_.push_back(entry);
    }
    share_flows_.clear();
    membership_.clear();
    for (const std::int32_t index : closure_classes_) {
      const RateClass& cls = classes_[index];
      ShareFlow entry;
      entry.weight = cls.key.weight_eff;
      entry.cap = cls.key.cap;
      entry.members = static_cast<std::uint32_t>(cls.members.size());
      entry.link_begin = static_cast<std::int32_t>(membership_.size());
      entry.link_count = static_cast<std::int32_t>(cls.path.size());
      for (const std::int32_t li : cls.path) {
        membership_.push_back(links_[li].share_index);
      }
      share_flows_.push_back(entry);
    }
    solver_.solve(share_flows_, share_links_, membership_, config_.min_rate);
    ++round;
    if (round >= config_.max_rounds) break;

    // Expansion: a constraint-only link whose capacity is now under-used
    // only matters if a resident fixed class was bottlenecked *on that
    // link* — then it can claim the slack and must be re-rated. Absorbing
    // links without such a class would drag the whole network into every
    // solve (the O(F^2) trap).
    bool expanded = false;
    for (std::size_t i = 0; i < solve_links_.size(); ++i) {
      LinkState& link = links_[solve_links_[i]];
      if (link.dirty) continue;  // already absorbed
      if (share_links_[i].residual <= config_.slack_epsilon) continue;
      bool claimable = false;
      for (const std::int32_t index : link.classes) {
        const RateClass& cls = classes_[index];
        if (!cls.in_closure && cls.bottleneck == solve_links_[i]) {
          claimable = true;
          break;
        }
      }
      if (claimable) {
        // Absorb directly (the discovery cursor already passed this link).
        link.dirty = true;
        for (const std::int32_t index : link.classes) join_closure(index);
        expanded = true;
      }
    }
    if (!expanded) break;
  }

  std::int64_t flows = 0;
  for (const ShareFlow& entry : share_flows_) flows += entry.members;
  stats_.links_recomputed += static_cast<std::int64_t>(solve_links_.size());
  stats_.flows_recomputed += flows;
  stats_.classes_recomputed +=
      static_cast<std::int64_t>(closure_classes_.size());

  // Apply after the solve has fully converged: settle each class under its
  // old rate, install the new one, and move its completion event.
  for (std::size_t i = 0; i < closure_classes_.size(); ++i) {
    const std::int32_t share_bottleneck = share_flows_[i].bottleneck;
    apply_rate(closure_classes_[i], share_flows_[i].rate,
               share_bottleneck >= 0 ? solve_links_[share_bottleneck] : -1);
  }

  for (const std::int32_t li : solve_links_) {
    links_[li].share_index = -1;
    links_[li].dirty = false;
  }
  for (const std::int32_t index : closure_classes_) {
    classes_[index].in_closure = false;
  }
  dirty_links_.clear();
}

void FlowEngine::apply_rate(std::int32_t index, double rate,
                            std::int32_t bottleneck) {
  RateClass& cls = classes_[index];
  settle(cls, simulator_.now());
  cls.rate = std::max(rate, static_cast<double>(config_.min_rate));
  cls.bottleneck = bottleneck;
  admit_pending(cls, rate);
  const double load = cls.rate * cls.admitted;
  for (const std::int32_t li : cls.path) links_[li].load += load;
  arm(index);
}

void FlowEngine::place(RateClass& cls, std::uint32_t pos, std::uint32_t slot) {
  cls.members[pos] = slot;
  flows_[slot].pos = pos;
}

bool FlowEngine::finishes_before(std::uint32_t a,
                                 std::uint32_t b) const noexcept {
  const double ta = flows_[a].finish_tag;
  const double tb = flows_[b].finish_tag;
  return ta < tb || (ta == tb && a < b);
}

void FlowEngine::sift_up(RateClass& cls, std::uint32_t pos) {
  const std::uint32_t slot = cls.members[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    const std::uint32_t above = cls.members[parent];
    if (!finishes_before(slot, above)) break;
    place(cls, pos, above);
    pos = parent;
  }
  place(cls, pos, slot);
}

void FlowEngine::sift_down(RateClass& cls, std::uint32_t pos) {
  const std::uint32_t slot = cls.members[pos];
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= cls.admitted) break;
    if (child + 1 < cls.admitted &&
        finishes_before(cls.members[child + 1], cls.members[child])) {
      ++child;
    }
    const std::uint32_t below = cls.members[child];
    if (!finishes_before(below, slot)) break;
    place(cls, pos, below);
    pos = child;
  }
  place(cls, pos, slot);
}

void FlowEngine::leave_class(std::uint32_t slot) {
  const FlowState& flow = flows_[slot];
  const std::int32_t index = flow.rate_class;
  RateClass& cls = classes_[index];
  const std::uint32_t pos = flow.pos;
  const bool was_head = pos == 0 && cls.admitted > 0;
  const SimTime now = simulator_.now();
  const double pinned =
      cls.pinned() ? flow.spec.pinned_rate * config_.efficiency : 0.0;

  if (pos < cls.admitted) {
    if (!cls.pinned()) {
      // Credit what the member moved since the last settle, and take its
      // rate off the running link loads.
      const double left = std::max(flow.finish_tag - cls.clock, 0.0);
      const double moved = std::min(left, clock_at(cls, now) - cls.clock);
      for (const std::int32_t li : cls.path) {
        LinkState& link = links_[li];
        if (moved > 0.0) link.bytes_moved += moved;
        link.load -= cls.rate;
      }
    }
    // Heap removal: the last heap entry fills the hole and the last pending
    // member (if any) takes the slot the shrunken heap gives up.
    const std::uint32_t last = cls.admitted - 1;
    if (pos != last) place(cls, pos, cls.members[last]);
    if (cls.members.size() > cls.admitted) {
      place(cls, last, cls.members.back());
    }
    cls.members.pop_back();
    --cls.admitted;
    if (pos < cls.admitted) {
      sift_up(cls, pos);
      sift_down(cls, pos);  // a no-op if the entry moved up
    }
  } else {
    if (pos + 1 != cls.members.size()) place(cls, pos, cls.members.back());
    cls.members.pop_back();
  }

  for (const std::int32_t li : cls.path) {
    LinkState& link = links_[li];
    if (cls.pinned()) {
      link.pinned -= pinned;
      if (link.pinned < 0.0) link.pinned = 0.0;
    }
    mark_dirty(li);
  }

  if (cls.members.empty()) {
    free_class(index);
  } else if (was_head) {
    // retire() schedules a renegotiation, which re-rates this class (its
    // links are dirty now) and arms it then. Until that instant the new
    // head needs an event only if it drains first.
    if (cls.pinned() || head_drain_time(cls) <= next_renegotiation()) {
      arm(index);
    } else {
      simulator_.cancel(cls.completion);
      cls.completion = {};
    }
  }
}

void FlowEngine::complete(std::uint32_t slot) {
  const FlowState& flow = flows_[slot];
  ++stats_.flows_completed;
  stats_.bytes_completed += flow.spec.bytes;
  retire(slot, true);
}

void FlowEngine::retire(std::uint32_t slot, bool ok) {
  FlowState& flow = flows_[slot];

  FlowDone done;
  done.id = FlowId{slot, flow.gen};
  done.ok = ok;
  done.transferred = 0;
  if (ok) {
    done.transferred = flow.spec.bytes;
  } else if (const RateClass& cls = classes_[flow.rate_class];
             flow.pos < cls.admitted) {
    const double left =
        flow.finish_tag - clock_at(cls, simulator_.now());
    done.transferred =
        delivered_bytes(flow.spec.bytes, left > 0.0 ? left : 0.0);
  }
  done.started = flow.started;
  done.finished = simulator_.now();
  done.tag = flow.spec.tag;

  leave_class(slot);
  Completion callback = std::move(flow.on_done);
  flow.on_done = {};
  flow.in_use = false;
  flow.rate_class = -1;
  ++flow.gen;
  free_slots_.push_back(slot);
  --active_count_;
  if (active_gauge_) active_gauge_->set(static_cast<double>(active_count_));
  schedule_renegotiation();
  // `flow` may dangle past this point: the callback can start new flows
  // (slot-pool growth) — everything it needs was copied out above.
  if (callback) callback(done);
}

}  // namespace gdmp::flow

// Unidirectional point-to-point link with a drop-tail queue.
//
// The link serializes packets at `bandwidth` bits/s, then delays them by
// `propagation`. Packets arriving while `queue_capacity` bytes are already
// queued or in transmission are dropped — this drop-tail bottleneck is what
// makes tuned parallel TCP streams interact exactly as in the paper's
// CERN–ANL measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace gdmp::net {

struct LinkConfig {
  BitsPerSec bandwidth = 45 * kMbps;
  SimDuration propagation = 62 * kMillisecond + 500 * kMicrosecond;
  Bytes queue_capacity = 512 * kKiB;  // router buffer on this interface
};

struct LinkStats {
  std::int64_t packets_sent = 0;
  std::int64_t packets_dropped = 0;
  std::int64_t packets_delivered = 0;
  Bytes bytes_sent = 0;    // wire bytes serialized
  Bytes bytes_dropped = 0;
  Bytes bytes_delivered = 0;  // wire bytes handed to the receiver
};

/// One kernel event per link, not two per packet. Serialization is FIFO and
/// propagation constant, so a link's deliveries happen in enqueue order at
/// nondecreasing times. The link keeps its in-flight packets in a ring and
/// arms a single kernel event for the head's delivery, re-armed in place
/// from the delivery callback. Each packet takes a kernel sequence number
/// (Simulator::reserve_seq) at enqueue, exactly where one schedule_at()
/// per packet would have, so the head event fires in the plain per-packet
/// event order, same-nanosecond ties included. Queue space is released
/// lazily: a packet stops counting toward backlog() once its serialization
/// end, keyed (done, seq), would already have fired as an event
/// (Simulator::fired_before). See DESIGN.md §5e.
class Link {
 public:
  /// Inline callable: link delivery is the per-packet fast path, so the
  /// receive hook must not cost a heap-backed std::function.
  using Deliver = sim::InlineFunction<void(const Packet&), 64>;

  Link(sim::Simulator& simulator, LinkConfig config, Deliver deliver);
  /// Cancels the pending delivery event: packets still queued or in flight
  /// are dropped silently. The simulator must outlive the link.
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Accepts a packet for transmission; drops it if the queue is full.
  /// Returns false on drop.
  bool enqueue(const Packet& packet);

  const LinkConfig& config() const noexcept { return config_; }
  const LinkStats& stats() const noexcept { return stats_; }

  /// Changes the serialization rate in place (mid-run capacity changes:
  /// degraded production links, maintenance windows). Packets already
  /// being serialized keep their old completion times. Fluid-model users
  /// must also call FlowEngine::on_link_changed().
  void set_bandwidth(BitsPerSec bandwidth) noexcept {
    config_.bandwidth = bandwidth;
  }

  /// Bytes currently queued or being serialized.
  Bytes backlog() const noexcept {
    release_serialized();
    return backlog_;
  }

  /// The queueing delay a newly arriving packet would see right now.
  SimDuration queueing_delay() const noexcept;

  /// Cumulative time the transmitter has spent serializing bytes — the
  /// real busy-time integral, as opposed to the instantaneous
  /// queueing_delay() above. busy_time()/elapsed is the true utilization.
  SimDuration busy_time() const noexcept;

  /// Caches a "utilization" gauge under `scope`, which
  /// sample_utilization() publishes into, and binds the stats() byte/drop
  /// totals ("bytes_sent", "bytes_delivered", "packets_dropped") there.
  void set_metrics(const obs::MetricsScope& scope);

  /// Busy-time fraction since the previous call (or since t=0 for the
  /// first), published to the cached gauge and returned. Sampling is
  /// caller-driven — a periodic self-timer would keep the event queue
  /// non-empty and Simulator::run() would never terminate. Called twice at
  /// the same instant (an empty window), it returns the previous fraction
  /// and publishes nothing: there is no new interval to measure, and a
  /// fabricated 0 would corrupt the utilization series.
  double sample_utilization();

 private:
  /// A packet accepted but not yet delivered.
  struct InFlight {
    Packet packet;
    SimTime done = 0;     // serialization ends; its queue space frees
    SimTime arrival = 0;  // done + propagation: delivery at the far end
    std::uint64_t seq = 0;  // kernel sequence number reserved at enqueue
  };

  InFlight& at(std::uint64_t position) noexcept {
    return ring_[position & (ring_.size() - 1)];
  }
  const InFlight& at(std::uint64_t position) const noexcept {
    return ring_[position & (ring_.size() - 1)];
  }
  /// Drops from backlog_ every packet whose serialization end has fired.
  void release_serialized() const noexcept;
  /// Arms (or re-arms in place) the one delivery event at a reserved key.
  void arm(SimTime when, std::uint64_t seq);
  /// The delivery event's body: hands the head packet to `deliver_`.
  void deliver_head();
  /// Doubles the ring; called only when it is full.
  void grow();

  sim::Simulator& simulator_;
  LinkConfig config_;
  Deliver deliver_;
  LinkStats stats_;
  // Bytes queued or being serialized. Mutable with `released_`: backlog()
  // settles lazily released packets.
  mutable Bytes backlog_ = 0;
  SimTime busy_until_ = 0;  // when the transmitter becomes idle
  SimDuration busy_time_ = 0;  // serialization time accumulated so far
  obs::Gauge* utilization_gauge_ = nullptr;
  SimTime sample_anchor_ = 0;         // window start of the last sample
  SimDuration sample_busy_base_ = 0;  // busy_time() at the window start
  double last_utilization_ = 0.0;     // returned for empty sample windows
  /// In-flight packets, a power-of-two ring indexed by monotone positions:
  /// [head_, released_) have left the queue, [released_, tail_) still
  /// count in backlog_ until release_serialized() settles them. Slots are
  /// reused, so steady-state forwarding allocates nothing once the ring
  /// has reached the link's high-water mark.
  std::vector<InFlight> ring_;
  std::uint64_t head_ = 0;
  mutable std::uint64_t released_ = 0;
  std::uint64_t tail_ = 0;
  /// The delivery event of ring_[head_], keyed (arrival, seq); stale while
  /// the ring is empty. The destructor cancels it.
  sim::EventHandle event_;
  /// Liveness sentinel checked by the delivery event's callback.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::net

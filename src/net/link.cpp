#include "net/link.h"

#include <utility>

namespace gdmp::net {

Link::Link(sim::Simulator& simulator, LinkConfig config, Deliver deliver)
    : simulator_(simulator),
      config_(config),
      deliver_(std::move(deliver)) {}

Link::~Link() { simulator_.cancel(event_); }

bool Link::enqueue(const Packet& packet) {
  release_serialized();
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

  // The packet holds queue space until `done` and arrives one propagation
  // delay later. Both happenings share one reserved sequence number: two
  // events scheduled back to back here would take consecutive numbers with
  // no other event's between them, so one number orders both alike.
  if (tail_ - head_ == ring_.size()) grow();
  const bool idle = head_ == tail_;
  InFlight& entry = at(tail_++);
  entry.packet = packet;
  entry.done = done;
  entry.arrival = done + config_.propagation;
  entry.seq = simulator_.reserve_seq();
  if (idle) arm(entry.arrival, entry.seq);
  return true;
}

void Link::release_serialized() const noexcept {
  // Keys (done, seq) rise along the ring, so the released prefix ends at
  // the first packet whose serialization end has not yet fired.
  while (released_ != tail_) {
    const InFlight& entry = at(released_);
    if (!simulator_.fired_before(entry.done, entry.seq)) break;
    backlog_ -= entry.packet.wire_size();
    ++released_;
  }
}

void Link::arm(SimTime when, std::uint64_t seq) {
  // In place while the handle is live: from deliver_head(), or from an
  // enqueue its receiver makes onto this link. A link that drained arms a
  // fresh event.
  if (simulator_.reschedule_at(event_, when, seq)) return;
  event_ = simulator_.schedule_at(
      when, seq, [this, alive = std::weak_ptr<bool>(alive_)] {
        if (alive.expired()) return;
        deliver_head();
      });
}

void Link::deliver_head() {
  InFlight& head = at(head_);
  // With zero propagation delay the head's serialization end shares this
  // event's key and has not tested as fired; it comes due now.
  if (released_ == head_) {
    backlog_ -= head.packet.wire_size();
    ++released_;
  }
  const Packet arrived = std::move(head.packet);
  ++head_;
  if (head_ != tail_) arm(at(head_).arrival, at(head_).seq);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += arrived.wire_size();
  // Last: the receiver may enqueue onto this link or destroy it.
  deliver_(arrived);
}

void Link::grow() {
  // Only when in-flight packets set a new high-water mark for this link;
  // steady-state forwarding reuses the slots.
  std::vector<InFlight> bigger(ring_.empty() ? 16 : 2 * ring_.size());
  for (std::uint64_t p = head_; p != tail_; ++p) {
    bigger[p & (bigger.size() - 1)] = std::move(at(p));
  }
  ring_.swap(bigger);
}

SimDuration Link::queueing_delay() const noexcept {
  const SimTime now = simulator_.now();
  return busy_until_ > now ? busy_until_ - now : 0;
}

SimDuration Link::busy_time() const noexcept {
  // busy_time_ is credited at enqueue, including serialization scheduled
  // beyond now; report only the part already elapsed.
  return busy_time_ - queueing_delay();
}

void Link::set_metrics(const obs::MetricsScope& scope) {
  utilization_gauge_ = scope.gauge("utilization");
  scope.counter("bytes_sent", stats_.bytes_sent);
  scope.counter("bytes_delivered", stats_.bytes_delivered);
  scope.counter("packets_dropped", stats_.packets_dropped);
}

double Link::sample_utilization() {
  const SimTime now = simulator_.now();
  const SimDuration window = now - sample_anchor_;
  if (window <= 0) {
    // No sim time has passed since the last sample: there is nothing to
    // measure. Keep the anchors and the gauge as they are — publishing a
    // fabricated 0 (or 0/0) would put a bogus point in the series.
    return last_utilization_;
  }
  const SimDuration busy = busy_time();
  const double fraction = static_cast<double>(busy - sample_busy_base_) /
                          static_cast<double>(window);
  sample_anchor_ = now;
  sample_busy_base_ = busy;
  last_utilization_ = fraction;
  if (utilization_gauge_ != nullptr) utilization_gauge_->set(fraction);
  return fraction;
}

}  // namespace gdmp::net

// Discrete-event simulation kernel.
//
// Every dynamic behaviour in the reproduced grid — packet arrivals, tape
// mounts, GDMP server work, analysis jobs — is an event on one Simulator.
// The kernel is single-threaded and fully deterministic: events with equal
// timestamps fire in scheduling order (FIFO tie-break by sequence number),
// so a given seed always produces byte-identical traces.
//
// Fast path (see DESIGN.md §5e): callbacks are InlineFunction<void(), 64> —
// typical captures (`this`, a weak liveness guard, a few ints) live in the
// event slot, never on the heap — and the queue is an index-tracked 4-ary
// min-heap (event_heap.h) with O(log n) in-place cancellation and a fused
// cancel+schedule (`reschedule`) for re-arm patterns such as the TCP RTO
// timer. Steady-state schedule/fire/cancel/reschedule perform zero heap
// allocations (pinned by a regression test).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sim/event_heap.h"
#include "sim/inline_function.h"

namespace gdmp::sim {

/// Kernel callback type; also used by subsystems (disk completions, stager
/// queues) whose closures feed the kernel unchanged.
using Callback = InlineFunction<void(), 64>;

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Pre-sizes the event heap for `events` concurrently scheduled events;
  /// workloads that know their population call this once at setup so the
  /// schedule/fire hot path never grows the heap's vectors.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  EventHandle schedule(SimDuration delay, Callback fn) {
    return schedule_at(delay > 0 ? now_ + delay : now_, std::move(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to `now()` if in the past).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Takes the next FIFO sequence number without scheduling anything.
  ///
  /// Reserved sequence numbers let a subsystem that keeps its own monotone
  /// queue of future happenings (a link's in-flight packets: serialization
  /// ends and deliveries) stand in for one schedule_at() per happening.
  /// It reserves the seq at the moment it would have scheduled, arms one
  /// kernel event for its head under that reserved (time, seq) key, and
  /// asks fired_before() whether an unscheduled happening would already
  /// have fired. Pop order is then exactly the plain schedule_at() order,
  /// same-nanosecond ties included.
  std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  /// schedule_at() under a key whose `seq` came from reserve_seq(). The
  /// caller keeps reserved keys ahead of the last fired event's key (a
  /// reserved seq is larger than every seq fired before it was taken).
  EventHandle schedule_at(SimTime when, std::uint64_t seq, Callback fn);

  /// True if an event keyed (time, seq) would already have fired: the key
  /// is below that of the last event popped, or — after run_until() has
  /// drained every event up to its deadline — below (deadline, first seq
  /// not yet taken). A run halted by request_stop() leaves the key of the
  /// last event it fired.
  bool fired_before(SimTime time, std::uint64_t seq) const noexcept {
    return time < fired_time_ || (time == fired_time_ && seq < fired_seq_);
  }

  /// Cancels a pending event. Idempotent; cancelling a fired or invalid
  /// handle is a no-op. Cancelling the currently executing event suppresses
  /// a pending reschedule() of it.
  void cancel(EventHandle handle);

  /// Fused cancel+schedule: moves a pending event to `delay` from now,
  /// keeping its callback and handle (the event takes a fresh FIFO sequence
  /// number, as a cancel+schedule pair would). May be called from within the
  /// event's own callback to re-arm it — the callback object persists across
  /// fires. Returns false (and does nothing) if the handle is invalid,
  /// already fired, or cancelled; the caller then schedules afresh.
  bool reschedule(EventHandle handle, SimDuration delay) {
    return reschedule_at(handle, delay > 0 ? now_ + delay : now_);
  }

  /// reschedule() with an absolute target time (clamped to `now()`).
  bool reschedule_at(EventHandle handle, SimTime when);

  /// reschedule_at() under a reserved key (see reserve_seq()): the event
  /// takes `seq` instead of a fresh sequence number.
  bool reschedule_at(EventHandle handle, SimTime when, std::uint64_t seq);

  /// Runs events until only daemon events (if any) remain. Returns the
  /// number fired. Daemons interleave normally while the queue holds real
  /// work; they never keep the run alive by themselves.
  std::size_t run();

  /// Runs events with time <= `deadline` and advances the clock to
  /// `deadline` (even if the queue empties earlier). Returns events fired.
  std::size_t run_until(SimTime deadline);

  /// Runs a single event if any is pending. Returns false when idle.
  bool step();

  /// Marks (or unmarks) a pending event as a daemon: a housekeeping event
  /// — e.g. a monitoring heartbeat — that run() does not wait for. Sticky
  /// across reschedule()/re-arm. Returns false for stale handles.
  bool set_daemon(EventHandle handle, bool on = true) noexcept {
    return heap_.set_daemon(handle, on);
  }

  /// Pending (non-cancelled) event count.
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Pending events currently flagged as daemons.
  std::size_t daemon_pending() const noexcept { return heap_.daemon_count(); }

  /// Total events fired since construction.
  std::uint64_t events_fired() const noexcept { return fired_; }

  /// Stops `run()` / `run_until()` after the current event returns.
  void request_stop() noexcept { stop_requested_ = true; }

 private:
  /// Pops and executes the minimum event (advancing the clock to it).
  void fire_next();

  EventHeap<Callback> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  // Frontier for fired_before(): every key below (fired_time_, fired_seq_)
  // has fired or would have.
  SimTime fired_time_ = 0;
  std::uint64_t fired_seq_ = 0;
  std::uint64_t fired_ = 0;
  bool stop_requested_ = false;
};

/// Repeating timer built on the kernel; used for periodic monitoring,
/// retry loops and cross-traffic sources. Cancels itself on destruction.
/// Re-arms via Simulator::reschedule, so one persistent callback (and one
/// weak liveness guard) serves every tick — the steady state allocates
/// nothing.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, SimDuration period, Callback tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  /// Marks the timer's tick event as a daemon (see Simulator::set_daemon):
  /// the timer then never keeps Simulator::run() alive. Applies to the
  /// current pending tick and every future arm.
  void set_daemon(bool on = true);
  bool daemon() const noexcept { return daemon_; }

 private:
  void arm();

  Simulator& simulator_;
  SimDuration period_;
  Callback tick_;
  EventHandle pending_;
  bool running_ = false;
  bool daemon_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gdmp::sim

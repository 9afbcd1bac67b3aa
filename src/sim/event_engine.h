// Event-driven simulation engine — the analogue of PeerSim's event-driven
// mode, complementing the lockstep SyncGossip. Real deployments do not run
// in lockstep: nodes fire timers with jitter and messages arrive after
// network latency. The asynchronous gossip protocols (core/async_overlay)
// run on this engine, and tests verify they reach the *same* fixpoints as
// their synchronous counterparts.
//
// Determinism: events at equal timestamps are delivered in scheduling
// order (a monotonic sequence number breaks ties), so runs are exactly
// reproducible for a given seed.
//
// Cancellation: every schedule returns a TimerId; cancel(id) prevents a
// still-pending handler from running. Cancellation is lazy — the entry
// stays in the priority queue and is discarded when its time comes — so
// cancel is O(1) amortized and the queue never needs re-heapification.
// This is what lets fault injection (sim/fault.h) crash a node: its
// re-arming timers are cancelled instead of firing forever.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/assert.h"
#include "sim/metrics.h"

namespace bcc {

using SimTime = double;

/// Handle to one scheduled event, used to cancel it before it fires.
using TimerId = std::uint64_t;

/// TimerId never handed out by the engine (safe "no timer" sentinel).
inline constexpr TimerId kNoTimer = static_cast<TimerId>(-1);

/// Returned by EventEngine::next_event_time() on an empty queue.
inline constexpr SimTime kNoNextEvent = -1.0;

/// Priority-queue scheduler of timed callbacks.
class EventEngine {
 public:
  using Handler = std::function<void()>;

  SimTime now() const { return now_; }
  bool idle() const { return pending() == 0; }
  /// Scheduled-and-not-cancelled events still waiting to fire.
  std::size_t pending() const { return live_.size(); }
  std::size_t events_processed() const { return processed_; }
  /// Events cancelled before they fired (cumulative).
  std::size_t events_cancelled() const { return cancelled_count_; }

  /// Absolute time of the next live (non-cancelled) event, or kNoNextEvent
  /// when the queue is drained. Drops cancelled entries it skips over. The
  /// real-time pump (net/node_runtime.h) uses this to sleep exactly until
  /// the next timer instead of polling.
  SimTime next_event_time();

  /// Schedules `handler` at absolute time t (>= now). Returns a handle that
  /// can cancel the event while it is still pending.
  TimerId schedule_at(SimTime t, Handler handler);

  /// Schedules `handler` `delay` from now (delay >= 0).
  TimerId schedule_after(SimTime delay, Handler handler);

  /// Cancels a pending event. Returns true if the event was still pending
  /// (it will now never run); false if it already ran, was already
  /// cancelled, or the id is unknown.
  bool cancel(TimerId id);

  /// Processes events with time <= t_end; advances now() to t_end (or the
  /// last event time if the queue drains). Returns events processed.
  std::size_t run_until(SimTime t_end);

  /// Processes up to max_events events (all of them by default).
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));

  MessageMetrics& metrics() { return metrics_; }
  const MessageMetrics& metrics() const { return metrics_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // doubles as the TimerId
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pops the next live event and runs it; silently discards cancelled
  /// entries. Returns false if only cancelled entries remained.
  bool pop_and_run();
  /// Drops cancelled entries sitting at the top of the queue.
  void skip_cancelled();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<TimerId> live_;       // scheduled, not yet run/cancelled
  std::unordered_set<TimerId> cancelled_;  // cancelled, still in queue_
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t cancelled_count_ = 0;
  MessageMetrics metrics_;
};

}  // namespace bcc

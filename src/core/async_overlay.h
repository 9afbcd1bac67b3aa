// Asynchronous (event-driven) execution of the background mechanisms —
// Algorithms 2 and 3 without lockstep rounds. Each node gossips on its own
// jittered timer and messages arrive after per-pair latency, as in a real
// deployment. The information content is identical to the lockstep
// SyncGossip (both call the shared compute_prop_* functions and the exact
// SelfCrtMemo, so a matrix rewritten in place needs no notification), and
// the tests verify the asynchronous run reaches exactly the sync fixpoint.
//
// Resilience (the §I "Dynamic Clustering" requirement taken seriously):
// gossip runs over a FaultyChannel, so messages may be dropped, duplicated,
// delayed, or cut by partitions (sim/fault.h). Every payload delivery is
// acknowledged; a sender that misses the ack retries with capped
// exponential backoff, and after `suspect_after` consecutive fully-failed
// exchanges it marks the neighbor suspected (MessageMetrics counts
// dropped/duplicated/retried/suspected). Deliveries are idempotent
// overwrites of the receiver's tables, so duplicates and retries never
// corrupt state, and under any loss rate < 1 the overlay still reaches the
// synchronous fixpoint (chaos tests sweep this).
//
// Crash/recover: a crashed node's gossip timer is cancelled (via the
// EventEngine's cancellable timer handles), its tables and memo entry are
// wiped (cold restart), and in-flight messages to it are dropped; recovery
// re-arms the timer and the node rebuilds its state from neighbor gossip.
//
// Churn: when membership changes through FrameworkMaintainer (see
// core/churn.h), resync_membership() re-reads the anchor tree — departed
// nodes are removed and purged from all aggregate tables (an instantaneous
// obituary broadcast, the one idealization), new and rejoined nodes get
// fresh state and timers, and continued gossip re-converges on the
// survivors. Exchanges from a sender that is not (or no longer) the
// receiver's neighbor are dropped, so traffic in flight across the resync
// cannot re-create a direction the repaired tree removed.
// Transport seam (ROADMAP open item 1): the overlay no longer talks to the
// FaultyChannel directly — every exchange and ack is a serialized frame
// handed to a net::Transport. By default start() builds a SimTransport over
// the options' FaultPlan (the deterministic path above); injecting a
// TcpTransport plus `local_node` instead runs ONE node of the overlay as a
// real OS process (see net/node_runtime.h) speaking the identical protocol
// to real peers. In local mode the map holds just the local node's state;
// the compute_prop_* kernels only ever read the sender's entry, so the
// protocol math is unchanged.
#pragma once

#include <memory>
#include <optional>
#include <unordered_set>

#include "common/rng.h"
#include "core/aggregation.h"
#include "net/transport.h"
#include "sim/fault.h"

namespace bcc {

namespace net {
class SimTransport;
}  // namespace net

struct AsyncOverlayOptions {
  std::size_t n_cut = 10;
  /// Seconds between a node's gossip rounds.
  double gossip_period = 1.0;
  /// Each period is multiplied by uniform(1 - jitter, 1 + jitter).
  double period_jitter = 0.2;
  /// Message latency: constant seconds, or per-pair when `rtt_ms` is set
  /// (one-way = rtt/2, milliseconds -> seconds).
  double message_latency = 0.05;
  const DistanceMatrix* rtt_ms = nullptr;
  /// Optional fault plan (non-owning; must outlive the overlay). Null means
  /// a perfect network — the ack/retry machinery still runs but never loses
  /// anything.
  FaultPlan* faults = nullptr;
  /// Base ack timeout; the effective timeout per link is
  /// max(ack_timeout, 3 * link round-trip), so slow links are not punished.
  double ack_timeout = 0.25;
  /// Resend attempts after the first send of an exchange.
  std::size_t max_retries = 3;
  /// Timeout multiplier per retry (capped exponential backoff).
  double backoff_factor = 2.0;
  /// Consecutive fully-failed exchanges before the peer is suspected.
  std::size_t suspect_after = 2;
  /// External transport (non-owning; must outlive the overlay). Null means
  /// start() builds its own SimTransport over `faults` — the deterministic
  /// default every existing test runs on.
  net::Transport* transport = nullptr;
  /// When set, this overlay instance hosts ONLY `local_node`: it arms timers
  /// for, applies deliveries to, and tracks state of just that node, and
  /// trusts the transport to reach the others (process-per-node deployment).
  /// Unset (default) hosts every tree member in-process.
  std::optional<NodeId> local_node = std::nullopt;
};

/// See file comment. The overlay/predicted/classes objects must outlive it.
/// The anchor tree may mutate between resync_membership() calls (churn);
/// every host id must stay < predicted->size() (the matrix is the id
/// universe, the tree the current membership).
class AsyncOverlay {
 public:
  AsyncOverlay(const AnchorTree* overlay, const DistanceMatrix* predicted,
               const BandwidthClasses* classes, AsyncOverlayOptions options,
               std::uint64_t seed);
  ~AsyncOverlay();  // out-of-line: owned_transport_ is an incomplete type here

  /// Schedules every node's first gossip timer on `engine` and installs the
  /// fault plan's crash/recover schedule. The engine must outlive this
  /// object; timers re-arm until the node crashes or leaves.
  void start(EventEngine& engine);

  /// Convenience: start (if needed) and simulate `duration` seconds.
  void run_for(EventEngine& engine, double duration);

  // -- Fault handling (normally driven by the FaultPlan's crash schedule or
  //    a ChurnDriver, but callable directly by tests).

  /// Stops `x`: cancels its gossip timer, wipes its tables (cold crash).
  /// Inbound messages to a down node are dropped.
  void crash(NodeId x);
  /// Restarts `x` with empty tables; its gossip refills them.
  void recover(NodeId x);
  bool is_down(NodeId x) const { return down_.count(x) != 0; }
  std::size_t down_count() const { return down_.size(); }

  /// Re-reads membership and neighbor sets from the anchor tree after
  /// join/leave churn; see file comment.
  void resync_membership();

  /// Schedules an immediate off-period gossip round for each given host
  /// (unknown and down hosts are skipped; each round re-arms the node's
  /// regular timer, so the per-node gossip chain stays single). Callers that
  /// just repaired distances or membership — the streaming re-clustering
  /// pipeline after a FrameworkMaintainer::refresh_dirty — use this to
  /// propagate the repair now instead of waiting out the gossip period.
  /// Returns the number of rounds scheduled.
  std::size_t trigger_gossip(std::span<const NodeId> hosts);

  // -- Introspection.
  const OverlayNodeMap& nodes() const { return nodes_; }
  std::size_t gossip_rounds() const { return rounds_; }
  /// Simulation time of the last state-changing delivery (0 if none).
  SimTime last_change() const { return last_change_; }
  /// Simulation time `x` last applied a state-changing update (0 if never,
  /// reset by crash and departure) — the per-node staleness anchor the
  /// ConvergenceMonitor samples.
  SimTime last_update(NodeId x) const {
    auto it = last_update_.find(x);
    return it == last_update_.end() ? 0.0 : it->second;
  }
  /// True when `x` currently suspects `peer` (missed-ack threshold hit and
  /// no successful exchange since).
  bool suspects(NodeId x, NodeId peer) const;
  /// Total (node, suspected neighbor) pairs right now.
  std::size_t suspected_count() const;
  /// Exchanges whose ack is still outstanding.
  std::size_t inflight_exchanges() const { return pending_ack_.size(); }
  /// No crashed nodes and no suspected links: gossip is undisrupted. The
  /// serving layer uses this to flag snapshots taken mid-disruption as
  /// degraded (see serve/snapshot.h).
  bool healthy() const { return down_.empty() && suspected_count() == 0; }

 private:
  struct LinkState {
    std::size_t consecutive_failures = 0;
    bool suspected = false;
  };

  bool local_mode() const { return options_.local_node.has_value(); }
  void on_delivery(const net::Delivery& d);
  void on_exchange(const net::Delivery& d);
  void on_ack_frame(const net::Delivery& d);
  void gossip(NodeId x);
  void start_exchange(NodeId x, NodeId v, std::size_t attempt);
  void on_ack(NodeId x, NodeId v, std::uint64_t exchange);
  void on_ack_timeout(NodeId x, NodeId v, std::uint64_t exchange,
                      std::size_t attempt);
  /// True when hosted node x currently lists v as a neighbor.
  bool is_neighbor(NodeId x, NodeId v) const;
  void arm_timer(NodeId x, double delay);
  void cancel_timer(NodeId x);
  double latency(NodeId from, NodeId to) const;
  double ack_timeout_for(NodeId x, NodeId v) const;

  const AnchorTree* overlay_;
  const DistanceMatrix* predicted_;
  const BandwidthClasses* classes_;
  AsyncOverlayOptions options_;
  Rng rng_;
  OverlayNodeMap nodes_;
  bool started_ = false;
  EventEngine* engine_ = nullptr;  // set by start()
  /// Built by start() when options_.transport is null (the sim default).
  std::unique_ptr<net::SimTransport> owned_transport_;
  net::Transport* transport_ = nullptr;  // owned_transport_ or injected
  std::size_t rounds_ = 0;
  SimTime last_change_ = 0.0;
  /// Per-node time of the last applied (state-changing) delivery.
  std::unordered_map<NodeId, SimTime> last_update_;

  std::unordered_map<NodeId, TimerId> gossip_timer_;
  std::unordered_set<NodeId> down_;
  /// links_[x][v]: x's ack bookkeeping about neighbor v.
  std::unordered_map<NodeId, std::unordered_map<NodeId, LinkState>> links_;
  std::uint64_t next_exchange_ = 0;
  /// exchange id -> ack-timeout timer (cancelled when the ack arrives).
  std::unordered_map<std::uint64_t, TimerId> pending_ack_;
  SelfCrtMemo self_crt_memo_;  ///< self CRT entries of the hosted nodes
};

}  // namespace bcc

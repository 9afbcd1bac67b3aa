// ProcessNode — one overlay node as a real OS process (`bcc node`). Every
// process deterministically rebuilds the SAME world (latency dataset →
// prediction framework → anchor tree → bandwidth classes) from the shared
// (n_nodes, world_seed) pair, then hosts exactly its own node: an
// AsyncOverlay in local mode whose frames ride a TcpTransport to the peer
// processes listening on base_port + id.
//
// The event engine is pumped against the wall clock: SimTime 1.0 == one
// real second. Each loop iteration fires the timers that came due, then
// sleeps in poll(2) until the next timer or socket readiness — no busy
// waiting, no threads.
//
// Control protocol (stdin lines, answered on stdout) — this is how the
// supervisor (net/supervisor.h) drives fault scenarios and scrapes state:
//
//   ready                 <- printed once listening (supervisor waits for it)
//   bind-failed           <- printed + exit 3 when the port is taken
//   dump\n                -> state-begin <id> / crt|node lines / state-end
//   query <k> <class>\n   -> query-result <status> degraded=<0|1> hops=<h>
//                            size=<n> [ids...] — served from a snapshot of
//                            the local tables; degraded while peers are down
//   close-listener\n      -> ok close-listener   (partition: refuse inbound)
//   open-listener\n       -> ok open-listener
//   isolate\n             -> ok isolate           (full partition)
//   deisolate\n           -> ok deisolate
//   quit\n                -> ok quit, then a clean drain + exit 0
//
// SIGTERM/SIGINT behave like quit: drain, flush --metrics-out, exit 0.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/async_overlay.h"
#include "net/tcp_transport.h"
#include "obs/flight.h"
#include "tree/embedder.h"

namespace bcc::net {

/// The deterministic world every node process rebuilds from (n, seed).
struct NodeWorld {
  Framework fw;
  DistanceMatrix predicted;
  BandwidthClasses classes;
};

/// Same construction in every process — and in the supervisor, which uses
/// it to compute the synchronous ground-truth fixpoint the survivors must
/// reach. Requires n >= 2.
NodeWorld make_node_world(std::size_t n, std::uint64_t seed);

struct ProcessNodeOptions {
  NodeId id = 0;
  std::size_t n_nodes = 5;
  std::uint64_t world_seed = 1;
  std::size_t n_cut = 5;
  /// Wall seconds between gossip rounds (SimTime == real seconds here).
  double gossip_period = 0.05;
  std::uint16_t base_port = 0;  ///< node i listens on base_port + i
  std::string host = "127.0.0.1";
  /// Stop after this many wall seconds; 0 = run until quit/signal.
  double run_for = 0.0;
  /// Flushed on exit when non-empty (metrics registry JSON).
  std::string metrics_out;
  /// Final state dump written here on exit when non-empty.
  std::string state_out;
  /// When non-empty: mmap-backed crash flight recorder (obs/flight.h) at
  /// this path — every completed span and a periodic metrics snapshot are
  /// written crash-consistently, so a kill -9 still leaves evidence.
  /// Implies trace_gossip.
  std::string flight_recorder;
  /// Enable gossip-category tracing (spans feed the telemetry endpoint and
  /// the flight recorder). The tracer's id space is seeded per process
  /// ((id + 1) << 40) so span ids never collide across the fleet.
  bool trace_gossip = false;
  /// Sampling-profiler rate in Hz (0 = off). When on, the node arms the
  /// process-wide SIGPROF sampler (obs/profile.h) for its whole run and the
  /// telemetry endpoint carries its hottest folded stacks, so `bcc collect`
  /// can answer "where is the fleet burning CPU" without touching a node.
  int profile_hz = 0;
};

/// See file comment.
class ProcessNode {
 public:
  explicit ProcessNode(ProcessNodeOptions options);

  /// Binds the listener. False on port collision (caller re-rolls the base
  /// port; `bcc node` prints "bind-failed" and exits 3).
  bool bind();

  /// Runs the pump loop until quit/signal/run_for. Control lines are read
  /// from `control_fd` (non-blocking; -1 disables control). Responses and
  /// the ready line go to `out`. Returns the process exit code.
  int run(int control_fd, std::ostream& out);

  /// Writes the local node's tables in the dump wire form (sorted, exact —
  /// what the supervisor compares against the sync fixpoint).
  void dump_state(std::ostream& out) const;

  const AsyncOverlay& overlay() const { return overlay_; }
  TcpTransport& transport() { return tcp_; }

 private:
  bool handle_control_line(const std::string& line, std::ostream& out);
  /// Serves one (k, class) query from a snapshot of the local tables via
  /// the serving plane (serve/snapshot.h). Answers stay well-formed while
  /// peers are down — the result is just flagged degraded.
  void serve_query(std::size_t k, std::size_t class_idx, std::ostream& out);

  ProcessNodeOptions options_;
  NodeWorld world_;
  TcpTransport tcp_;
  AsyncOverlayOptions overlay_options_;
  AsyncOverlay overlay_;
  EventEngine engine_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  bool quit_ = false;
  std::uint64_t query_version_ = 0;
};

}  // namespace bcc::net

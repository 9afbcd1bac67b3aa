// ProcessSupervisor — spawns an N-process `bcc node` cluster over real
// sockets and delivers HONEST faults: kill -9 (no cleanup, no goodbye),
// SIGSTOP/SIGCONT stalls (the process is alive but the world moves on),
// listener-close / full-isolation partitions (driven through the node's
// stdin control protocol), and SIGTERM drains (exit 0 expected).
//
// Convergence is asserted the same way the in-sim chaos suite does it:
// the supervisor rebuilds the identical world from (n, world_seed), runs
// the synchronous DecentralizedClusterSystem to its fixpoint, renders each
// node's ground-truth tables with canonical_node_state(), and compares the
// live `dump` replies by string equality — exact fixpoint, not "close".
//
// Port allocation: the base port is derived from the supervisor pid; when
// any child reports bind-failed (exit 3) the whole cluster is torn down and
// respawned on a re-rolled base — safe under parallel CI harnesses.
//
// run_scenario() packages the canned chaos scenarios shared by the
// transport_chaos_test gtest and the `proc_supervisor` CLI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metric/distance_matrix.h"  // NodeId
#include "obs/collect.h"

namespace bcc::net {

struct SupervisorOptions {
  std::size_t n = 5;
  std::uint64_t world_seed = 1;
  std::size_t n_cut = 5;
  double gossip_period = 0.05;  ///< wall seconds between child gossip rounds
  std::string bcc_bin;          ///< path to the `bcc` binary (required)
  double converge_deadline = 45.0;  ///< seconds to reach the exact fixpoint
  bool verbose = false;             ///< narrate to stderr
  /// Directory for child --metrics-out files ("" = none written).
  std::string metrics_dir;
  /// When non-empty: children run with gossip tracing + an mmap flight
  /// recorder at <flight_dir>/node<id>.flight, and collect() augments the
  /// scraped fleet with dead nodes' on-disk rings.
  std::string flight_dir;
  /// When non-empty: scenarios that collect telemetry write the merged
  /// Perfetto timeline + fleet metrics JSON artifacts into this directory.
  std::string telemetry_out;
};

/// See file comment. Not thread-safe; one instance drives one cluster.
class ProcessSupervisor {
 public:
  explicit ProcessSupervisor(SupervisorOptions options);
  ~ProcessSupervisor();  // SIGKILLs and reaps anything still running

  ProcessSupervisor(const ProcessSupervisor&) = delete;
  ProcessSupervisor& operator=(const ProcessSupervisor&) = delete;

  /// Spawns all n children and waits for every "ready". Re-rolls the port
  /// base and restarts the cluster on bind collisions. False on failure
  /// (see last_error()).
  bool start_cluster();

  /// (Re)spawns node `id` on the current port base and waits for "ready".
  bool spawn(NodeId id);

  // -- Honest faults.
  void kill_hard(NodeId id);  ///< SIGKILL + reap: a cold, wordless death
  void sigstop(NodeId id);
  void sigcont(NodeId id);
  /// SIGTERM then wait up to `deadline` seconds; returns the exit code
  /// (-1: timeout/still running, -2: killed by a signal).
  int sigterm_wait(NodeId id, double deadline);

  /// Sends a control verb ("isolate", "close-listener", ...) and waits for
  /// its "ok <verb>" reply.
  bool send_cmd(NodeId id, const std::string& verb, double deadline);

  /// Requests and parses one state dump (state-begin..state-end inclusive).
  bool dump(NodeId id, std::string& state, double deadline);

  /// Submits `query <k> <class>` to node id and captures its one-line
  /// "query-result ..." reply. False on timeout/dead node.
  bool query(NodeId id, std::size_t k, std::size_t class_idx,
             std::string& reply, double deadline);

  bool alive(NodeId id) const;
  /// Canonical fixpoint text for node id (computed once, cached).
  const std::string& ground_truth(NodeId id);
  /// Polls dumps until every listed node matches its ground truth exactly.
  bool wait_converged(const std::vector<NodeId>& ids, double deadline);
  /// Reads node id's --metrics-out file and extracts an integer counter
  /// ("bcc.net.reconnects" etc.). -1 when file/counter is missing. Only
  /// meaningful after the node exited (metrics flush on drain).
  long long metrics_counter(NodeId id, const std::string& name) const;

  /// Scrapes every live node's telemetry endpoint (per-node timeout, so a
  /// node dying mid-scrape costs bounded time and yields a partial fleet,
  /// never a hang), then — when flight_dir is set — recovers any missing
  /// node from its on-disk flight ring. Appends to *fleet; returns how
  /// many entries were added.
  std::size_t collect(double per_node_timeout,
                      std::vector<obs::NodeTelemetry>* fleet);

  /// Writes <dir>/fleet_trace.json (merged clock-aligned Perfetto timeline)
  /// and <dir>/fleet_metrics.json (merged registry) for a collected fleet.
  static bool write_fleet_artifacts(
      const std::vector<obs::NodeTelemetry>& fleet, const std::string& dir);

  std::uint16_t base_port() const { return base_port_; }
  const std::string& last_error() const { return last_error_; }

 private:
  struct Child {
    pid_t pid = -1;
    int in = -1;   ///< write end: child's stdin
    int out = -1;  ///< read end: child's stdout
    std::string rbuf;
  };

  void close_child(Child& c);
  void kill_all();
  bool read_line(Child& c, std::string& line, double deadline);
  std::string metrics_path(NodeId id) const;
  std::string flight_path(NodeId id) const;
  bool fail(const std::string& message);

  SupervisorOptions options_;
  std::uint16_t base_port_ = 0;
  std::vector<Child> children_;
  std::vector<std::string> truth_;  ///< per-node ground-truth text (lazy)
  std::string last_error_;
};

/// Runs one canned chaos scenario; "" on success, else a failure message.
///   converge        5 nodes reach the exact sync fixpoint over TCP
///   kill-rejoin     kill -9 a 2-node minority mid-convergence; survivors
///                   answer; cold restarts rejoin; exact fixpoint again
///   partition-heal  close-listener + isolate one node; peers declare the
///                   conns half-open; heal; exact fixpoint; reconnects > 0
///   stall-resume    SIGSTOP one node past the heartbeat timeout; SIGCONT;
///                   exact fixpoint again
///   drain           SIGTERM every node; all exit 0 with metrics flushed
///   kill-collect    (needs flight_dir) kill -9 one node mid-gossip, scrape
///                   the survivors, recover the victim's spans from its
///                   flight ring, and verify the merged timeline contains a
///                   causal cross-process send->receive chain with the
///                   victim on one end; writes artifacts to telemetry_out
///   overhead        (needs metrics_dir) gossip throughput A/B: a timed
///                   window without telemetry scraping vs one scraped every
///                   0.5s; reports the relative delta on stderr (the <2%
///                   budget recorded in EXPERIMENTS.md)
std::string run_scenario(const std::string& name, SupervisorOptions options);

}  // namespace bcc::net

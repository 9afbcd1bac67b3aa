// The two background gossip mechanisms of the decentralized clustering
// system (paper §III.B.2–3), one periodic exchange per overlay link:
//
//   * Algorithm 2 (DynAggrNodeInfo): every period each node m sends to each
//     neighbor x the n_cut nodes closest to x among {m} ∪ m's aggregates
//     from its other neighbors. At the fixpoint x.aggrNode[m] is exactly the
//     n_cut nodes closest to x among all nodes reachable from x via m
//     (Theorem 3.2).
//
//   * Algorithm 3 (DynAggrMaxCluster): every period each node m refreshes
//     the maximum cluster size per distance class over its own clustering
//     space V_m (the self CRT entry) and sends each neighbor x the
//     elementwise maximum over {m} ∪ m's other directions. At the fixpoint
//     x.aggrCRT[m][l] is the largest cluster any node reachable via m can
//     locally build at class l (Theorem 3.3).
//
// The message kernels (compute_prop_*) and the self-entry memo are shared by
// two schedulers: SyncGossip below, and the event-driven AsyncOverlay
// (core/async_overlay.h). The self entry is a pure function of V_m and the
// predicted distances inside it, so both read it through a SelfCrtMemo keyed
// by exactly that input: Algorithm 1 reruns only when one of them changed,
// and no caller has to announce either.
//
// SyncGossip runs PeerSim-style lockstep cycles: all cycle-t messages are
// computed from cycle-(t−1) state, Algorithm 2 first, then the self entries,
// then Algorithm 3. A run stops once a whole cycle changes nothing;
// information needs at most (overlay diameter) cycles to cross the tree.
//
// It is change-driven. A message depends only on its sender's tables, which
// depend only on messages from farther away from the receiver, so the
// dependency graph is acyclic and the fixpoint is unique for a given tree
// and set of distances: re-gossiping from any pruned state reaches the one a
// from-scratch run reaches. A message m→x is therefore recomputed only when
// it could differ from the one x stores: x stores none yet (a fresh system,
// a new edge), m's tables changed at the last commit, or — on the first
// cycle after apply_delta — a distance it reads moved because x, m or one of
// m's candidates was repaired. Every other message is provably identical
// and reused, so a disturbance touching k of n hosts re-gossips only the
// affected subtree. MessageMetrics still counts every direction on every
// cycle (a reused message at its stored size): the traffic is what a
// lockstep cycle sends, whatever the simulator saved.
#pragma once

#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/bandwidth_classes.h"
#include "core/overlay_node.h"
#include "sim/metrics.h"
#include "tree/anchor_tree.h"

namespace bcc {

/// Creates one OverlayNode per host with neighbors from the anchor tree and
/// empty tables.
OverlayNodeMap make_overlay_nodes(const AnchorTree& overlay);

// -- Message computations shared by the synchronous (cycle) and
//    asynchronous (event-driven) engines. Each reads only the sender's
//    committed state, exactly what a real node would put on the wire.

/// Algorithm 2's propNode from m to x: the n_cut nodes closest to x among
/// {m} ∪ m's aggregates from its other neighbors (ties by id).
std::vector<NodeId> compute_prop_node(const OverlayNodeMap& nodes,
                                      const DistanceMatrix& predicted,
                                      std::size_t n_cut, NodeId m, NodeId x);

/// Algorithm 3's self entries, memoized per node and keyed by their exact
/// input: the clustering space and every predicted distance inside it (the
/// classes are fixed at construction). Each engine instance owns one.
class SelfCrtMemo {
 public:
  explicit SelfCrtMemo(const BandwidthClasses* classes);

  /// x's max cluster size per class over its clustering space `space`: the
  /// stored sizes when the key equals x's stored one, else a fresh (and
  /// stored) max_cluster_sizes_for_classes. Valid until x's next lookup.
  const std::vector<std::size_t>& lookup(NodeId x, std::vector<NodeId> space,
                                         const DistanceMatrix& predicted);

  /// Drops x's stored entry (a crashed or departed node keeps no memory).
  void forget(NodeId x) { entries_.erase(x); }

  /// Lookups that reran Algorithm 1 since construction.
  std::size_t misses() const { return misses_; }

 private:
  struct Entry {
    std::vector<NodeId> space;
    std::vector<double> distances;  // space's pairs (i < j), row by row
    std::vector<std::size_t> sizes;
  };
  std::vector<double> class_distances_;
  std::unordered_map<NodeId, Entry> entries_;
  std::size_t misses_ = 0;
};

/// Algorithm 3's propCRT from m to x: elementwise max over {m's self entry}
/// ∪ {m's directions except x}. m's self entry must be present.
std::vector<std::size_t> compute_prop_crt(const OverlayNodeMap& nodes,
                                          std::size_t class_count, NodeId m,
                                          NodeId x);

/// Algorithms 2–3 as lockstep gossip cycles over one node per overlay host.
/// Owns its inputs (overlay, predicted metric, classes), so it copies and
/// moves like a value. See file comment.
class SyncGossip {
 public:
  /// One node per host of `overlay`, with empty tables; every host must be
  /// an id of `predicted`. Each run executes at most `max_cycles` cycles;
  /// 0 = automatic (2 × overlay diameter + 4, enough for both fixpoints).
  SyncGossip(AnchorTree overlay, DistanceMatrix predicted,
             BandwidthClasses classes, std::size_t n_cut,
             std::size_t max_cycles = 0);

  /// Runs cycles until one changes nothing or the budget is spent. Returns
  /// the cycles executed.
  std::size_t run();

  /// True when the last cycle changed nothing and nothing moved since.
  bool converged() const { return node_converged_ && crt_converged_; }

  /// Installs a new predicted metric. Contract: every pair whose distance
  /// changed has at least one end in `repaired`; the next cycle recomputes
  /// the Algorithm 2 messages that read such a pair (the self-entry memo
  /// notices moved distances by itself). Calls with no cycle in between
  /// accumulate. `new_overlay`, when given, replaces the overlay (same
  /// membership, possibly different edges): a node whose neighbor set
  /// changed drops the removed directions and resends every message.
  void apply_delta(DistanceMatrix new_predicted,
                   std::span<const NodeId> repaired,
                   const AnchorTree* new_overlay = nullptr);

  const AnchorTree& overlay() const { return overlay_; }
  const DistanceMatrix& predicted() const { return predicted_; }
  const BandwidthClasses& classes() const { return classes_; }
  const OverlayNodeMap& nodes() const { return nodes_; }
  const MessageMetrics& metrics() const { return metrics_; }
  std::size_t cycles_executed() const { return cycles_; }

  /// Messages recomputed / reused since construction.
  std::size_t messages_recomputed() const { return recomputed_; }
  std::size_t messages_reused() const { return reused_; }

 private:
  /// Algorithm 2: stages every message from committed state, then commits.
  /// Returns whether any table changed.
  bool exchange_node_info();
  /// True when message m→x may differ from the one x stores.
  bool node_message_dirty(NodeId m, NodeId x) const;
  /// Algorithm 3: refreshes the self entries, stages, commits. Returns
  /// whether any entry changed.
  bool exchange_crt();

  AnchorTree overlay_;
  DistanceMatrix predicted_;
  BandwidthClasses classes_;
  std::size_t n_cut_;
  std::size_t max_cycles_;
  OverlayNodeMap nodes_;
  MessageMetrics metrics_;
  SelfCrtMemo memo_;
  bool node_converged_ = false;
  bool crt_converged_ = false;
  std::unordered_set<NodeId> dirty_;         // repaired, not yet consumed
  std::unordered_set<NodeId> node_changed_;  // aggr_node changed at the
                                             // last commit
  std::unordered_set<NodeId> crt_changed_;   // incoming aggr_crt changed at
                                             // the last commit
  std::size_t cycles_ = 0;
  std::size_t recomputed_ = 0;
  std::size_t reused_ = 0;
};

}  // namespace bcc

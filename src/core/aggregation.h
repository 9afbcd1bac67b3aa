// The two background gossip mechanisms of the decentralized clustering
// system (paper §III.B.2–3), implemented as synchronous sim Protocols:
//
//   * NodeInfoAggregation — Algorithm 2 (DynAggrNodeInfo): every cycle each
//     node m sends to each neighbor x the n_cut nodes closest to x among
//     {m} ∪ m's aggregates from its other neighbors. At the fixpoint
//     x.aggrNode[m] is exactly the n_cut nodes closest to x among all nodes
//     reachable from x via m (Theorem 3.2).
//
//   * CrtAggregation — Algorithm 3 (DynAggrMaxCluster): every cycle each
//     node m refreshes the maximum cluster size per distance class over its
//     own clustering space V_m (the self CRT entry) and sends each neighbor
//     x the elementwise maximum over {m} ∪ m's other directions. At the
//     fixpoint x.aggrCRT[m][l] is the largest cluster any node reachable via
//     m can locally build at class l (Theorem 3.3).
//
// The self entry is a pure function of V_m and the predicted distances
// inside it, so both engines read it through a SelfCrtMemo keyed by exactly
// that input: Algorithm 1 reruns only when one of them changed, and no
// caller has to announce either.
//
// Both protocols double-buffer: all cycle-t messages are computed from
// cycle-(t−1) state, matching PeerSim's synchronous cycle semantics. Each
// converges once a full cycle changes nothing; information needs at most
// (overlay diameter) cycles to cross the tree.
//
// Incremental repair (mark_dirty): when only a few predicted distances
// change — FrameworkMaintainer::refresh_dirty repaired a small host set R —
// re-running from the old fixpoint instead of from scratch converges to the
// *same* fixpoint (per-direction message dependencies follow simple tree
// paths away from the receiver, so the dependency graph is acyclic and the
// fixpoint is unique for a given tree + distances). The delta path exploits
// this by memoizing messages: a message m→x is only recomputed when its
// inputs could have changed — its sender's tables changed last cycle, or
// (on the first cycle after mark_dirty) the pair's distances could have
// moved because x, m, or one of m's candidates is in R. Everything else is
// provably identical to a recomputation and is reused, so a disturbance
// touching k of n hosts re-gossips only the affected subtree.
#pragma once

#include <span>
#include <unordered_map>
#include <unordered_set>

#include "core/bandwidth_classes.h"
#include "core/overlay_node.h"
#include "sim/engine.h"
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

/// Algorithm 2 as a synchronous protocol. See file comment.
class NodeInfoAggregation : public Protocol {
 public:
  NodeInfoAggregation(OverlayNodeMap* nodes, const DistanceMatrix* predicted,
                      std::size_t n_cut, MessageMetrics* metrics);

  void execute_cycle(std::size_t cycle) override;
  bool converged() const override { return converged_; }
  std::string name() const override { return "DynAggrNodeInfo"; }

  /// Forgets the fixpoint flag so gossip resumes with every message
  /// recomputed (dynamic clustering, full refresh).
  void reset_convergence();

  /// Resumes gossip in delta mode after an incremental repair: only
  /// messages whose inputs could have changed are recomputed (see file
  /// comment). Contract: every predicted-distance pair that changed since
  /// the last fixpoint has at least one end in `repaired`. Repeated calls
  /// before the next run accumulate.
  void mark_dirty(std::span<const NodeId> repaired);

  /// Records that `hosts` had their tables changed outside the protocol —
  /// an overlay resync pruned directions after a tree repair — so their
  /// outgoing messages are recomputed on the next cycle even in delta mode.
  void mark_changed(std::span<const NodeId> hosts);

  /// Messages recomputed / reused since construction (the delta path's
  /// work-saving evidence; full cycles only ever recompute).
  std::size_t messages_recomputed() const { return recomputed_; }
  std::size_t messages_reused() const { return reused_; }

  /// The message m propagates to its neighbor x this cycle (from committed
  /// state). Exposed for unit tests.
  std::vector<NodeId> propagate(NodeId m, NodeId x) const;

 private:
  /// True when the stored value of message m→x may differ from a fresh
  /// recomputation (delta mode only).
  bool message_dirty(NodeId m, NodeId x) const;

  OverlayNodeMap* nodes_;
  const DistanceMatrix* predicted_;
  std::size_t n_cut_;
  MessageMetrics* metrics_;
  bool converged_ = false;
  bool delta_mode_ = false;
  bool delta_first_cycle_ = false;
  std::unordered_set<NodeId> dirty_;    // repaired hosts (predicted changed)
  std::unordered_set<NodeId> changed_;  // nodes whose tables changed at the
                                        // last commit
  std::size_t recomputed_ = 0;
  std::size_t reused_ = 0;
};

/// Algorithm 3 as a synchronous protocol. See file comment.
class CrtAggregation : public Protocol {
 public:
  CrtAggregation(OverlayNodeMap* nodes, const DistanceMatrix* predicted,
                 const BandwidthClasses* classes, MessageMetrics* metrics);

  void execute_cycle(std::size_t cycle) override;
  bool converged() const override { return converged_; }
  std::string name() const override { return "DynAggrMaxCluster"; }

  /// Forgets the fixpoint flag so gossip resumes with every message
  /// recomputed (dynamic clustering, full refresh).
  void reset_convergence();

  /// Resumes gossip in delta mode after an incremental repair: messages are
  /// recomputed only when the sender's self entry or incoming tables
  /// changed (the self-entry memo notices moved distances by itself).
  void mark_dirty();

  /// See NodeInfoAggregation::mark_changed.
  void mark_changed(std::span<const NodeId> hosts);

  std::size_t messages_recomputed() const { return recomputed_; }
  std::size_t messages_reused() const { return reused_; }

  /// The CRT vector m propagates to neighbor x this cycle (self entry must
  /// be current). Exposed for unit tests.
  std::vector<std::size_t> propagate(NodeId m, NodeId x) const;

 private:
  OverlayNodeMap* nodes_;
  const DistanceMatrix* predicted_;
  const BandwidthClasses* classes_;
  MessageMetrics* metrics_;
  bool converged_ = false;
  bool delta_mode_ = false;
  /// Nodes whose aggr_crt gained changed *incoming* entries at the last
  /// commit (self changes are tracked per cycle in execute_cycle).
  std::unordered_set<NodeId> incoming_changed_;
  std::size_t recomputed_ = 0;
  std::size_t reused_ = 0;
  SelfCrtMemo memo_;
};

}  // namespace bcc

// DecentralizedClusterSystem — the public facade tying the whole paper
// together: prediction framework overlay (anchor tree) + predicted metric +
// background aggregation protocols (Algorithms 2–3) + decentralized query
// processing (Algorithm 4).
//
// Typical use:
//   auto fw = build_framework(real_distances, rng);          // §II.D
//   DecentralizedClusterSystem sys(fw.anchors,
//                                  fw.predicted_distances(),
//                                  BandwidthClasses::uniform_grid(5, 300, 5));
//   sys.run_to_convergence();
//   auto r = sys.query(QueryRequest::bandwidth(/*start=*/0, /*k=*/10, 50.0));
//   if (r.status == QueryStatus::kFound) use(r.cluster);
//
// For serving heavy query traffic concurrently (batches over an immutable
// snapshot of this system's converged state), see serve/query_service.h.
#pragma once

#include "core/aggregation.h"
#include "core/query.h"
#include "tree/embedder.h"

namespace bcc {

struct SystemOptions {
  /// Per-neighbor aggregate size limit (Algorithm 2's n_cut).
  std::size_t n_cut = 10;
  /// Gossip cycle budget for each run; 0 = automatic
  /// (2 × overlay diameter + 4, enough for both fixpoints).
  std::size_t max_cycles = 0;
  /// Options passed to Algorithm 1 during query processing.
  FindClusterOptions find_options = {};
};

/// See file comment.
class DecentralizedClusterSystem {
 public:
  DecentralizedClusterSystem(AnchorTree overlay, DistanceMatrix predicted,
                             BandwidthClasses classes,
                             SystemOptions options = {});

  /// Runs the background gossip until Algorithms 2 and 3 reach their
  /// fixpoint (or the cycle budget runs out). Returns cycles executed.
  std::size_t run_to_convergence();

  bool converged() const;

  /// Serves one structured query (Algorithm 4). Never throws on bad input —
  /// invalid k / unsatisfiable bandwidth / unknown start come back as the
  /// corresponding QueryStatus. This is the primary query API; for batched,
  /// thread-pooled serving over many queries see serve/query_service.h.
  QueryResult query(const QueryRequest& request) const;

  /// Dynamic clustering (§III.B.2): the prediction framework restructured —
  /// feed the new predicted metric and re-run gossip. The same as
  /// apply_delta with every host repaired, then run_to_convergence.
  /// Returns cycles.
  std::size_t refresh(DistanceMatrix new_predicted);

  /// Incremental restructuring: installs the new predicted metric and marks
  /// the hosts in `repaired` dirty, *without* running gossip — queries
  /// served in between are flagged degraded, which is the repair-window
  /// behavior the streaming pipeline wants. Contract: every pair whose
  /// predicted distance changed has at least one end in `repaired`
  /// (FrameworkMaintainer::refresh_dirty guarantees this). The next run
  /// recomputes only the messages that read a moved distance or a changed
  /// table, however many hosts were repaired.
  ///
  /// `new_overlay`, when given, is the anchor tree after the repair (same
  /// membership, possibly different edges — leave+rejoin moves anchors):
  /// neighbor sets are resynced, dropped directions pruned from tables, and
  /// every topology-touched node resends all its messages so the resulting
  /// cascade flushes stale entries — the iteration still lands on the
  /// unique fixpoint of the *new* tree.
  void apply_delta(DistanceMatrix new_predicted,
                   std::span<const NodeId> repaired,
                   const AnchorTree* new_overlay = nullptr);

  /// apply_delta + run_to_convergence: the one-call repair that reaches the
  /// identical fixpoint a from-scratch recompute would (asserted by
  /// canonical_dump equality in tests). Returns cycles executed.
  std::size_t refresh_delta(DistanceMatrix new_predicted,
                            std::span<const NodeId> repaired,
                            const AnchorTree* new_overlay = nullptr);

  /// Canonical text dump of every node's tables in ascending id order (the
  /// PR 7 wire form) — string-equal iff two systems share the exact same
  /// fixpoint state.
  std::string canonical_dump() const;

  /// Gossip work accounting (recomputed vs provably reused messages).
  std::size_t messages_recomputed() const;
  std::size_t messages_reused() const;

  // Introspection (tests, experiments, serving-layer snapshots).
  std::size_t size() const { return nodes().size(); }
  const OverlayNode& node(NodeId id) const;
  const OverlayNodeMap& nodes() const { return gossip_.nodes(); }
  const AnchorTree& overlay() const { return gossip_.overlay(); }
  const DistanceMatrix& predicted() const { return gossip_.predicted(); }
  const BandwidthClasses& classes() const { return gossip_.classes(); }
  const SystemOptions& options() const { return options_; }
  const MessageMetrics& metrics() const { return gossip_.metrics(); }
  std::size_t cycles_executed() const { return gossip_.cycles_executed(); }

 private:
  SystemOptions options_;
  SyncGossip gossip_;
};

}  // namespace bcc

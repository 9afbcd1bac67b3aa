// Per-node protocol state for the decentralized clustering system
// (paper §III.B): the aggregated close-node sets (Algorithm 2) and the
// cluster routing table (Algorithm 3).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "metric/distance_matrix.h"

namespace bcc {

struct OverlayNode;

/// The whole population's per-node protocol state, keyed by host id.
using OverlayNodeMap = std::unordered_map<NodeId, OverlayNode>;

/// State one host maintains. Keys of aggr_node / aggr_crt are neighbor ids;
/// aggr_crt additionally holds a self entry (key == id) with the node's own
/// local maximum cluster sizes.
struct OverlayNode {
  NodeId id = 0;
  std::vector<NodeId> neighbors;  // anchor-tree parent + children

  /// aggrNode[m]: the n_cut nodes closest to this node among all nodes
  /// reachable via neighbor m (Theorem 3.2's invariant at convergence).
  std::unordered_map<NodeId, std::vector<NodeId>> aggr_node;

  /// aggrCRT[v][class]: maximum cluster size per distance class, for each
  /// neighbor direction v, plus the self entry aggrCRT[id][class].
  std::unordered_map<NodeId, std::vector<std::size_t>> aggr_crt;

  /// The node's clustering space V_x = {x} ∪ ∪_m aggrNode[m], deduplicated,
  /// sorted by id (deterministic).
  std::vector<NodeId> clustering_space() const;

  /// Installs `next` as the neighbor list after a tree repair and drops the
  /// aggr_node / aggr_crt entries of every direction not in it (the self
  /// CRT entry stays). Entries for new neighbors appear with their first
  /// message. Returns true when the neighbor set changed.
  bool resync_neighbors(std::vector<NodeId> next);
};

/// Canonical text form of one node's tables: sorted direction keys, sorted
/// aggregate ids — string-equal iff the tables hold the same fixpoint state.
/// This is the wire form the multi-process supervisor compares against sync
/// ground truth and the form DecentralizedClusterSystem::canonical_dump
/// concatenates; incremental-repair tests assert dump equality against a
/// from-scratch system.
std::string canonical_node_state(NodeId id, const OverlayNode& node);

/// canonical_node_state of every node, in ascending id order.
std::string canonical_dump(const OverlayNodeMap& nodes);

}  // namespace bcc

#include "core/system.h"

#include <algorithm>

#include "obs/metrics.h"

namespace bcc {

namespace {

obs::Counter& g_refresh_full() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.refresh_full");
  return c;
}
obs::Counter& g_refresh_delta() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.refresh_delta");
  return c;
}

}  // namespace

DecentralizedClusterSystem::DecentralizedClusterSystem(AnchorTree overlay,
                                                       DistanceMatrix predicted,
                                                       BandwidthClasses classes,
                                                       SystemOptions options)
    : overlay_(std::move(overlay)), predicted_(std::move(predicted)),
      classes_(std::move(classes)), options_(options) {
  // The matrix is the id universe; the tree may cover a subset of its ids
  // (e.g. the survivors of a churned membership, keyed by global host id).
  BCC_REQUIRE(overlay_.size() >= 1);
  BCC_REQUIRE(overlay_.size() <= predicted_.size());
  for (NodeId h : overlay_.bfs_order()) {
    BCC_REQUIRE(h < predicted_.size());
  }
  nodes_ = make_overlay_nodes(overlay_);
  node_info_ = std::make_shared<NodeInfoAggregation>(
      &nodes_, &predicted_, options_.n_cut, &engine_.metrics());
  crt_ = std::make_shared<CrtAggregation>(&nodes_, &predicted_, &classes_,
                                          &engine_.metrics());
  engine_.add_protocol(node_info_);
  engine_.add_protocol(crt_);
}

std::size_t DecentralizedClusterSystem::cycle_budget() const {
  if (options_.max_cycles > 0) return options_.max_cycles;
  // Information crosses the overlay in diameter hops; one extra cycle
  // rebuilds CRTs from final spaces, one more detects the fixpoint.
  // Node-info and CRT converge sequentially in the worst case.
  return 2 * overlay_.diameter() + 4;
}

std::size_t DecentralizedClusterSystem::run_to_convergence() {
  return engine_.run(cycle_budget());
}

bool DecentralizedClusterSystem::converged() const {
  return node_info_->converged() && crt_->converged();
}

QueryResult DecentralizedClusterSystem::query(
    const QueryRequest& request) const {
  QueryProcessor processor(nodes_, predicted_, classes_,
                           options_.find_options);
  QueryResult result = processor.run(request);
  // Serving before the gossip fixpoint is best-effort, never "exact".
  result.degraded = !converged();
  return result;
}

std::size_t DecentralizedClusterSystem::refresh(DistanceMatrix new_predicted) {
  BCC_REQUIRE(new_predicted.size() == predicted_.size());
  predicted_ = std::move(new_predicted);
  node_info_->reset_convergence();
  crt_->reset_convergence();
  g_refresh_full().add(1);
  return engine_.run(cycle_budget());
}

std::vector<NodeId> DecentralizedClusterSystem::resync_overlay(
    const AnchorTree& overlay) {
  BCC_REQUIRE(overlay.size() == overlay_.size());
  std::vector<NodeId> touched;
  for (NodeId x : overlay.bfs_order()) {
    auto it = nodes_.find(x);
    BCC_REQUIRE(it != nodes_.end());  // same membership, different edges
    OverlayNode& node = it->second;
    std::vector<NodeId> next = overlay.neighbors_of(x);
    std::sort(next.begin(), next.end());
    std::vector<NodeId> prev = node.neighbors;
    std::sort(prev.begin(), prev.end());
    if (prev == next) continue;
    touched.push_back(x);
    // Prune dropped directions; entries for new neighbors appear when their
    // first message commits (the missing-entry check forces recomputation).
    for (NodeId old_neighbor : prev) {
      if (!std::binary_search(next.begin(), next.end(), old_neighbor)) {
        node.aggr_node.erase(old_neighbor);
        node.aggr_crt.erase(old_neighbor);
      }
    }
    node.neighbors = overlay.neighbors_of(x);
  }
  overlay_ = overlay;
  return touched;
}

bool DecentralizedClusterSystem::apply_delta(DistanceMatrix new_predicted,
                                             std::span<const NodeId> repaired,
                                             const AnchorTree* new_overlay) {
  BCC_REQUIRE(new_predicted.size() == predicted_.size());
  predicted_ = std::move(new_predicted);
  const double fraction = nodes_.empty()
                              ? 1.0
                              : static_cast<double>(repaired.size()) /
                                    static_cast<double>(nodes_.size());
  if (fraction > options_.full_refresh_threshold) {
    if (new_overlay != nullptr) {
      BCC_REQUIRE(new_overlay->size() == overlay_.size());
      overlay_ = *new_overlay;
      nodes_ = make_overlay_nodes(overlay_);  // protocols point at nodes_
    }
    node_info_->reset_convergence();
    crt_->reset_convergence();
    g_refresh_full().add(1);
    return false;
  }
  if (new_overlay != nullptr) {
    std::vector<NodeId> touched = resync_overlay(*new_overlay);
    node_info_->mark_changed(touched);
    crt_->mark_changed(touched);
  }
  node_info_->mark_dirty(repaired);
  crt_->mark_dirty();
  g_refresh_delta().add(1);
  return true;
}

std::size_t DecentralizedClusterSystem::refresh_delta(
    DistanceMatrix new_predicted, std::span<const NodeId> repaired,
    const AnchorTree* new_overlay) {
  apply_delta(std::move(new_predicted), repaired, new_overlay);
  return engine_.run(cycle_budget());
}

std::string DecentralizedClusterSystem::canonical_dump() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::string dump;
  for (NodeId id : ids) {
    dump += canonical_node_state(id, nodes_.at(id));
  }
  return dump;
}

std::size_t DecentralizedClusterSystem::messages_recomputed() const {
  return node_info_->messages_recomputed() + crt_->messages_recomputed();
}

std::size_t DecentralizedClusterSystem::messages_reused() const {
  return node_info_->messages_reused() + crt_->messages_reused();
}

const OverlayNode& DecentralizedClusterSystem::node(NodeId id) const {
  auto it = nodes_.find(id);
  BCC_REQUIRE(it != nodes_.end());
  return it->second;
}

}  // namespace bcc

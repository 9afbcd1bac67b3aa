#include "core/system.h"

#include "obs/metrics.h"

namespace bcc {

DecentralizedClusterSystem::DecentralizedClusterSystem(AnchorTree overlay,
                                                       DistanceMatrix predicted,
                                                       BandwidthClasses classes,
                                                       SystemOptions options)
    : options_(options),
      gossip_(std::move(overlay), std::move(predicted), std::move(classes),
              options_.n_cut, options_.max_cycles) {
  BCC_REQUIRE(size() >= 1);
}

std::size_t DecentralizedClusterSystem::run_to_convergence() {
  return gossip_.run();
}

bool DecentralizedClusterSystem::converged() const {
  return gossip_.converged();
}

QueryResult DecentralizedClusterSystem::query(
    const QueryRequest& request) const {
  QueryProcessor processor(nodes(), predicted(), classes(),
                           options_.find_options);
  QueryResult result = processor.run(request);
  // Serving before the gossip fixpoint is best-effort, never "exact".
  result.degraded = !converged();
  return result;
}

std::size_t DecentralizedClusterSystem::refresh(DistanceMatrix new_predicted) {
  const std::vector<NodeId> every_host = overlay().bfs_order();
  apply_delta(std::move(new_predicted), every_host);
  return run_to_convergence();
}

void DecentralizedClusterSystem::apply_delta(DistanceMatrix new_predicted,
                                             std::span<const NodeId> repaired,
                                             const AnchorTree* new_overlay) {
  static obs::Counter& applied =
      obs::Registry::global().counter("bcc.core.refresh_delta");
  gossip_.apply_delta(std::move(new_predicted), repaired, new_overlay);
  applied.add(1);
}

std::size_t DecentralizedClusterSystem::refresh_delta(
    DistanceMatrix new_predicted, std::span<const NodeId> repaired,
    const AnchorTree* new_overlay) {
  apply_delta(std::move(new_predicted), repaired, new_overlay);
  return run_to_convergence();
}

std::string DecentralizedClusterSystem::canonical_dump() const {
  return bcc::canonical_dump(nodes());
}

std::size_t DecentralizedClusterSystem::messages_recomputed() const {
  return gossip_.messages_recomputed();
}

std::size_t DecentralizedClusterSystem::messages_reused() const {
  return gossip_.messages_reused();
}

const OverlayNode& DecentralizedClusterSystem::node(NodeId id) const {
  auto it = nodes().find(id);
  BCC_REQUIRE(it != nodes().end());
  return it->second;
}

}  // namespace bcc

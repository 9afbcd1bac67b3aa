#include "core/overlay_node.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace bcc {

std::vector<NodeId> OverlayNode::clustering_space() const {
  std::vector<NodeId> space = {id};
  for (const auto& [m, nodes] : aggr_node) {
    space.insert(space.end(), nodes.begin(), nodes.end());
  }
  std::sort(space.begin(), space.end());
  space.erase(std::unique(space.begin(), space.end()), space.end());
  return space;
}

bool OverlayNode::resync_neighbors(std::vector<NodeId> next) {
  std::vector<NodeId> prev = neighbors;
  neighbors = std::move(next);
  std::vector<NodeId> sorted = neighbors;
  std::sort(prev.begin(), prev.end());
  std::sort(sorted.begin(), sorted.end());
  auto dropped = [&](NodeId v) {
    return !std::binary_search(sorted.begin(), sorted.end(), v);
  };
  std::erase_if(aggr_node, [&](const auto& e) { return dropped(e.first); });
  std::erase_if(aggr_crt, [&](const auto& e) {
    return e.first != id && dropped(e.first);  // the self entry stays
  });
  return prev != sorted;
}

std::string canonical_node_state(NodeId id, const OverlayNode& node) {
  std::ostringstream out;
  out << "state-begin " << id << "\n";
  std::map<NodeId, std::vector<std::size_t>> crt(node.aggr_crt.begin(),
                                                 node.aggr_crt.end());
  for (const auto& [m, sizes] : crt) {
    out << "crt " << m << " :";
    for (std::size_t s : sizes) out << ' ' << s;
    out << "\n";
  }
  std::map<NodeId, std::vector<NodeId>> aggr(node.aggr_node.begin(),
                                             node.aggr_node.end());
  for (const auto& [m, ids] : aggr) {
    std::vector<NodeId> sorted_ids = ids;
    std::sort(sorted_ids.begin(), sorted_ids.end());
    out << "node " << m << " :";
    for (NodeId nid : sorted_ids) out << ' ' << nid;
    out << "\n";
  }
  out << "state-end\n";
  return out.str();
}

std::string canonical_dump(const OverlayNodeMap& nodes) {
  std::vector<NodeId> ids;
  ids.reserve(nodes.size());
  for (const auto& [id, node] : nodes) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::string dump;
  for (NodeId id : ids) dump += canonical_node_state(id, nodes.at(id));
  return dump;
}

}  // namespace bcc

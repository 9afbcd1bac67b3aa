#include "core/aggregation.h"

#include <algorithm>

#include "core/find_cluster.h"
#include "obs/metrics.h"

namespace bcc {

namespace {

// Delta-path evidence counters: how many per-direction messages each cycle
// recomputed versus proved unchanged and reused (see file comment in the
// header). Registered once; instance-level totals are on the protocols.
obs::Counter& g_prop_node_recomputed() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.prop_node_recomputed");
  return c;
}
obs::Counter& g_prop_node_reused() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.prop_node_reused");
  return c;
}
obs::Counter& g_prop_crt_recomputed() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.prop_crt_recomputed");
  return c;
}
obs::Counter& g_prop_crt_reused() {
  static obs::Counter& c =
      obs::Registry::global().counter("bcc.core.prop_crt_reused");
  return c;
}

}  // namespace

OverlayNodeMap make_overlay_nodes(const AnchorTree& overlay) {
  OverlayNodeMap nodes;
  for (NodeId host : overlay.bfs_order()) {
    OverlayNode n;
    n.id = host;
    n.neighbors = overlay.neighbors_of(host);
    nodes.emplace(host, std::move(n));
  }
  return nodes;
}

std::vector<NodeId> compute_prop_node(const OverlayNodeMap& nodes,
                                      const DistanceMatrix& predicted,
                                      std::size_t n_cut, NodeId m, NodeId x) {
  const OverlayNode& sender = nodes.at(m);
  // candNode = {m} ∪ aggrNode[v] for every neighbor v of m except x.
  std::vector<NodeId> cand = {m};
  for (NodeId v : sender.neighbors) {
    if (v == x) continue;
    auto it = sender.aggr_node.find(v);
    if (it == sender.aggr_node.end()) continue;
    cand.insert(cand.end(), it->second.begin(), it->second.end());
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  std::erase(cand, x);  // x never needs itself in its own aggregates

  // propNode = the n_cut candidates closest to x on the prediction tree.
  std::stable_sort(cand.begin(), cand.end(), [&](NodeId a, NodeId b) {
    const double da = predicted.at(x, a), db = predicted.at(x, b);
    if (da != db) return da < db;
    return a < b;  // deterministic tie-break
  });
  if (cand.size() > n_cut) cand.resize(n_cut);
  return cand;
}

SelfCrtMemo::SelfCrtMemo(const BandwidthClasses* classes) {
  BCC_REQUIRE(classes != nullptr);
  for (std::size_t i = 0; i < classes->size(); ++i) {
    class_distances_.push_back(classes->distance_at(i));
  }
}

const std::vector<std::size_t>& SelfCrtMemo::lookup(
    NodeId x, std::vector<NodeId> space, const DistanceMatrix& predicted) {
  auto [it, inserted] = entries_.try_emplace(x);
  Entry& entry = it->second;
  bool hit = !inserted && entry.space == space;
  const std::vector<NodeId>& s = entry.space;
  if (!hit) {
    entry.space = std::move(space);
    // assign, not resize: a grown space gets an exact-size buffer.
    entry.distances.assign(s.size() * (s.size() - 1) / 2, 0.0);
  }
  // Compares the stored copy pair by pair, refreshing it in place: no
  // allocation on the hit path, which is every steady-state round.
  std::size_t k = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j, ++k) {
      const double d = predicted.at(s[i], s[j]);
      if (entry.distances[k] != d) {
        entry.distances[k] = d;
        hit = false;
      }
    }
  }
  if (!hit) {
    ++misses_;
    entry.sizes = max_cluster_sizes_for_classes(predicted, s, class_distances_);
  }
  return entry.sizes;
}

std::vector<std::size_t> compute_prop_crt(const OverlayNodeMap& nodes,
                                          std::size_t class_count, NodeId m,
                                          NodeId x) {
  const OverlayNode& sender = nodes.at(m);
  std::vector<std::size_t> prop = sender.aggr_crt.at(m);
  BCC_ASSERT(prop.size() == class_count);
  for (NodeId v : sender.neighbors) {
    if (v == x) continue;
    auto it = sender.aggr_crt.find(v);
    if (it == sender.aggr_crt.end()) continue;
    BCC_ASSERT(it->second.size() == prop.size());
    for (std::size_t i = 0; i < prop.size(); ++i) {
      prop[i] = std::max(prop[i], it->second[i]);
    }
  }
  return prop;
}

// ---------------------------------------------------------------- Algorithm 2

NodeInfoAggregation::NodeInfoAggregation(OverlayNodeMap* nodes,
                                         const DistanceMatrix* predicted,
                                         std::size_t n_cut,
                                         MessageMetrics* metrics)
    : nodes_(nodes), predicted_(predicted), n_cut_(n_cut), metrics_(metrics) {
  BCC_REQUIRE(nodes_ != nullptr && predicted_ != nullptr);
  BCC_REQUIRE(n_cut_ >= 1);
}

std::vector<NodeId> NodeInfoAggregation::propagate(NodeId m, NodeId x) const {
  return compute_prop_node(*nodes_, *predicted_, n_cut_, m, x);
}

void NodeInfoAggregation::reset_convergence() {
  converged_ = false;
  delta_mode_ = false;
  delta_first_cycle_ = false;
  dirty_.clear();
}

void NodeInfoAggregation::mark_dirty(std::span<const NodeId> repaired) {
  converged_ = false;
  delta_mode_ = true;
  delta_first_cycle_ = true;
  dirty_.insert(repaired.begin(), repaired.end());
  // changed_ is kept: if the previous run stopped mid-iteration, those
  // pending table changes still force recomputation of dependent messages.
}

void NodeInfoAggregation::mark_changed(std::span<const NodeId> hosts) {
  converged_ = false;
  changed_.insert(hosts.begin(), hosts.end());
}

bool NodeInfoAggregation::message_dirty(NodeId m, NodeId x) const {
  // The sender's committed tables changed at the last commit: anything it
  // sends may differ.
  if (changed_.count(m)) return true;
  if (!delta_first_cycle_) return false;
  // First cycle after mark_dirty: predicted distances moved on pairs
  // touching the repaired set. The message sorts candidates by distance to
  // x, so it can only change if x itself, the sender, or one of the
  // sender's current candidates was repaired.
  if (dirty_.count(x) || dirty_.count(m)) return true;
  const OverlayNode& sender = nodes_->at(m);
  for (NodeId v : sender.neighbors) {
    if (v == x) continue;
    auto it = sender.aggr_node.find(v);
    if (it == sender.aggr_node.end()) continue;
    for (NodeId c : it->second) {
      if (dirty_.count(c)) return true;
    }
  }
  return false;
}

void NodeInfoAggregation::execute_cycle(std::size_t /*cycle*/) {
  // Compute all messages from committed state, then commit (synchronous).
  // In delta mode, messages whose inputs provably did not change are not
  // recomputed — their stored value at the receiver already equals what a
  // recomputation would produce, so skipping them leaves the iteration (and
  // therefore the fixpoint) bit-identical while only the repaired subtree
  // pays.
  std::vector<std::pair<NodeId, std::unordered_map<NodeId, std::vector<NodeId>>>>
      staged;
  staged.reserve(nodes_->size());
  for (auto& [x, node] : *nodes_) {
    std::unordered_map<NodeId, std::vector<NodeId>> incoming;
    for (NodeId m : node.neighbors) {
      if (delta_mode_ && node.aggr_node.count(m) && !message_dirty(m, x)) {
        ++reused_;
        g_prop_node_reused().add(1);
        continue;
      }
      auto prop = propagate(m, x);
      ++recomputed_;
      g_prop_node_recomputed().add(1);
      if (metrics_) {
        metrics_->record("aggr_node", prop.size() * sizeof(NodeId));
      }
      incoming.emplace(m, std::move(prop));
    }
    staged.emplace_back(x, std::move(incoming));
  }
  bool changed = false;
  changed_.clear();
  for (auto& [x, incoming] : staged) {
    OverlayNode& node = nodes_->at(x);
    for (auto& [m, prop] : incoming) {
      auto it = node.aggr_node.find(m);
      if (it == node.aggr_node.end()) {
        node.aggr_node.emplace(m, std::move(prop));
        changed = true;
        changed_.insert(x);
      } else if (it->second != prop) {
        it->second = std::move(prop);
        changed = true;
        changed_.insert(x);
      }
    }
  }
  delta_first_cycle_ = false;
  converged_ = !changed;
}

// ---------------------------------------------------------------- Algorithm 3

CrtAggregation::CrtAggregation(OverlayNodeMap* nodes,
                               const DistanceMatrix* predicted,
                               const BandwidthClasses* classes,
                               MessageMetrics* metrics)
    : nodes_(nodes), predicted_(predicted), classes_(classes),
      metrics_(metrics), memo_(classes) {
  BCC_REQUIRE(nodes_ != nullptr && predicted_ != nullptr);
  BCC_REQUIRE(classes_->size() >= 1);
}

void CrtAggregation::reset_convergence() {
  converged_ = false;
  delta_mode_ = false;
}

void CrtAggregation::mark_dirty() {
  converged_ = false;
  delta_mode_ = true;
}

void CrtAggregation::mark_changed(std::span<const NodeId> hosts) {
  converged_ = false;
  incoming_changed_.insert(hosts.begin(), hosts.end());
}

std::vector<std::size_t> CrtAggregation::propagate(NodeId m, NodeId x) const {
  return compute_prop_crt(*nodes_, classes_->size(), m, x);
}

void CrtAggregation::execute_cycle(std::size_t /*cycle*/) {
  // Self entries reflect the *current* clustering spaces (Algorithm 3 line 8
  // runs before propagation each period).
  std::unordered_set<NodeId> self_changed;
  for (auto& [x, node] : *nodes_) {
    const auto& sizes = memo_.lookup(x, node.clustering_space(), *predicted_);
    auto [it, inserted] = node.aggr_crt.try_emplace(x, sizes);
    if (inserted || it->second != sizes) {
      it->second = sizes;
      self_changed.insert(x);
    }
  }
  bool changed = !self_changed.empty();

  // A propCRT from m only depends on m's own aggr_crt entries, so in delta
  // mode it is recomputed only when m's self entry changed this cycle or
  // m's incoming entries changed at the last commit.
  std::vector<
      std::pair<NodeId, std::unordered_map<NodeId, std::vector<std::size_t>>>>
      staged;
  staged.reserve(nodes_->size());
  for (auto& [x, node] : *nodes_) {
    std::unordered_map<NodeId, std::vector<std::size_t>> incoming;
    for (NodeId m : node.neighbors) {
      if (delta_mode_ && node.aggr_crt.count(m) && !self_changed.count(m) &&
          !incoming_changed_.count(m)) {
        ++reused_;
        g_prop_crt_reused().add(1);
        continue;
      }
      auto prop = propagate(m, x);
      ++recomputed_;
      g_prop_crt_recomputed().add(1);
      if (metrics_) {
        metrics_->record("aggr_crt", prop.size() * sizeof(std::size_t));
      }
      incoming.emplace(m, std::move(prop));
    }
    staged.emplace_back(x, std::move(incoming));
  }
  incoming_changed_.clear();
  for (auto& [x, incoming] : staged) {
    OverlayNode& node = nodes_->at(x);
    for (auto& [m, crt] : incoming) {
      auto it = node.aggr_crt.find(m);
      if (it == node.aggr_crt.end() || it->second != crt) {
        node.aggr_crt[m] = std::move(crt);
        changed = true;
        incoming_changed_.insert(x);
      }
    }
  }
  converged_ = !changed;
}

}  // namespace bcc

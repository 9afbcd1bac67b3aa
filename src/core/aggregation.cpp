#include "core/aggregation.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "core/find_cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcc {

namespace {

// Change-driven evidence counters: how many per-direction messages each cycle
// recomputed versus proved unchanged and reused (see file comment in the
// header). Instance-level totals are on SyncGossip.
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

SyncGossip::SyncGossip(AnchorTree overlay, DistanceMatrix predicted,
                       BandwidthClasses classes, std::size_t n_cut,
                       std::size_t max_cycles)
    : overlay_(std::move(overlay)), predicted_(std::move(predicted)),
      classes_(std::move(classes)), n_cut_(n_cut), max_cycles_(max_cycles),
      nodes_(make_overlay_nodes(overlay_)), memo_(&classes_) {
  BCC_REQUIRE(n_cut_ >= 1);
  BCC_REQUIRE(classes_.size() >= 1);
  // The matrix is the id universe; the tree may cover a subset of its ids
  // (e.g. the survivors of a churned membership, keyed by global host id).
  for (const auto& [h, node] : nodes_) BCC_REQUIRE(h < predicted_.size());
  // Registered up front so the exported names do not depend on the run.
  g_prop_node_recomputed();
  g_prop_node_reused();
  g_prop_crt_recomputed();
  g_prop_crt_reused();
}

std::size_t SyncGossip::run() {
  // Cached instrument handles: one registry lookup per process, not per run.
  static obs::Counter& cycles_counter =
      obs::Registry::global().counter("bcc.sim.cycles");
  static obs::Histogram& cycle_micros =
      obs::Registry::global().histogram("bcc.sim.cycle_micros");
  static obs::Gauge& converged_fraction =
      obs::Registry::global().gauge("bcc.sim.converged_fraction");
  // The fraction of the two algorithms at their fixpoint.
  auto publish_fraction = [this] {
    converged_fraction.set(
        (static_cast<double>(node_converged_) + crt_converged_) / 2.0);
  };

  // Information crosses the overlay in diameter hops; one extra cycle
  // rebuilds CRTs from final spaces, one more detects the fixpoint. The two
  // algorithms converge one after the other in the worst case.
  const std::size_t budget =
      max_cycles_ > 0 ? max_cycles_ : 2 * overlay_.diameter() + 4;
  std::size_t executed = 0;
  while (executed < budget) {
    publish_fraction();
    if (converged()) break;
    {
      obs::Span span(obs::SpanCategory::kSim, "cycle");
      const auto t0 = std::chrono::steady_clock::now();
      node_converged_ = !exchange_node_info();
      crt_converged_ = !exchange_crt();
      cycle_micros.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    cycles_counter.add(1);
    ++cycles_;
    ++executed;
  }
  publish_fraction();
  return executed;
}

void SyncGossip::apply_delta(DistanceMatrix new_predicted,
                             std::span<const NodeId> repaired,
                             const AnchorTree* new_overlay) {
  BCC_REQUIRE(new_predicted.size() == predicted_.size());
  predicted_ = std::move(new_predicted);
  if (new_overlay != nullptr) {
    BCC_REQUIRE(new_overlay->size() == nodes_.size());
    overlay_ = *new_overlay;
    for (NodeId x : overlay_.bfs_order()) {
      auto it = nodes_.find(x);
      BCC_REQUIRE(it != nodes_.end());  // same membership, different edges
      if (it->second.resync_neighbors(overlay_.neighbors_of(x))) {
        node_changed_.insert(x);
        crt_changed_.insert(x);
      }
    }
  }
  dirty_.insert(repaired.begin(), repaired.end());
  node_converged_ = crt_converged_ = false;
}

bool SyncGossip::node_message_dirty(NodeId m, NodeId x) const {
  // The sender's committed tables changed at the last commit: anything it
  // sends may differ.
  if (node_changed_.count(m)) return true;
  if (dirty_.empty()) return false;
  // First cycle after apply_delta: predicted distances moved on pairs
  // touching the repaired set. The message sorts candidates by distance to
  // x, so it can only change if x itself, the sender, or one of the
  // sender's current candidates was repaired.
  if (dirty_.count(x) || dirty_.count(m)) return true;
  const OverlayNode& sender = nodes_.at(m);
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

bool SyncGossip::exchange_node_info() {
  // Stage every message from committed state, then commit (lockstep).
  std::vector<std::tuple<NodeId, NodeId, std::vector<NodeId>>> staged;
  for (const auto& [x, node] : nodes_) {
    for (NodeId m : node.neighbors) {
      auto stored = node.aggr_node.find(m);
      if (stored != node.aggr_node.end() && !node_message_dirty(m, x)) {
        ++reused_;
        g_prop_node_reused().add(1);
        metrics_.record("aggr_node", stored->second.size() * sizeof(NodeId));
        continue;
      }
      auto prop = compute_prop_node(nodes_, predicted_, n_cut_, m, x);
      ++recomputed_;
      g_prop_node_recomputed().add(1);
      metrics_.record("aggr_node", prop.size() * sizeof(NodeId));
      staged.emplace_back(x, m, std::move(prop));
    }
  }
  dirty_.clear();  // consumed: later cycles see the repaired distances
  node_changed_.clear();
  for (auto& [x, m, prop] : staged) {
    auto [it, inserted] = nodes_.at(x).aggr_node.try_emplace(m);
    if (!inserted && it->second == prop) continue;
    it->second = std::move(prop);
    node_changed_.insert(x);
  }
  return !node_changed_.empty();
}

bool SyncGossip::exchange_crt() {
  // Self entries reflect the *current* clustering spaces (Algorithm 3 line 8
  // runs before propagation each period).
  std::unordered_set<NodeId> self_changed;
  for (auto& [x, node] : nodes_) {
    const auto& sizes = memo_.lookup(x, node.clustering_space(), predicted_);
    auto [it, inserted] = node.aggr_crt.try_emplace(x, sizes);
    if (inserted || it->second != sizes) {
      it->second = sizes;
      self_changed.insert(x);
    }
  }

  // A propCRT from m reads only m's own aggr_crt entries, so it can differ
  // from the stored one only when m's self entry changed this cycle or m's
  // incoming entries changed at the last commit.
  std::vector<std::tuple<NodeId, NodeId, std::vector<std::size_t>>> staged;
  for (const auto& [x, node] : nodes_) {
    for (NodeId m : node.neighbors) {
      auto stored = node.aggr_crt.find(m);
      if (stored != node.aggr_crt.end() && !self_changed.count(m) &&
          !crt_changed_.count(m)) {
        ++reused_;
        g_prop_crt_reused().add(1);
        metrics_.record("aggr_crt",
                        stored->second.size() * sizeof(std::size_t));
        continue;
      }
      auto prop = compute_prop_crt(nodes_, classes_.size(), m, x);
      ++recomputed_;
      g_prop_crt_recomputed().add(1);
      metrics_.record("aggr_crt", prop.size() * sizeof(std::size_t));
      staged.emplace_back(x, m, std::move(prop));
    }
  }
  crt_changed_.clear();
  for (auto& [x, m, prop] : staged) {
    auto [it, inserted] = nodes_.at(x).aggr_crt.try_emplace(m);
    if (!inserted && it->second == prop) continue;
    it->second = std::move(prop);
    crt_changed_.insert(x);
  }
  return !self_changed.empty() || !crt_changed_.empty();
}

}  // namespace bcc

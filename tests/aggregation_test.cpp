#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/find_cluster.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

/// Builds a framework + converged overlay state for a random tree metric.
struct ConvergedSystem {
  Framework fw;
  DistanceMatrix predicted;
  OverlayNodeMap nodes;
  BandwidthClasses classes = BandwidthClasses({1.0});
  std::size_t cycles = 0;
};

ConvergedSystem make_converged(std::size_t n, std::size_t n_cut,
                               std::uint64_t seed,
                               std::vector<double> class_bandwidths = {}) {
  ConvergedSystem s;
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(seed + 7);
  s.fw = build_framework(real, order_rng);
  s.predicted = s.fw.predicted_distances();
  if (class_bandwidths.empty()) {
    // Distance classes spanning the metric: pick bandwidths C/l for a few l.
    const double c = kDefaultTransformC;
    const double dmax = s.predicted.max_distance();
    class_bandwidths = {c / dmax, c / (dmax * 0.5), c / (dmax * 0.25),
                        c / (dmax * 0.1)};
  }
  s.classes = BandwidthClasses(std::move(class_bandwidths));
  s.nodes = make_overlay_nodes(s.fw.anchors);
  Engine engine;
  auto info = std::make_shared<NodeInfoAggregation>(&s.nodes, &s.predicted,
                                                    n_cut, nullptr);
  auto crt = std::make_shared<CrtAggregation>(&s.nodes, &s.predicted,
                                              &s.classes, nullptr);
  engine.add_protocol(info);
  engine.add_protocol(crt);
  s.cycles = engine.run(2 * s.fw.anchors.diameter() + 8);
  EXPECT_TRUE(info->converged());
  EXPECT_TRUE(crt->converged());
  return s;
}

/// Ground truth for Theorem 3.2: the n_cut nodes of `reachable` closest to x
/// under `d`, ties by id.
std::vector<NodeId> expected_aggr(const DistanceMatrix& d, NodeId x,
                                  std::vector<NodeId> reachable,
                                  std::size_t n_cut) {
  std::stable_sort(reachable.begin(), reachable.end(),
                   [&](NodeId a, NodeId b) {
                     const double da = d.at(x, a), db = d.at(x, b);
                     if (da != db) return da < db;
                     return a < b;
                   });
  if (reachable.size() > n_cut) reachable.resize(n_cut);
  return reachable;
}

TEST(NodeInfoAggregation, Theorem32HoldsAtFixpoint) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    ConvergedSystem s = make_converged(24, 5, seed);
    for (auto& [x, node] : s.nodes) {
      for (NodeId m : node.neighbors) {
        auto got = node.aggr_node.at(m);
        std::sort(got.begin(), got.end());
        auto want = expected_aggr(s.predicted, x,
                                  s.fw.anchors.reachable_via(x, m), 5);
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "x=" << x << " m=" << m << " seed=" << seed;
      }
    }
  }
}

TEST(NodeInfoAggregation, LargeNcutAggregatesEntireDirections) {
  ConvergedSystem s = make_converged(16, 100, 4);
  for (auto& [x, node] : s.nodes) {
    for (NodeId m : node.neighbors) {
      auto got = node.aggr_node.at(m);
      auto want = s.fw.anchors.reachable_via(x, m);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
    }
  }
}

TEST(NodeInfoAggregation, ClusteringSpaceIsWholeSystemWithLargeNcut) {
  ConvergedSystem s = make_converged(16, 100, 5);
  for (auto& [x, node] : s.nodes) {
    EXPECT_EQ(node.clustering_space().size(), 16u) << "x=" << x;
  }
}

TEST(NodeInfoAggregation, AggregatesNeverContainSelf) {
  ConvergedSystem s = make_converged(20, 6, 6);
  for (auto& [x, node] : s.nodes) {
    for (auto& [m, nodes] : node.aggr_node) {
      EXPECT_EQ(std::find(nodes.begin(), nodes.end(), x), nodes.end());
    }
  }
}

TEST(NodeInfoAggregation, AggregateSizesRespectNcut) {
  ConvergedSystem s = make_converged(30, 4, 7);
  for (auto& [x, node] : s.nodes) {
    for (auto& [m, nodes] : node.aggr_node) {
      EXPECT_LE(nodes.size(), 4u);
    }
  }
}

TEST(NodeInfoAggregation, ConvergesWithinOverlayDiameterCycles) {
  ConvergedSystem s = make_converged(25, 5, 8);
  EXPECT_LE(s.cycles, 2 * s.fw.anchors.diameter() + 8);
  EXPECT_GE(s.cycles, s.fw.anchors.diameter() / 2);  // nontrivial propagation
}

TEST(CrtAggregation, Theorem33Identity) {
  // At the fixpoint, x.aggrCRT[m][l] equals the max over the m-direction of
  // each node's own local maximum cluster size.
  for (std::uint64_t seed : {10ull, 11ull}) {
    ConvergedSystem s = make_converged(20, 5, seed);
    for (auto& [x, node] : s.nodes) {
      for (NodeId m : node.neighbors) {
        const auto reachable = s.fw.anchors.reachable_via(x, m);
        for (std::size_t li = 0; li < s.classes.size(); ++li) {
          std::size_t want = 0;
          for (NodeId w : reachable) {
            want = std::max(want, s.nodes.at(w).aggr_crt.at(w)[li]);
          }
          EXPECT_EQ(node.aggr_crt.at(m)[li], want)
              << "x=" << x << " m=" << m << " class=" << li;
        }
      }
    }
  }
}

TEST(CrtAggregation, SelfEntryMatchesLocalSpace) {
  ConvergedSystem s = make_converged(18, 5, 12);
  for (auto& [x, node] : s.nodes) {
    const auto space = node.clustering_space();
    for (std::size_t li = 0; li < s.classes.size(); ++li) {
      EXPECT_EQ(node.aggr_crt.at(x)[li],
                max_cluster_size(s.predicted, space, s.classes.distance_at(li)))
          << "x=" << x;
    }
  }
}

TEST(CrtAggregation, CrtMonotoneInClassDistance) {
  // Looser classes (bigger l / smaller b) admit at least as large clusters.
  ConvergedSystem s = make_converged(20, 5, 13);
  for (auto& [x, node] : s.nodes) {
    for (auto& [v, crt] : node.aggr_crt) {
      // classes are sorted ascending by bandwidth = descending by l.
      for (std::size_t i = 0; i + 1 < crt.size(); ++i) {
        EXPECT_GE(crt[i], crt[i + 1]) << "x=" << x;
      }
    }
  }
}

TEST(CrtAggregation, GlobalMaxAppearsSomewhereWithLargeNcut) {
  // With n_cut >= n every node's space is the full system, so every CRT self
  // entry equals the global maximum cluster size.
  ConvergedSystem s = make_converged(14, 100, 14);
  const auto universe = testutil::iota_universe(14);
  for (std::size_t li = 0; li < s.classes.size(); ++li) {
    const std::size_t global = max_cluster_size(s.predicted, universe,
                                                s.classes.distance_at(li));
    for (auto& [x, node] : s.nodes) {
      EXPECT_EQ(node.aggr_crt.at(x)[li], global);
    }
  }
}

TEST(SelfCrtMemo, LookupsEqualDirectComputationThroughInPlaceWrites) {
  // Property on random tree metrics: every lookup equals a fresh
  // max_cluster_sizes_for_classes, whatever was written since, and the memo
  // reruns Algorithm 1 exactly when its key moved — a slot's space changed,
  // a distance inside it changed, or the slot was forgotten. Writes outside
  // a space, writes of an unchanged value and repeated calls reuse it.
  const double c = kDefaultTransformC;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed + 40);
    const std::size_t n = 8 + static_cast<std::size_t>(rng.below(14));
    DistanceMatrix d = testutil::random_tree_metric(n, rng);
    const double dmax = d.max_distance();
    const BandwidthClasses classes(
        {c / dmax, c / (dmax * 0.5), c / (dmax * 0.25), c / (dmax * 0.1)}, c);
    std::vector<double> ls;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      ls.push_back(classes.distance_at(i));
    }
    auto random_space = [&](NodeId x) {
      std::vector<NodeId> space = rng.sample_indices(n, rng.below(n) + 1);
      space.push_back(x);
      std::sort(space.begin(), space.end());
      space.erase(std::unique(space.begin(), space.end()), space.end());
      return space;
    };
    auto contains = [](const std::vector<NodeId>& space, NodeId u) {
      return std::binary_search(space.begin(), space.end(), u);
    };

    SelfCrtMemo memo(&classes);
    const std::size_t slots = 3;
    std::vector<std::vector<NodeId>> spaces(slots);
    std::vector<bool> stale(slots, true);  // never looked up yet
    for (NodeId x = 0; x < slots; ++x) spaces[x] = random_space(x);
    for (int step = 0; step < 60; ++step) {
      const NodeId x = static_cast<NodeId>(rng.below(slots));
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = (u + 1 + static_cast<NodeId>(rng.below(n - 1))) % n;
      switch (rng.below(5)) {
        case 0:  // repeated call
          break;
        case 1:  // in-place write, inside or outside the slots' spaces
          d.set(u, v, d.at(u, v) * rng.uniform(0.5, 1.5));
          for (NodeId y = 0; y < slots; ++y) {
            if (contains(spaces[y], u) && contains(spaces[y], v)) {
              stale[y] = true;
            }
          }
          break;
        case 2:  // a write that leaves the value as it was
          d.set(u, v, d.at(u, v));
          break;
        case 3: {  // a new space (a redraw may repeat the old one)
          std::vector<NodeId> next = random_space(x);
          if (next != spaces[x]) stale[x] = true;
          spaces[x] = std::move(next);
          break;
        }
        default:
          memo.forget(x);
          stale[x] = true;
          break;
      }
      const std::size_t misses = memo.misses();
      EXPECT_EQ(memo.lookup(x, spaces[x], d),
                max_cluster_sizes_for_classes(d, spaces[x], ls))
          << "seed=" << seed << " step=" << step;
      EXPECT_EQ(memo.misses() - misses, stale[x] ? 1u : 0u)
          << "seed=" << seed << " step=" << step;
      stale[x] = false;
    }
  }
}

TEST(Aggregation, MessageMetricsAccumulate) {
  Rng rng(20);
  const DistanceMatrix real = testutil::random_tree_metric(12, rng);
  Rng order_rng(21);
  Framework fw = build_framework(real, order_rng);
  DistanceMatrix predicted = fw.predicted_distances();
  OverlayNodeMap nodes = make_overlay_nodes(fw.anchors);
  BandwidthClasses classes({10.0, 50.0});
  Engine engine;
  engine.add_protocol(std::make_shared<NodeInfoAggregation>(
      &nodes, &predicted, 3, &engine.metrics()));
  engine.add_protocol(std::make_shared<CrtAggregation>(
      &nodes, &predicted, &classes, &engine.metrics()));
  const std::size_t executed = engine.run(5);
  EXPECT_GT(engine.metrics().messages("aggr_node"), 0u);
  EXPECT_GT(engine.metrics().messages("aggr_crt"), 0u);
  EXPECT_GT(engine.metrics().total_bytes(), 0u);
  // Each cycle sends one message per directed overlay edge per protocol:
  // 2 * (n-1) = 22 directed edges.
  EXPECT_EQ(engine.metrics().messages("aggr_crt"), executed * 22u);
}

TEST(Aggregation, MakeOverlayNodesMirrorsAnchorTree) {
  AnchorTree t;
  t.set_root(0);
  t.add_child(0, 1);
  t.add_child(1, 2);
  const OverlayNodeMap nodes = make_overlay_nodes(t);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes.at(1).neighbors.size(), 2u);
  EXPECT_EQ(nodes.at(2).neighbors, (std::vector<NodeId>{1}));
}

TEST(Aggregation, SingletonSystemConvergesImmediately) {
  AnchorTree t;
  t.set_root(0);
  OverlayNodeMap nodes = make_overlay_nodes(t);
  DistanceMatrix predicted(1);
  BandwidthClasses classes({10.0});
  Engine engine;
  auto info =
      std::make_shared<NodeInfoAggregation>(&nodes, &predicted, 3, nullptr);
  auto crt = std::make_shared<CrtAggregation>(&nodes, &predicted, &classes,
                                              nullptr);
  engine.add_protocol(info);
  engine.add_protocol(crt);
  const std::size_t cycles = engine.run(10);
  EXPECT_LE(cycles, 2u);
  EXPECT_TRUE(info->converged());
  EXPECT_EQ(nodes.at(0).aggr_crt.at(0)[0], 1u);  // singleton cluster only
}

}  // namespace
}  // namespace bcc

#include "core/aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "core/find_cluster.h"
#include "core/system.h"
#include "data/planetlab_synth.h"
#include "test_util.h"
#include "tree/embedder.h"
#include "tree/maintenance.h"

namespace bcc {
namespace {

/// A framework over a random tree metric, with distance classes spanning
/// it; gossip has not run yet.
struct GossipWorld {
  Framework fw;
  DistanceMatrix predicted;
  BandwidthClasses classes = BandwidthClasses({1.0});
};

GossipWorld make_world(std::size_t n, std::uint64_t seed) {
  GossipWorld w;
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(seed + 7);
  w.fw = build_framework(real, order_rng);
  w.predicted = w.fw.predicted_distances();
  // Distance classes spanning the metric: bandwidths C/l for a few l.
  const double c = kDefaultTransformC;
  const double dmax = w.predicted.max_distance();
  w.classes = BandwidthClasses(
      {c / dmax, c / (dmax * 0.5), c / (dmax * 0.25), c / (dmax * 0.1)}, c);
  return w;
}

/// A world's converged overlay state. (The NodeInfoAggregation and
/// CrtAggregation suites test Algorithms 2 and 3 at their fixpoint.)
struct ConvergedSystem : GossipWorld {
  OverlayNodeMap nodes;
  std::size_t cycles = 0;
};

ConvergedSystem make_converged(std::size_t n, std::size_t n_cut,
                               std::uint64_t seed) {
  ConvergedSystem s;
  static_cast<GossipWorld&>(s) = make_world(n, seed);
  SyncGossip gossip(s.fw.anchors, s.predicted, s.classes, n_cut,
                    2 * s.fw.anchors.diameter() + 8);
  s.cycles = gossip.run();
  EXPECT_TRUE(gossip.converged());
  s.nodes = gossip.nodes();
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
  BandwidthClasses classes({10.0, 50.0});
  SyncGossip gossip(fw.anchors, predicted, classes, 3, 5);
  const std::size_t executed = gossip.run();
  EXPECT_GT(gossip.metrics().messages("aggr_node"), 0u);
  EXPECT_GT(gossip.metrics().messages("aggr_crt"), 0u);
  EXPECT_GT(gossip.metrics().total_bytes(), 0u);
  // Each cycle sends one message per directed overlay edge per algorithm,
  // reused or not: 2 * (n-1) = 22 directed edges.
  EXPECT_EQ(gossip.metrics().messages("aggr_node"), executed * 22u);
  EXPECT_EQ(gossip.metrics().messages("aggr_crt"), executed * 22u);
  EXPECT_EQ(gossip.messages_recomputed() + gossip.messages_reused(),
            executed * 44u);
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
  SyncGossip gossip(t, DistanceMatrix(1), BandwidthClasses({10.0}), 3, 10);
  const std::size_t cycles = gossip.run();
  EXPECT_LE(cycles, 2u);
  EXPECT_TRUE(gossip.converged());
  EXPECT_EQ(gossip.nodes().at(0).aggr_crt.at(0)[0], 1u);  // singleton only
  EXPECT_EQ(gossip.metrics().total_messages(), 0u);
}

// ---------------------------------------------------------------- SyncGossip

TEST(SyncGossip, RespectsCycleBudget) {
  GossipWorld w = make_world(30, 31);
  ASSERT_GT(w.fw.anchors.diameter(), 2u);
  SyncGossip gossip(w.fw.anchors, w.predicted, w.classes, 5, 2);
  EXPECT_EQ(gossip.run(), 2u);  // deliberately too few to converge
  EXPECT_FALSE(gossip.converged());
}

TEST(SyncGossip, CyclesExecutedIsMonotonicAcrossRuns) {
  GossipWorld w = make_world(25, 32);
  SyncGossip gossip(w.fw.anchors, w.predicted, w.classes, 5, 1);
  std::size_t total = 0;
  while (!gossip.converged()) {
    ASSERT_LT(total, 100u);
    EXPECT_EQ(gossip.run(), 1u);
    ++total;
    EXPECT_EQ(gossip.cycles_executed(), total);
  }
  // A converged gossip runs no cycle and keeps its count.
  EXPECT_EQ(gossip.run(), 0u);
  EXPECT_EQ(gossip.cycles_executed(), total);
}

TEST(SyncGossip, EmptyOverlayConvergesAfterOneSilentCycle) {
  SyncGossip gossip(AnchorTree(), DistanceMatrix(0), BandwidthClasses({10.0}),
                    3);
  EXPECT_EQ(gossip.run(), 1u);
  EXPECT_TRUE(gossip.converged());
  EXPECT_EQ(gossip.run(), 0u);
  EXPECT_EQ(gossip.metrics().total_messages(), 0u);
}

TEST(SyncGossip, RepairedSetIsConsumedByOneCycle) {
  // Two repairs on disjoint host sets, each run to convergence. The second
  // must cost what it costs on a system converged from scratch on the
  // intermediate matrix: the first repair's hosts are not checked again.
  GossipWorld w = make_world(40, 33);
  const std::vector<NodeId> first = {3, 17};
  const std::vector<NodeId> second = {8, 29};
  using testutil::perturb_hosts;
  const DistanceMatrix p1 = perturb_hosts(w.predicted, first, 1.3);
  const DistanceMatrix p2 = perturb_hosts(p1, second, 0.7);
  SystemOptions options;
  options.n_cut = 4;

  DecentralizedClusterSystem sys(w.fw.anchors, w.predicted, w.classes,
                                 options);
  sys.run_to_convergence();
  sys.refresh_delta(p1, first);
  const std::size_t before = sys.messages_recomputed();
  sys.refresh_delta(p2, second);
  const std::size_t repaired_cost = sys.messages_recomputed() - before;

  DecentralizedClusterSystem fresh(w.fw.anchors, p1, w.classes, options);
  fresh.run_to_convergence();
  const std::size_t fresh_before = fresh.messages_recomputed();
  fresh.refresh_delta(p2, second);
  EXPECT_EQ(repaired_cost, fresh.messages_recomputed() - fresh_before);
  EXPECT_EQ(sys.canonical_dump(), fresh.canonical_dump());

  // With no cycle in between, both sets stay dirty and the run is exact.
  DecentralizedClusterSystem batched(w.fw.anchors, w.predicted, w.classes,
                                     options);
  batched.run_to_convergence();
  batched.apply_delta(p1, first);
  batched.apply_delta(p2, second);
  batched.run_to_convergence();
  EXPECT_EQ(batched.canonical_dump(), fresh.canonical_dump());
}

/// Steps `sys` (built with max_cycles = 1) and the full-recompute oracle,
/// started from a copy of sys's current tables, cycle by cycle to their
/// fixpoint: the dumps must be equal after every cycle and both must
/// converge on the same cycle. Returns the cycles run.
std::size_t expect_matches_oracle(DecentralizedClusterSystem& sys,
                                  const std::string& label) {
  OverlayNodeMap oracle = sys.nodes();
  std::size_t cycles = 0;
  bool oracle_converged = false;
  while (!oracle_converged) {
    if (cycles == 200) {
      ADD_FAILURE() << label << ": oracle did not converge";
      break;
    }
    oracle_converged = !testutil::full_recompute_cycle(
        oracle, sys.predicted(), sys.classes(), sys.options().n_cut);
    EXPECT_EQ(sys.run_to_convergence(), 1u) << label << " cycle " << cycles;
    ++cycles;
    EXPECT_EQ(sys.canonical_dump(), canonical_dump(oracle))
        << label << " cycle " << cycles;
    EXPECT_EQ(sys.converged(), oracle_converged)
        << label << " cycle " << cycles;
  }
  EXPECT_EQ(sys.run_to_convergence(), 0u) << label;
  return cycles;
}

TEST(SyncGossip, MatchesFullRecomputeOracleFromScratchOnTreeMetrics) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed + 300);
    const std::size_t n = 6 + static_cast<std::size_t>(rng.below(30));
    GossipWorld w = make_world(n, seed + 300);
    SystemOptions options;
    options.n_cut = 2 + static_cast<std::size_t>(rng.below(6));
    options.max_cycles = 1;
    DecentralizedClusterSystem sys(w.fw.anchors, w.predicted, w.classes,
                                   options);
    expect_matches_oracle(sys, "tree seed " + std::to_string(seed));
    // Change-driven from scratch: messages whose sender settled are reused.
    EXPECT_GT(sys.messages_reused(), 0u) << "seed " << seed;
  }
}

TEST(SyncGossip, MatchesFullRecomputeOracleFromScratchOnPlanetLabWorlds) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 500);
    SynthOptions synth;
    synth.hosts = 24 + static_cast<std::size_t>(rng.below(30));
    const SynthDataset data = synthesize_planetlab(synth, rng);
    Rng order_rng(seed + 501);
    const Framework fw = build_framework(data.distances, order_rng);
    const DistanceMatrix predicted = fw.predicted_distances();
    const double c = kDefaultTransformC;
    const double dmax = predicted.max_distance();
    SystemOptions options;
    options.n_cut = 3 + static_cast<std::size_t>(rng.below(8));
    options.max_cycles = 1;
    DecentralizedClusterSystem sys(
        fw.anchors, predicted,
        BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c),
        options);
    expect_matches_oracle(sys, "planetlab seed " + std::to_string(seed));
  }
}

TEST(SyncGossip, MatchesFullRecomputeOracleThroughRandomRepairs) {
  // Random apply_delta sequences through the streaming pipeline: dirty
  // hosts -> FrameworkMaintainer::refresh_dirty (leave+rejoin moves anchors,
  // so the overlay changes) -> apply_delta. Every third step disturbs 40% of
  // the hosts, past the maintainer's full-rebuild threshold.
  std::size_t overlay_changes = 0;
  std::size_t full_rebuilds = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed + 700);
    SynthOptions synth;
    synth.hosts = 30;
    const SynthDataset data = synthesize_planetlab(synth, rng);
    std::deque<DistanceMatrix> reals = {data.distances};
    FrameworkMaintainer maintainer(&reals.back());
    for (NodeId h = 0; h < synth.hosts; ++h) maintainer.join(h);
    DistanceMatrix predicted(synth.hosts);
    maintainer.write_predicted(&predicted);
    const double c = kDefaultTransformC;
    const double dmax = predicted.max_distance();
    SystemOptions options;
    options.n_cut = 4;
    options.max_cycles = 1;
    DecentralizedClusterSystem sys(
        maintainer.anchors(), predicted,
        BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c),
        options);
    expect_matches_oracle(sys, "repair seed " + std::to_string(seed));
    for (int step = 0; step < 6; ++step) {
      const std::string label = "repair seed " + std::to_string(seed) +
                                " step " + std::to_string(step);
      const std::size_t count =
          step % 3 == 2 ? synth.hosts * 2 / 5
                        : 1 + static_cast<std::size_t>(rng.below(3));
      std::vector<NodeId> dirty = rng.sample_indices(synth.hosts, count);
      std::sort(dirty.begin(), dirty.end());
      reals.push_back(testutil::perturb_hosts(reals.back(), dirty,
                                              rng.uniform(0.6, 1.6)));
      const auto report = maintainer.refresh_dirty(&reals.back(), dirty);
      if (report.full_rebuild) {
        ++full_rebuilds;
        maintainer.write_predicted(&predicted);
      } else {
        maintainer.write_predicted_delta(&predicted, report.repaired);
      }
      const OverlayNodeMap before = sys.nodes();
      sys.apply_delta(predicted, report.repaired, &maintainer.anchors());
      for (const auto& [x, node] : sys.nodes()) {
        if (node.neighbors != before.at(x).neighbors) {
          ++overlay_changes;
          break;
        }
      }
      expect_matches_oracle(sys, label);
      DecentralizedClusterSystem fresh(maintainer.anchors(), predicted,
                                       sys.classes(), options);
      while (!fresh.converged()) fresh.run_to_convergence();
      EXPECT_EQ(sys.canonical_dump(), fresh.canonical_dump()) << label;
    }
  }
  // The sequences did exercise what they claim to.
  EXPECT_GT(overlay_changes, 0u);
  EXPECT_GT(full_rebuilds, 0u);
}

}  // namespace
}  // namespace bcc

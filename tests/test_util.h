// Shared helpers for the bcc test suite: random metric-space generators and
// small fixtures used across module tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/aggregation.h"
#include "core/find_cluster.h"
#include "euclid/point2.h"
#include "metric/distance_matrix.h"
#include "tree/weighted_tree.h"

namespace bcc::testutil {

/// A random edge-weighted tree over n leaf-hosts (internal vertices
/// optional) and its induced *perfect* tree metric over the hosts.
struct RandomTreeMetric {
  DistanceMatrix distances;
};

/// Builds a random tree metric: hosts 0..n-1 are leaves hanging off a random
/// internal topology with weights in [min_w, max_w]. The result satisfies
/// 4PC exactly (up to floating point).
inline DistanceMatrix random_tree_metric(std::size_t n, Rng& rng,
                                         double min_w = 0.5,
                                         double max_w = 20.0) {
  BCC_REQUIRE(n >= 1);
  WeightedTree tree;
  // Internal skeleton: a random recursive tree of n_internal vertices.
  const std::size_t n_internal = std::max<std::size_t>(1, n / 3);
  std::vector<TreeVertex> internal(n_internal);
  internal[0] = tree.add_vertex();
  for (std::size_t i = 1; i < n_internal; ++i) {
    internal[i] = tree.add_vertex();
    tree.connect(internal[static_cast<std::size_t>(rng.below(i))], internal[i],
                 rng.uniform(min_w, max_w));
  }
  std::vector<TreeVertex> leaf(n);
  for (std::size_t h = 0; h < n; ++h) {
    leaf[h] = tree.add_vertex();
    tree.connect(internal[static_cast<std::size_t>(rng.below(n_internal))],
                 leaf[h], rng.uniform(min_w, max_w));
  }
  DistanceMatrix d(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto from_u = tree.distances_from(leaf[u]);
    for (std::size_t v = u + 1; v < n; ++v) d.set(u, v, from_u[leaf[v]]);
  }
  return d;
}

/// A random metric that deliberately violates 4PC: a tree metric with
/// multiplicative lognormal noise per pair (noise can break the triangle
/// inequality too — that is intended; algorithms must not crash on it).
inline DistanceMatrix noisy_tree_metric(std::size_t n, Rng& rng,
                                        double sigma = 0.3) {
  DistanceMatrix d = random_tree_metric(n, rng);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      d.set(u, v, d.at(u, v) * rng.lognormal(0.0, sigma));
    }
  }
  return d;
}

/// Scales every link of `hosts` in `m` by `factor` (a correlated
/// distance-space disturbance confined to those hosts' links).
inline DistanceMatrix perturb_hosts(const DistanceMatrix& m,
                                    const std::vector<NodeId>& hosts,
                                    double factor) {
  DistanceMatrix out = m;
  for (NodeId h : hosts) {
    for (NodeId v = 0; v < m.size(); ++v) {
      if (v == h) continue;
      out.set(h, v, out.at(h, v) * factor);
    }
  }
  return out;
}

/// Random 2-D points in the unit square scaled by `extent`.
inline std::vector<Point2> random_points(std::size_t n, Rng& rng,
                                         double extent = 100.0) {
  std::vector<Point2> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform(0.0, extent);
    p.y = rng.uniform(0.0, extent);
  }
  return pts;
}

/// Distance matrix of a 2-D point set (always a valid metric, rarely 4PC).
inline DistanceMatrix euclidean_metric(const std::vector<Point2>& pts) {
  DistanceMatrix d(pts.size());
  for (std::size_t u = 0; u < pts.size(); ++u) {
    for (std::size_t v = u + 1; v < pts.size(); ++v) {
      d.set(u, v, dist2d(pts[u], pts[v]));
    }
  }
  return d;
}

/// Identity universe 0..n-1.
inline std::vector<NodeId> iota_universe(std::size_t n) {
  std::vector<NodeId> u(n);
  for (std::size_t i = 0; i < n; ++i) u[i] = i;
  return u;
}

/// Slow oracle for SyncGossip: one lockstep cycle of Algorithms 2–3 in which
/// every message is recomputed from committed state with compute_prop_* and
/// every self entry comes straight from max_cluster_sizes_for_classes.
/// Returns true when the cycle changed any table; a run has converged after
/// the first cycle that returns false.
inline bool full_recompute_cycle(OverlayNodeMap& nodes,
                                 const DistanceMatrix& predicted,
                                 const BandwidthClasses& classes,
                                 std::size_t n_cut) {
  bool changed = false;
  auto commit = [&](auto& table, NodeId m, auto value) {
    auto [it, inserted] = table.try_emplace(m);
    if (inserted || it->second != value) {
      it->second = std::move(value);
      changed = true;
    }
  };
  std::vector<std::tuple<NodeId, NodeId, std::vector<NodeId>>> node_props;
  for (const auto& [x, node] : nodes) {
    for (NodeId m : node.neighbors) {
      node_props.emplace_back(
          x, m, compute_prop_node(nodes, predicted, n_cut, m, x));
    }
  }
  for (auto& [x, m, prop] : node_props) {
    commit(nodes.at(x).aggr_node, m, std::move(prop));
  }
  std::vector<double> ls;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    ls.push_back(classes.distance_at(i));
  }
  for (auto& [x, node] : nodes) {
    commit(node.aggr_crt, x,
           max_cluster_sizes_for_classes(predicted, node.clustering_space(),
                                         ls));
  }
  std::vector<std::tuple<NodeId, NodeId, std::vector<std::size_t>>> crt_props;
  for (const auto& [x, node] : nodes) {
    for (NodeId m : node.neighbors) {
      crt_props.emplace_back(x, m,
                             compute_prop_crt(nodes, classes.size(), m, x));
    }
  }
  for (auto& [x, m, prop] : crt_props) {
    commit(nodes.at(x).aggr_crt, m, std::move(prop));
  }
  return changed;
}

/// A fresh directory under temp_directory_path(), removed on destruction.
/// Named from the running test (suite + name) and this process id: ctest
/// runs each TEST as its own process, possibly in parallel, and a shared
/// directory lets one test's cleanup delete another's files mid-write.
class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("bcc_") + info->test_suite_name() + "_" +
                       info->name() + "_" + std::to_string(::getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// Path of `name` inside the directory.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace bcc::testutil

#include "tree/embedder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "metric/four_point.h"
#include "test_util.h"

namespace bcc {
namespace {

/// Parameterized over (seed, n, search mode).
struct EmbedCase {
  std::uint64_t seed;
  std::size_t n;
  EndSearch search;
};

/// Prints a case as e.g. `exhaustive_seed1_n3`. ctest names parameterized
/// tests after the printed value, which without this is the struct's raw
/// bytes, padding included, and so changes between builds.
void PrintTo(const EmbedCase& c, std::ostream* os) {
  *os << (c.search == EndSearch::kExhaustive ? "exhaustive" : "descent")
      << "_seed" << c.seed << "_n" << c.n;
}

class ExactEmbedding : public ::testing::TestWithParam<EmbedCase> {};

TEST_P(ExactEmbedding, PerfectTreeMetricsEmbedExactly) {
  // THE core substrate property (Buneman / Sequoia): a metric satisfying 4PC
  // is reproduced *exactly* by Gromov-product insertion, in any order, with
  // either end-node search.
  const EmbedCase c = GetParam();
  Rng rng(c.seed);
  const DistanceMatrix real = testutil::random_tree_metric(c.n, rng);
  EmbedOptions options{c.search};
  Rng order_rng(c.seed + 1000);
  const Framework fw = build_framework(real, order_rng, options);
  const DistanceMatrix pred = fw.predicted_distances();
  for (NodeId u = 0; u < c.n; ++u) {
    for (NodeId v = u + 1; v < c.n; ++v) {
      EXPECT_NEAR(pred.at(u, v), real.at(u, v), 1e-6)
          << "pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactEmbedding,
    ::testing::Values(
        EmbedCase{1, 3, EndSearch::kExhaustive},
        EmbedCase{2, 5, EndSearch::kExhaustive},
        EmbedCase{3, 10, EndSearch::kExhaustive},
        EmbedCase{4, 25, EndSearch::kExhaustive},
        EmbedCase{5, 60, EndSearch::kExhaustive},
        EmbedCase{6, 3, EndSearch::kAnchorDescent},
        EmbedCase{7, 5, EndSearch::kAnchorDescent},
        EmbedCase{8, 10, EndSearch::kAnchorDescent},
        EmbedCase{9, 25, EndSearch::kAnchorDescent},
        EmbedCase{10, 60, EndSearch::kAnchorDescent}));

TEST(Embedder, SingleHostFramework) {
  DistanceMatrix d(1);
  const std::vector<NodeId> order = {0};
  const Framework fw = build_framework(d, order);
  EXPECT_EQ(fw.prediction.host_count(), 1u);
  EXPECT_EQ(fw.anchors.size(), 1u);
  EXPECT_EQ(fw.anchors.root(), 0u);
}

TEST(Embedder, TwoHostFramework) {
  DistanceMatrix d(2);
  d.set(0, 1, 7.0);
  const std::vector<NodeId> order = {1, 0};
  const Framework fw = build_framework(d, order);
  EXPECT_EQ(fw.anchors.root(), 1u);
  EXPECT_EQ(fw.anchors.parent_of(0), 1u);
  EXPECT_DOUBLE_EQ(fw.prediction.distance(0, 1), 7.0);
}

TEST(Embedder, AnchorTreeMatchesPlacements) {
  Rng rng(11);
  const DistanceMatrix real = testutil::random_tree_metric(20, rng);
  Rng order_rng(12);
  const Framework fw = build_framework(real, order_rng);
  for (NodeId h : fw.prediction.hosts()) {
    const auto& placement = fw.prediction.placement_of(h);
    if (placement.anchor == kNoAnchor) {
      EXPECT_EQ(fw.anchors.root(), h);
    } else {
      EXPECT_EQ(fw.anchors.parent_of(h), placement.anchor);
    }
  }
}

TEST(Embedder, InvalidOrdersRejected) {
  DistanceMatrix d(3, 1.0);
  const std::vector<NodeId> short_order = {0, 1};
  EXPECT_THROW(build_framework(d, short_order), ContractViolation);
  const std::vector<NodeId> dup_order = {0, 1, 1};
  EXPECT_THROW(build_framework(d, dup_order), ContractViolation);
  const std::vector<NodeId> oob_order = {0, 1, 7};
  EXPECT_THROW(build_framework(d, oob_order), ContractViolation);
}

TEST(Embedder, ProbeAccountingExhaustiveIsQuadratic) {
  Rng rng(13);
  const std::size_t n = 30;
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(14);
  EmbedStats stats;
  build_framework(real, order_rng, EmbedOptions{EndSearch::kExhaustive},
                  &stats);
  EXPECT_EQ(stats.joins, n);
  // Join i >= 2 probes (i - 1) candidates + 1 base probe; join 1 probes once.
  std::size_t expected = 1;
  for (std::size_t i = 2; i < n; ++i) expected += i;  // (i-1) + 1
  EXPECT_EQ(stats.probes, expected);
}

TEST(Embedder, AnchorDescentProbesFewerThanExhaustive) {
  Rng rng(15);
  const std::size_t n = 80;
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  EmbedStats exhaustive, descent;
  Rng r1(16), r2(16);
  build_framework(real, r1, EmbedOptions{EndSearch::kExhaustive}, &exhaustive);
  build_framework(real, r2, EmbedOptions{EndSearch::kAnchorDescent}, &descent);
  EXPECT_LT(descent.probes, exhaustive.probes);
}

TEST(Embedder, NoisyMetricStillProducesValidTree) {
  // On non-tree data the embedding is approximate but must stay structurally
  // sound and produce finite distances.
  Rng rng(17);
  const DistanceMatrix real = testutil::noisy_tree_metric(40, rng, 0.4);
  Rng order_rng(18);
  const Framework fw = build_framework(real, order_rng);
  EXPECT_TRUE(fw.prediction.check_invariants());
  const DistanceMatrix pred = fw.predicted_distances();
  for (NodeId u = 0; u < 40; ++u) {
    for (NodeId v = u + 1; v < 40; ++v) {
      EXPECT_TRUE(std::isfinite(pred.at(u, v)));
      EXPECT_GE(pred.at(u, v), 0.0);
    }
  }
  // Predicted distances from a tree are themselves a tree metric.
  EXPECT_TRUE(is_tree_metric(pred.submatrix(testutil::iota_universe(12)),
                             1e-6));
}

TEST(Embedder, NoisyEmbeddingIsReasonablyAccurate) {
  // Sanity bound: with mild noise the median relative distance error should
  // be well under 100%.
  Rng rng(19);
  const DistanceMatrix real = testutil::noisy_tree_metric(60, rng, 0.2);
  Rng order_rng(20);
  const Framework fw = build_framework(real, order_rng);
  const DistanceMatrix pred = fw.predicted_distances();
  std::vector<double> errs;
  for (NodeId u = 0; u < 60; ++u) {
    for (NodeId v = u + 1; v < 60; ++v) {
      errs.push_back(std::abs(pred.at(u, v) - real.at(u, v)) / real.at(u, v));
    }
  }
  std::nth_element(errs.begin(), errs.begin() + errs.size() / 2, errs.end());
  EXPECT_LT(errs[errs.size() / 2], 0.5);
}

TEST(Embedder, EndSearchFunctionsAgreeOnTreeMetrics) {
  Rng rng(21);
  const DistanceMatrix real = testutil::random_tree_metric(15, rng);
  std::vector<NodeId> order = testutil::iota_universe(15);
  // Build a partial framework over the first 10 hosts.
  const std::span<const NodeId> first10(order.data(), 10);
  Framework fw = build_framework(real.submatrix(first10), first10);
  // For a joining host, both searches must find an end node achieving the
  // same (maximal) Gromov product value.
  const NodeId x = 10;  // not in the partial framework; distances from real
  auto gromov_to = [&](NodeId y) {
    return gromov_product(real.at(0, x), fw.prediction.distance(0, y),
                          real.at(x, y));
  };
  const NodeId y1 = find_end_exhaustive(fw.prediction, real, x, 0, nullptr);
  const NodeId y2 = find_end_anchor_descent(fw.prediction, fw.anchors, real,
                                            x, 0, nullptr);
  EXPECT_NEAR(gromov_to(y1), gromov_to(y2), 1e-9);
}

}  // namespace
}  // namespace bcc

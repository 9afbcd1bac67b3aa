#include "data/completion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "data/planetlab_synth.h"
#include "test_util.h"

namespace bcc {
namespace {

TEST(PartialMatrix, SetGetClear) {
  PartialBandwidthMatrix m(4);
  EXPECT_FALSE(m.at(0, 1).has_value());
  m.set(0, 1, 50.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0).value(), 50.0);  // symmetric indexing
  m.clear(1, 0);
  EXPECT_FALSE(m.at(0, 1).has_value());
  EXPECT_THROW(m.set(0, 0, 1.0), ContractViolation);
  EXPECT_THROW(m.set(0, 1, 0.0), ContractViolation);
  EXPECT_THROW(m.at(0, 9), ContractViolation);
}

TEST(PartialMatrix, MissingCounts) {
  PartialBandwidthMatrix m(3);
  EXPECT_EQ(m.total_missing(), 3u);
  EXPECT_EQ(m.missing_count(0), 2u);
  m.set(0, 1, 10.0);
  EXPECT_EQ(m.total_missing(), 2u);
  EXPECT_EQ(m.missing_count(0), 1u);
  EXPECT_EQ(m.missing_count(2), 2u);
  EXPECT_FALSE(m.complete());
  m.set(0, 2, 10.0);
  m.set(1, 2, 10.0);
  EXPECT_TRUE(m.complete());
}

TEST(Completion, MaskFractionRoughlyHonored) {
  Rng data_rng(1);
  SynthOptions options;
  options.hosts = 60;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  Rng mask_rng(2);
  const PartialBandwidthMatrix masked =
      mask_measurements(data.bandwidth, 0.3, mask_rng);
  const double total_pairs = 60.0 * 59.0 / 2.0;
  const double missing =
      static_cast<double>(masked.total_missing()) / total_pairs;
  EXPECT_NEAR(missing, 0.3, 0.05);
}

TEST(Completion, ExtractedSubsetIsComplete) {
  Rng data_rng(3);
  SynthOptions options;
  options.hosts = 50;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  for (double fraction : {0.05, 0.2, 0.5}) {
    Rng mask_rng(4);
    const PartialBandwidthMatrix masked =
        mask_measurements(data.bandwidth, fraction, mask_rng);
    const auto subset = extract_complete_subset(masked);
    // Every kept pair is measured.
    for (std::size_t i = 0; i < subset.size(); ++i) {
      for (std::size_t j = i + 1; j < subset.size(); ++j) {
        EXPECT_TRUE(masked.at(subset[i], subset[j]).has_value());
      }
    }
    // Light masking keeps a sizeable subset (every missing pair must lose
    // an endpoint, so ~n*0.05 disjoint gaps already cost dozens of nodes —
    // the same drastic shrink the paper saw: 459 -> 190 and 497 -> 317).
    if (fraction <= 0.05) {
      EXPECT_GE(subset.size(), 20u);
    }
  }
}

TEST(Completion, CompleteInputKeepsEverything) {
  Rng data_rng(5);
  SynthOptions options;
  options.hosts = 20;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  Rng mask_rng(6);
  const PartialBandwidthMatrix full =
      mask_measurements(data.bandwidth, 0.0, mask_rng);
  const auto subset = extract_complete_subset(full);
  EXPECT_EQ(subset.size(), 20u);
}

TEST(Completion, FullyMissingKeepsAtMostOne) {
  PartialBandwidthMatrix empty(5);
  const auto subset = extract_complete_subset(empty);
  EXPECT_LE(subset.size(), 1u);
}

TEST(Completion, SubsetIsSortedAscending) {
  Rng data_rng(7);
  SynthOptions options;
  options.hosts = 30;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  Rng mask_rng(8);
  const auto masked = mask_measurements(data.bandwidth, 0.25, mask_rng);
  const auto subset = extract_complete_subset(masked);
  EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
}

TEST(Completion, CompleteSubmatrixMatchesSourceValues) {
  Rng data_rng(9);
  SynthOptions options;
  options.hosts = 25;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  Rng mask_rng(10);
  const auto masked = mask_measurements(data.bandwidth, 0.2, mask_rng);
  const auto subset = extract_complete_subset(masked);
  ASSERT_GE(subset.size(), 2u);
  const BandwidthMatrix sub = complete_submatrix(masked, subset);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = i + 1; j < subset.size(); ++j) {
      EXPECT_DOUBLE_EQ(sub.at(i, j),
                       data.bandwidth.at(subset[i], subset[j]));
    }
  }
}

TEST(Completion, CompleteSubmatrixRejectsGaps) {
  PartialBandwidthMatrix m(3);
  m.set(0, 1, 10.0);
  const std::vector<NodeId> subset = {0, 1, 2};  // pair (0,2) missing
  EXPECT_THROW(complete_submatrix(m, subset), ContractViolation);
}

TEST(Completion, LoadPartialCsvTreatsNonPositiveAsMissing) {
  const testutil::TempDir tmp;
  const auto& dir = tmp.path();
  {
    std::ofstream os(dir / "raw.csv");
    os << "0,40,0\n60,0,10\n0,12,0\n";
  }
  const PartialBandwidthMatrix raw =
      load_partial_bandwidth_csv((dir / "raw.csv").string());
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_DOUBLE_EQ(raw.at(0, 1).value(), 50.0);   // both directions: average
  EXPECT_FALSE(raw.at(0, 2).has_value());         // neither measured
  EXPECT_DOUBLE_EQ(raw.at(1, 2).value(), 11.0);   // both: average
}

TEST(Completion, LoadPartialCsvSingleDirection) {
  const testutil::TempDir tmp;
  const auto& dir = tmp.path();
  {
    std::ofstream os(dir / "raw.csv");
    os << "0,25\n0,0\n";  // only forward measured
  }
  const PartialBandwidthMatrix raw =
      load_partial_bandwidth_csv((dir / "raw.csv").string());
  EXPECT_DOUBLE_EQ(raw.at(0, 1).value(), 25.0);
}

TEST(Completion, LoadPartialCsvRejectsNonSquare) {
  const testutil::TempDir tmp;
  const auto& dir = tmp.path();
  {
    std::ofstream os(dir / "raw.csv");
    os << "0,1,2\n1,0,3\n";
  }
  EXPECT_THROW(load_partial_bandwidth_csv((dir / "raw.csv").string()),
               std::runtime_error);
}

TEST(Completion, PipelineEndToEnd) {
  // Raw incomplete trace -> complete submatrix -> usable dataset, exactly
  // the paper's preprocessing sequence.
  Rng data_rng(11);
  SynthOptions options;
  options.hosts = 80;
  const SynthDataset data = synthesize_planetlab(options, data_rng);
  Rng mask_rng(12);
  const auto masked = mask_measurements(data.bandwidth, 0.15, mask_rng);
  const auto subset = extract_complete_subset(masked);
  ASSERT_GE(subset.size(), 10u);
  const BandwidthMatrix usable = complete_submatrix(masked, subset);
  const DistanceMatrix d = rational_transform(usable);
  EXPECT_EQ(d.size(), subset.size());
  EXPECT_GT(d.min_distance(), 0.0);
}

}  // namespace
}  // namespace bcc

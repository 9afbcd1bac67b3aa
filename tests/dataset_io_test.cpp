#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "test_util.h"

namespace bcc {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }
  void write_file(const std::string& name, const std::string& content) {
    std::ofstream os(path(name));
    os << content;
  }

  const testutil::TempDir dir_;
};

TEST_F(DatasetIoTest, BandwidthRoundTrip) {
  Rng rng(1);
  SynthOptions options;
  options.hosts = 15;
  const SynthDataset data = synthesize_planetlab(options, rng);
  save_bandwidth_csv(path("bw.csv"), data.bandwidth);
  const BandwidthMatrix loaded = load_bandwidth_csv(path("bw.csv"));
  ASSERT_EQ(loaded.size(), 15u);
  for (NodeId u = 0; u < 15; ++u) {
    for (NodeId v = u + 1; v < 15; ++v) {
      EXPECT_NEAR(loaded.at(u, v), data.bandwidth.at(u, v), 1e-9);
    }
  }
}

TEST_F(DatasetIoTest, AsymmetricMatrixSymmetrizedOnLoad) {
  write_file("asym.csv", "0,40,10\n60,0,20\n10,20,0\n");
  const BandwidthMatrix bw = load_bandwidth_csv(path("asym.csv"));
  EXPECT_DOUBLE_EQ(bw.at(0, 1), 50.0);  // (40 + 60) / 2
  EXPECT_DOUBLE_EQ(bw.at(0, 2), 10.0);
}

TEST_F(DatasetIoTest, RejectsNonSquare) {
  write_file("bad.csv", "0,1,2\n1,0,3\n");
  EXPECT_THROW(load_bandwidth_csv(path("bad.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, RejectsNonZeroDiagonal) {
  write_file("diag.csv", "5,1\n1,0\n");
  EXPECT_THROW(load_bandwidth_csv(path("diag.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, RejectsNonPositiveBandwidth) {
  write_file("neg.csv", "0,-1\n-1,0\n");
  EXPECT_THROW(load_bandwidth_csv(path("neg.csv")), std::runtime_error);
  write_file("zero.csv", "0,0\n0,0\n");
  EXPECT_THROW(load_bandwidth_csv(path("zero.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, RejectsEmpty) {
  write_file("empty.csv", "# nothing here\n");
  EXPECT_THROW(load_bandwidth_csv(path("empty.csv")), std::runtime_error);
}

TEST_F(DatasetIoTest, DatasetRoundTripWithTree) {
  Rng rng(2);
  SynthOptions options;
  options.hosts = 12;
  options.name = "round";
  const SynthDataset data = synthesize_planetlab(options, rng);
  save_dataset(data, dir_.path().string());
  const SynthDataset loaded = load_dataset("round", dir_.path().string(), data.c);
  ASSERT_EQ(loaded.bandwidth.size(), 12u);
  ASSERT_EQ(loaded.tree_distances.size(), 12u);
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) {
      EXPECT_NEAR(loaded.bandwidth.at(u, v), data.bandwidth.at(u, v), 1e-9);
      EXPECT_NEAR(loaded.distances.at(u, v), data.distances.at(u, v), 1e-9);
      EXPECT_NEAR(loaded.tree_distances.at(u, v),
                  data.tree_distances.at(u, v), 1e-9);
    }
  }
}

TEST_F(DatasetIoTest, DatasetLoadsWithoutTreeFile) {
  Rng rng(3);
  SynthOptions options;
  options.hosts = 8;
  options.name = "notree";
  const SynthDataset data = synthesize_planetlab(options, rng);
  save_bandwidth_csv(path("notree.bw.csv"), data.bandwidth);
  const SynthDataset loaded = load_dataset("notree", dir_.path().string());
  EXPECT_EQ(loaded.bandwidth.size(), 8u);
  EXPECT_EQ(loaded.tree_distances.size(), 0u);
}

TEST_F(DatasetIoTest, MissingDatasetThrows) {
  EXPECT_THROW(load_dataset("ghost", dir_.path().string()), std::runtime_error);
}

}  // namespace
}  // namespace bcc

#include "tree/serialization.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/system.h"
#include "test_util.h"

namespace bcc {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const { return dir_.file(name); }
  void write_file(const std::string& name, const std::string& content) {
    std::ofstream os(path(name));
    os << content;
  }

  const testutil::TempDir dir_;
};

TEST_F(SerializationTest, RoundTripPreservesEverything) {
  for (double sigma : {0.0, 0.3}) {
    Rng rng(1);
    const DistanceMatrix real =
        sigma == 0.0 ? testutil::random_tree_metric(25, rng)
                     : testutil::noisy_tree_metric(25, rng, sigma);
    Rng order(2);
    const Framework fw = build_framework(real, order);
    save_framework(fw, path("fw.txt"));
    const Framework loaded = load_framework(path("fw.txt"));

    ASSERT_EQ(loaded.prediction.host_count(), 25u);
    // Exact same predicted distances.
    for (NodeId u = 0; u < 25; ++u) {
      for (NodeId v = u + 1; v < 25; ++v) {
        EXPECT_NEAR(loaded.prediction.distance(u, v),
                    fw.prediction.distance(u, v), 1e-9)
            << "pair (" << u << "," << v << ") sigma=" << sigma;
      }
    }
    // Exact same overlay.
    for (NodeId h = 0; h < 25; ++h) {
      EXPECT_EQ(loaded.anchors.parent_of(h), fw.anchors.parent_of(h));
    }
    EXPECT_TRUE(loaded.prediction.check_invariants());
  }
}

TEST_F(SerializationTest, SingleHostFramework) {
  Framework fw;
  fw.prediction.add_first(7);
  fw.anchors.set_root(7);
  save_framework(fw, path("one.txt"));
  const Framework loaded = load_framework(path("one.txt"));
  EXPECT_EQ(loaded.prediction.host_count(), 1u);
  EXPECT_EQ(loaded.anchors.root(), 7u);
}

TEST_F(SerializationTest, CommentsAreAccepted) {
  Framework fw;
  fw.prediction.add_first(0);
  fw.anchors.set_root(0);
  fw.prediction.add_second(1, 5.0);
  fw.anchors.add_child(0, 1);
  save_framework(fw, path("c.txt"));
  // Prepend a comment line.
  std::ifstream is(path("c.txt"));
  std::string body((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  write_file("c2.txt", "# snapshot from test\n" + body);
  const Framework loaded = load_framework(path("c2.txt"));
  EXPECT_DOUBLE_EQ(loaded.prediction.distance(0, 1), 5.0);
}

TEST_F(SerializationTest, RejectsBadMagic) {
  write_file("bad.txt", "not-a-framework\n1\n0 -1 0 0\n");
  EXPECT_THROW(load_framework(path("bad.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsTruncatedRecords) {
  write_file("trunc.txt", "bcc-framework v1\n3\n0 -1 0 0\n1 0 0 5\n");
  EXPECT_THROW(load_framework(path("trunc.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsChildBeforeAnchor) {
  write_file("order.txt",
             "bcc-framework v1\n3\n0 -1 0 0\n2 1 0 3\n1 0 0 5\n");
  EXPECT_THROW(load_framework(path("order.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsRootWithAnchor) {
  write_file("root.txt", "bcc-framework v1\n1\n0 5 0 0\n");
  EXPECT_THROW(load_framework(path("root.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsMissingFile) {
  EXPECT_THROW(load_framework(path("ghost.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsEmptyAndHeaderOnlyFiles) {
  write_file("empty.txt", "");
  EXPECT_THROW(load_framework(path("empty.txt")), std::runtime_error);
  write_file("only_comments.txt", "# nothing\n# here\n");
  EXPECT_THROW(load_framework(path("only_comments.txt")), std::runtime_error);
  // Magic present but the host count is missing entirely.
  write_file("no_count.txt", "bcc-framework v1\n");
  EXPECT_THROW(load_framework(path("no_count.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsMalformedHostCount) {
  write_file("count.txt", "bcc-framework v1\nmany\n0 -1 0 0\n");
  EXPECT_THROW(load_framework(path("count.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsMalformedRecordFields) {
  // Non-numeric anchor field.
  write_file("fields.txt", "bcc-framework v1\n2\n0 -1 0 0\n1 x 0 5\n");
  EXPECT_THROW(load_framework(path("fields.txt")), std::runtime_error);
  // Negative host id.
  write_file("neghost.txt", "bcc-framework v1\n1\n-3 -1 0 0\n");
  EXPECT_THROW(load_framework(path("neghost.txt")), std::runtime_error);
  // Too few fields on a record line.
  write_file("short.txt", "bcc-framework v1\n2\n0 -1 0 0\n1 0 0\n");
  EXPECT_THROW(load_framework(path("short.txt")), std::runtime_error);
}

TEST_F(SerializationTest, RejectsDuplicateHost) {
  // Restoring host 0 twice violates the prediction-tree contract; the
  // loader must surface it as a malformed-file error, not a crash.
  write_file("dup.txt", "bcc-framework v1\n2\n0 -1 0 0\n0 0 0 5\n");
  EXPECT_THROW(load_framework(path("dup.txt")), std::runtime_error);
}

TEST_F(SerializationTest, ErrorsNameTheOffendingFile) {
  write_file("named.txt", "bcc-framework v1\nmany\n");
  try {
    load_framework(path("named.txt"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("named.txt"), std::string::npos);
  }
}

TEST_F(SerializationTest, SaveToUnwritablePathThrows) {
  Framework fw;
  fw.prediction.add_first(0);
  fw.anchors.set_root(0);
  const std::string bad = path("no_such_dir") + "/fw.txt";
  EXPECT_THROW(save_framework(fw, bad), std::runtime_error);
  // Nothing was left behind.
  EXPECT_FALSE(std::filesystem::exists(bad));
}

TEST_F(SerializationTest, LoadedFrameworkServesQueries) {
  // End-to-end: snapshot -> reload -> decentralized system answers as before.
  Rng rng(3);
  const DistanceMatrix real = testutil::random_tree_metric(20, rng);
  Rng order(4);
  const Framework fw = build_framework(real, order);
  save_framework(fw, path("sys.txt"));
  const Framework loaded = load_framework(path("sys.txt"));

  const DistanceMatrix pred = loaded.predicted_distances();
  const double dmax = pred.max_distance();
  BandwidthClasses classes({kDefaultTransformC / dmax});
  DecentralizedClusterSystem sys(loaded.anchors, pred, classes, {});
  sys.run_to_convergence();
  const auto r = sys.query(QueryRequest::at_class(0, 5, 0));
  EXPECT_TRUE(r.found());
}

}  // namespace
}  // namespace bcc

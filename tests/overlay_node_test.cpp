#include "core/overlay_node.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

TEST(OverlayNode, ClusteringSpaceIncludesSelf) {
  OverlayNode n;
  n.id = 7;
  EXPECT_EQ(n.clustering_space(), (std::vector<NodeId>{7}));
}

TEST(OverlayNode, ClusteringSpaceUnionsAllDirections) {
  OverlayNode n;
  n.id = 0;
  n.neighbors = {1, 2};
  n.aggr_node[1] = {3, 4};
  n.aggr_node[2] = {5};
  const auto space = n.clustering_space();
  EXPECT_EQ(space, (std::vector<NodeId>{0, 3, 4, 5}));
}

TEST(OverlayNode, ClusteringSpaceDeduplicates) {
  OverlayNode n;
  n.id = 0;
  n.aggr_node[1] = {3, 4, 5};
  n.aggr_node[2] = {4, 5, 6};
  const auto space = n.clustering_space();
  EXPECT_EQ(space, (std::vector<NodeId>{0, 3, 4, 5, 6}));
}

TEST(OverlayNode, ClusteringSpaceIsSortedDeterministic) {
  OverlayNode n;
  n.id = 9;
  n.aggr_node[1] = {12, 2};
  n.aggr_node[5] = {7, 30};
  const auto space = n.clustering_space();
  for (std::size_t i = 0; i + 1 < space.size(); ++i) {
    EXPECT_LT(space[i], space[i + 1]);
  }
}

TEST(OverlayNode, ResyncNeighborsPrunesDroppedDirectionsKeepsSelf) {
  OverlayNode n;
  n.id = 0;
  n.neighbors = {1, 2, 3};
  n.aggr_node = {{1, {4}}, {2, {5}}, {3, {6}}};
  n.aggr_crt = {{0, {1}}, {1, {2}}, {2, {3}}, {3, {4}}};
  EXPECT_TRUE(n.resync_neighbors({3, 7, 1}));
  EXPECT_EQ(n.neighbors, (std::vector<NodeId>{3, 7, 1}));
  // Direction 2 is gone from both tables; the new neighbor 7 has no entry
  // until its first message; the self CRT entry stays.
  EXPECT_EQ(n.aggr_node.size(), 2u);
  EXPECT_TRUE(n.aggr_node.count(1) && n.aggr_node.count(3));
  EXPECT_EQ(n.aggr_crt.size(), 3u);
  EXPECT_TRUE(n.aggr_crt.count(0) && n.aggr_crt.count(1) &&
              n.aggr_crt.count(3));
}

TEST(OverlayNode, ResyncNeighborsReportsAnUnchangedSetInAnyOrder) {
  OverlayNode n;
  n.id = 5;
  n.neighbors = {1, 2};
  n.aggr_node = {{1, {3}}, {2, {4}}};
  n.aggr_crt = {{5, {1}}, {1, {1}}, {2, {2}}};
  const std::string before = canonical_node_state(5, n);
  EXPECT_FALSE(n.resync_neighbors({2, 1}));
  EXPECT_EQ(n.neighbors, (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(canonical_node_state(5, n), before);
}

}  // namespace
}  // namespace bcc

// Umbrella-header completeness: bcc.h alone must expose the whole public
// surface. One smoke statement per module keeps the header honest as the
// library grows.
#include "bcc.h"

#include <gtest/gtest.h>

namespace bcc {
namespace {

TEST(Umbrella, EveryModuleIsReachableThroughBccH) {
  // common
  Rng rng(1);
  (void)rng.uniform();
  TablePrinter table({"x"});
  table.add_row({"1"});
  // metric
  DistanceMatrix d(3, 2.0);
  EXPECT_TRUE(quartet_satisfies_4pc(DistanceMatrix(4, 1.0), 0, 1, 2, 3));
  BandwidthMatrix bw(3, 10.0);
  EXPECT_GT(rational_transform(bw).at(0, 1), 0.0);
  // tree
  PredictionTree pt;
  pt.add_first(0);
  AnchorTree at;
  at.set_root(0);
  // data
  SynthOptions synth;
  synth.hosts = 10;
  const SynthDataset data = synthesize_planetlab(synth, rng);
  LatencyOptions lat;
  lat.hosts = 5;
  (void)synthesize_latency(lat, rng);
  PartialBandwidthMatrix partial(3);
  (void)partial.total_missing();
  BandwidthDynamics dynamics(data, {}, 2);
  (void)dynamics.epoch();
  // core
  EXPECT_TRUE(find_cluster(data.distances, 2,
                           data.distances.max_distance())
                  .has_value());
  BandwidthClasses classes({10.0, 50.0});
  (void)classes.size();
  std::vector<NodeId> universe = {0, 1, 2};
  (void)partition_into_clusters(data.distances, universe, 1e9);
  (void)find_cluster_exhaustive(data.distances, universe, 2, 1e9);
  const std::vector<NodeId> targets = {0};
  (void)find_best_node(data.distances, universe, targets);
  // vivaldi / euclid
  Vivaldi vivaldi(4, rng, {});
  (void)vivaldi.distance(0, 1);
  std::vector<Point2> points = {{0, 0}, {1, 0}, {0, 1}};
  EXPECT_TRUE(find_cluster_euclidean(points, 2, 5.0).has_value());
  // sim
  EventEngine events;
  events.schedule_after(1.0, [] {});
  EXPECT_EQ(events.run(), 1u);
  // stats
  const std::vector<double> values = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(median(values), 2.0);
  (void)bootstrap_mean_ci(values, rng);
  WprAccumulator wpr;
  (void)wpr.rate();
  // workload
  WorkflowOptions wf_options;
  wf_options.stages = 2;
  wf_options.tasks_per_stage = 2;
  const Workflow wf = Workflow::cybershake_like(wf_options, rng);
  const std::vector<NodeId> hosts = {0, 1};
  (void)estimate_makespan(wf, round_robin_assign(wf, hosts),
                          BandwidthMatrix(2, 10.0));
  // maintenance + serialization types exist
  FrameworkMaintainer maintainer(&data.distances);
  maintainer.join(0);
  EXPECT_EQ(maintainer.size(), 1u);
}

}  // namespace
}  // namespace bcc

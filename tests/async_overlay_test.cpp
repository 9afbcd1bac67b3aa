#include "core/async_overlay.h"

#include <gtest/gtest.h>

#include "core/system.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

struct AsyncSetup {
  Framework fw;
  DistanceMatrix predicted;
  BandwidthClasses classes = BandwidthClasses({1.0});
};

AsyncSetup make_setup(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order(seed + 5);
  AsyncSetup s{build_framework(real, order), {}, BandwidthClasses({1.0})};
  s.predicted = s.fw.predicted_distances();
  const double dmax = s.predicted.max_distance();
  const double c = kDefaultTransformC;
  s.classes = BandwidthClasses(
      {c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
  return s;
}

TEST(AsyncOverlay, ReachesTheSynchronousFixpoint) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    AsyncSetup s = make_setup(18, seed);
    const std::size_t n_cut = 5;

    // Synchronous reference.
    SystemOptions sync_options;
    sync_options.n_cut = n_cut;
    DecentralizedClusterSystem sync(s.fw.anchors, s.predicted, s.classes,
                                    sync_options);
    sync.run_to_convergence();
    ASSERT_TRUE(sync.converged());

    // Asynchronous run: enough simulated time for diameter-many periods.
    AsyncOverlayOptions async_options;
    async_options.n_cut = n_cut;
    async_options.gossip_period = 1.0;
    async_options.message_latency = 0.03;
    AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, async_options,
                       seed + 77);
    EventEngine engine;
    async.run_for(engine, 4.0 * (s.fw.anchors.diameter() + 2));

    for (NodeId x : s.fw.anchors.bfs_order()) {
      EXPECT_EQ(canonical_node_state(x, async.nodes().at(x)),
                canonical_node_state(x, sync.node(x)))
          << "seed=" << seed;
    }
  }
}

TEST(AsyncOverlay, QuiescesAfterConvergence) {
  AsyncSetup s = make_setup(14, 3);
  AsyncOverlayOptions options;
  options.n_cut = 4;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 9);
  EventEngine engine;
  const double horizon = 4.0 * (s.fw.anchors.diameter() + 2);
  async.run_for(engine, horizon);
  const SimTime settled = async.last_change();
  EXPECT_LT(settled, horizon);  // converged well before the end
  // Further simulation changes nothing.
  async.run_for(engine, 10.0);
  EXPECT_DOUBLE_EQ(async.last_change(), settled);
}

TEST(AsyncOverlay, GossipKeepsFiringAndIsCounted) {
  AsyncSetup s = make_setup(10, 4);
  AsyncOverlayOptions options;
  options.gossip_period = 0.5;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 10);
  EventEngine engine;
  async.run_for(engine, 5.0);
  // ~10 nodes x 10 periods.
  EXPECT_GT(async.gossip_rounds(), 60u);
  EXPECT_GT(engine.metrics().messages("async_gossip"), 100u);
}

TEST(AsyncOverlay, PerPairRttLatencies) {
  AsyncSetup s = make_setup(12, 5);
  DistanceMatrix rtt(12, 0.0);
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) rtt.set(u, v, 20.0);  // 20 ms
  }
  AsyncOverlayOptions options;
  options.rtt_ms = &rtt;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 11);
  EventEngine engine;
  async.run_for(engine, 3.0 * (s.fw.anchors.diameter() + 2));
  // It still converges to a consistent state (self entries exist).
  for (const auto& [x, node] : async.nodes()) {
    EXPECT_TRUE(node.aggr_crt.count(x));
  }
}

TEST(AsyncOverlay, QueriesWorkOnAsyncState) {
  // Algorithm 4 runs on whatever tables aggregation produced — async state
  // serves queries just like sync state.
  AsyncSetup s = make_setup(16, 6);
  AsyncOverlayOptions options;
  options.n_cut = 100;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 12);
  EventEngine engine;
  async.run_for(engine, 4.0 * (s.fw.anchors.diameter() + 2));
  QueryProcessor processor(async.nodes(), s.predicted, s.classes);
  const auto r = processor.run(QueryRequest::at_class(0, 4, 0));
  EXPECT_TRUE(r.found());
  EXPECT_TRUE(cluster_satisfies(s.predicted, r.cluster, 4,
                                s.classes.distance_at(0)));
}

// Every node's canonical_node_state must be string-equal to the synchronous
// fixpoint over s.predicted (both runs call the shared kernels, so equality
// is exact), and no other node may be hosted.
void expect_sync_fixpoint(const AsyncOverlay& async, const AsyncSetup& s,
                          std::size_t n_cut, const char* context) {
  SystemOptions sync_options;
  sync_options.n_cut = n_cut;
  DecentralizedClusterSystem sync(s.fw.anchors, s.predicted, s.classes,
                                  sync_options);
  sync.run_to_convergence();
  ASSERT_TRUE(sync.converged());
  EXPECT_EQ(async.nodes().size(), s.fw.anchors.size()) << context;
  for (NodeId x : s.fw.anchors.bfs_order()) {
    EXPECT_EQ(canonical_node_state(x, async.nodes().at(x)),
              canonical_node_state(x, sync.node(x)))
        << context;
  }
}

TEST(AsyncOverlay, ConvergesUnderTenPercentLoss) {
  AsyncSetup s = make_setup(16, 21);
  FaultPlan plan(99);
  plan.set_default_faults({.drop_prob = 0.1, .jitter_max = 0.02});
  AsyncOverlayOptions options;
  options.n_cut = 5;
  options.faults = &plan;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 22);
  EventEngine engine;
  async.run_for(engine, 8.0 * (s.fw.anchors.diameter() + 2));
  expect_sync_fixpoint(async, s, 5, "10% loss");
  EXPECT_GT(engine.metrics().dropped(), 0u);
}

TEST(AsyncOverlay, SelfEntriesFollowAMatrixRewrittenInPlace) {
  // The overlay reads s.predicted through a pointer; rewriting it between
  // rounds, with no call into the overlay, must still land every node on
  // the sync fixpoint over the new matrix. Uniform scaling keeps every
  // distance order, so the clustering spaces stay put while the per-class
  // cluster sizes move: only the distances in the memo key can notice.
  AsyncSetup s = make_setup(16, 29);
  AsyncOverlayOptions options;
  options.n_cut = 5;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 30);
  EventEngine engine;
  const double horizon = 4.0 * (s.fw.anchors.diameter() + 2);
  async.run_for(engine, horizon);
  expect_sync_fixpoint(async, s, options.n_cut, "before rewrite");
  const std::string before = canonical_node_state(
      s.fw.anchors.bfs_order()[0],
      async.nodes().at(s.fw.anchors.bfs_order()[0]));
  for (double scale : {0.45, 1.7}) {
    for (NodeId u = 0; u < s.predicted.size(); ++u) {
      for (NodeId v = u + 1; v < s.predicted.size(); ++v) {
        s.predicted.set(u, v, s.predicted.at(u, v) * scale);
      }
    }
    async.run_for(engine, horizon);
    expect_sync_fixpoint(async, s, options.n_cut, "after rewrite");
  }
  // The rewrites did move the tables (0.45 * 1.7 != 1).
  EXPECT_NE(canonical_node_state(s.fw.anchors.bfs_order()[0],
                                 async.nodes().at(s.fw.anchors.bfs_order()[0])),
            before);
}

TEST(AsyncOverlay, TotalLinkLossTriggersRetriesThenSuspicionThenHeals) {
  AsyncSetup s = make_setup(12, 23);
  // Sever one tree edge completely for a while.
  const NodeId parent = s.fw.anchors.bfs_order()[0];
  const NodeId child = s.fw.anchors.neighbors_of(parent)[0];
  FaultPlan plan(5);
  plan.add_partition({parent}, {child}, /*from=*/0.0, /*until=*/30.0);
  AsyncOverlayOptions options;
  options.faults = &plan;
  options.gossip_period = 1.0;
  options.ack_timeout = 0.3;
  options.max_retries = 1;
  options.suspect_after = 2;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 24);
  EventEngine engine;
  async.run_for(engine, 30.0);
  // Every exchange across the cut timed out: retries happened, and after
  // enough consecutive failures both endpoints suspect each other.
  EXPECT_GT(engine.metrics().retried(), 0u);
  EXPECT_GE(engine.metrics().suspected(), 2u);
  EXPECT_TRUE(async.suspects(parent, child));
  EXPECT_TRUE(async.suspects(child, parent));
  EXPECT_FALSE(async.healthy());
  // The partition lifts; the first acked exchange redeems the link.
  async.run_for(engine, 20.0);
  EXPECT_FALSE(async.suspects(parent, child));
  EXPECT_FALSE(async.suspects(child, parent));
  EXPECT_TRUE(async.healthy());
  expect_sync_fixpoint(async, s, options.n_cut, "healed partition");
}

TEST(AsyncOverlay, CrashWipesStateAndRecoveryRefillsIt) {
  AsyncSetup s = make_setup(14, 25);
  AsyncOverlayOptions options;
  options.n_cut = 4;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 26);
  EventEngine engine;
  const double horizon = 4.0 * (s.fw.anchors.diameter() + 2);
  async.run_for(engine, horizon);
  const NodeId victim = s.fw.anchors.bfs_order()[1];
  async.crash(victim);
  EXPECT_TRUE(async.is_down(victim));
  EXPECT_EQ(async.down_count(), 1u);
  EXPECT_FALSE(async.healthy());
  EXPECT_TRUE(async.nodes().at(victim).aggr_crt.empty());  // cold crash
  // While down, the overlay keeps running but the victim stays silent.
  async.run_for(engine, 5.0);
  EXPECT_TRUE(async.nodes().at(victim).aggr_crt.empty());
  async.recover(victim);
  EXPECT_FALSE(async.is_down(victim));
  async.run_for(engine, horizon);
  EXPECT_TRUE(async.healthy());
  expect_sync_fixpoint(async, s, 4, "after crash/recover");
}

TEST(AsyncOverlay, FaultPlanCrashScheduleStopsTimers) {
  AsyncSetup s = make_setup(10, 27);
  const NodeId victim = s.fw.anchors.bfs_order()[2];
  FaultPlan plan(5);
  plan.add_crash(victim, /*down_at=*/2.0, /*up_at=*/10.0);
  AsyncOverlayOptions options;
  options.faults = &plan;
  options.gossip_period = 1.0;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 28);
  EventEngine engine;
  async.start(engine);
  engine.run_until(5.0);
  EXPECT_TRUE(async.is_down(victim));
  const std::size_t rounds_while_down = async.gossip_rounds();
  engine.run_until(9.0);
  // Other nodes gossip on, but timer cancellation keeps the victim quiet —
  // rounds grew only by the survivors' firings (victim contributes none:
  // its table stays empty the whole window).
  EXPECT_GT(async.gossip_rounds(), rounds_while_down);
  EXPECT_TRUE(async.nodes().at(victim).aggr_crt.empty());
  engine.run_until(12.0);
  EXPECT_FALSE(async.is_down(victim));
  async.run_for(engine, 6.0 * (s.fw.anchors.diameter() + 2));
  expect_sync_fixpoint(async, s, options.n_cut, "scheduled crash");
}

TEST(AsyncOverlay, Validation) {
  AsyncSetup s = make_setup(8, 7);
  AsyncOverlayOptions bad;
  bad.gossip_period = 0.0;
  EXPECT_THROW(AsyncOverlay(&s.fw.anchors, &s.predicted, &s.classes, bad, 1),
               ContractViolation);
  bad = AsyncOverlayOptions{};
  bad.period_jitter = 1.0;
  EXPECT_THROW(AsyncOverlay(&s.fw.anchors, &s.predicted, &s.classes, bad, 1),
               ContractViolation);
  DistanceMatrix wrong(3);
  bad = AsyncOverlayOptions{};
  bad.rtt_ms = &wrong;
  EXPECT_THROW(AsyncOverlay(&s.fw.anchors, &s.predicted, &s.classes, bad, 1),
               ContractViolation);
  AsyncOverlay ok(&s.fw.anchors, &s.predicted, &s.classes, {}, 1);
  EventEngine engine;
  ok.start(engine);
  EXPECT_THROW(ok.start(engine), ContractViolation);  // double start
}

}  // namespace
}  // namespace bcc

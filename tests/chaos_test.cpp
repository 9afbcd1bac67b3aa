// Chaos suite (ctest label: chaos): randomized fault sweeps asserting the
// resilient gossip stack converges to the synchronous ground truth under
// message loss, crash/recover schedules, and membership churn — and that
// serving degrades gracefully (flagged, well-formed results) instead of
// crashing or silently lying while the network is disrupted.
//
// Sweep sizes scale with the environment for nightly runs:
//   BCC_CHAOS_SEEDS  — seeds per configuration (default 2)
//   BCC_CHAOS_N      — overlay size for the sweeps (default 14)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

#include "core/churn.h"
#include "core/convergence_probe.h"
#include "core/system.h"
#include "obs/export.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

std::size_t chaos_seeds() { return env_or("BCC_CHAOS_SEEDS", 2); }
std::size_t chaos_n() { return env_or("BCC_CHAOS_N", 14); }

struct ChaosSetup {
  Framework fw;
  DistanceMatrix predicted;
  BandwidthClasses classes = BandwidthClasses({1.0});
};

ChaosSetup make_setup(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order(seed + 5);
  ChaosSetup s{build_framework(real, order), {}, BandwidthClasses({1.0})};
  s.predicted = s.fw.predicted_distances();
  const double dmax = s.predicted.max_distance();
  const double c = kDefaultTransformC;
  s.classes =
      BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
  return s;
}

BandwidthClasses classes_for(const DistanceMatrix& predicted) {
  const double dmax = predicted.max_distance();
  const double c = kDefaultTransformC;
  return BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
}

/// Asserts the async overlay hosts exactly the tree's members and that each
/// member's canonical_node_state is string-equal to the synchronous fixpoint
/// over the same (tree, predicted, classes) triple — exact equality, since
/// both paths call the shared kernels, and strict: a stray table entry for a
/// direction the tree does not have fails it.
void expect_ground_truth(const AsyncOverlay& async, const AnchorTree& tree,
                         const DistanceMatrix& predicted,
                         const BandwidthClasses& classes, std::size_t n_cut,
                         const std::string& context) {
  SystemOptions sync_options;
  sync_options.n_cut = n_cut;
  DecentralizedClusterSystem sync(tree, predicted, classes, sync_options);
  sync.run_to_convergence();
  ASSERT_TRUE(sync.converged()) << context;
  EXPECT_EQ(async.nodes().size(), tree.size()) << context;
  for (NodeId x : tree.bfs_order()) {
    ASSERT_TRUE(async.nodes().count(x)) << context << " missing x=" << x;
    EXPECT_EQ(canonical_node_state(x, async.nodes().at(x)),
              canonical_node_state(x, sync.node(x)))
        << context;
  }
}

TEST(Chaos, DropSweepReachesGroundTruth) {
  const std::size_t n = chaos_n();
  for (double drop : {0.0, 0.1, 0.3}) {
    for (std::uint64_t seed = 1; seed <= chaos_seeds(); ++seed) {
      ChaosSetup s = make_setup(n, seed);
      FaultPlan plan(seed * 1000 + 7);
      plan.set_default_faults({.drop_prob = drop,
                               .duplicate_prob = 0.05,
                               .jitter_max = 0.02});
      AsyncOverlayOptions options;
      options.n_cut = 5;
      options.faults = &plan;
      AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options,
                         seed + 400);
      EventEngine engine;
      // Generous horizon: the lossier the link, the more periods a table
      // entry may need to cross it (retries are capped, periods are not).
      async.run_for(engine,
                    (8.0 + 24.0 * drop) * (s.fw.anchors.diameter() + 2));
      std::ostringstream context;
      context << "drop=" << drop << " seed=" << seed;
      expect_ground_truth(async, s.fw.anchors, s.predicted, s.classes,
                          options.n_cut, context.str());
      if (drop > 0.0) {
        EXPECT_GT(engine.metrics().dropped(), 0u);
      }
    }
  }
}

TEST(Chaos, CrashRecoverScheduleReachesGroundTruth) {
  const std::size_t n = std::max<std::size_t>(chaos_n(), 14);
  for (std::uint64_t seed = 1; seed <= chaos_seeds(); ++seed) {
    ChaosSetup s = make_setup(n, seed + 50);
    FaultPlan plan(seed * 31 + 5);
    plan.set_default_faults({.drop_prob = 0.1});
    // <= 10% of nodes crash and later recover, at staggered windows.
    const std::size_t crashers = std::max<std::size_t>(1, n / 10);
    const auto order = s.fw.anchors.bfs_order();
    for (std::size_t i = 0; i < crashers; ++i) {
      plan.add_crash(order[1 + i], /*down_at=*/4.0 + 2.0 * i,
                     /*up_at=*/12.0 + 2.0 * i);
    }
    AsyncOverlayOptions options;
    options.n_cut = 5;
    options.faults = &plan;
    AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options,
                       seed + 900);
    EventEngine engine;
    async.run_for(engine, 20.0 + 10.0 * (s.fw.anchors.diameter() + 2));
    EXPECT_EQ(async.down_count(), 0u);  // everyone recovered
    std::ostringstream context;
    context << "crash/recover seed=" << seed;
    expect_ground_truth(async, s.fw.anchors, s.predicted, s.classes,
                        options.n_cut, context.str());
  }
}

TEST(Chaos, ChurnReconvergesOnSurvivors) {
  // Perfect tree metric: the measurement matrix itself is the (churn-stable)
  // predicted matrix, and maintenance keeps every alive pair exactly
  // embedded — so after any join/leave sequence the synchronous system over
  // the repaired tree is the exact ground truth for the survivors.
  const std::size_t universe = 22;
  for (std::uint64_t seed = 1; seed <= chaos_seeds(); ++seed) {
    Rng rng(seed + 300);
    const DistanceMatrix real = testutil::random_tree_metric(universe, rng);
    const BandwidthClasses classes = classes_for(real);
    FrameworkMaintainer maintainer(&real);
    for (NodeId h = 0; h < universe - 4; ++h) maintainer.join(h);

    AsyncOverlayOptions options;
    options.n_cut = 5;
    options.gossip_period = 1.0;
    AsyncOverlay async(&maintainer.anchors(), &real, &classes, options,
                       seed + 60);
    EventEngine engine;
    async.start(engine);
    ChurnDriver churn(&maintainer, &async);
    const NodeId mid = maintainer.alive()[maintainer.alive().size() / 2];
    churn.schedule(engine,
                   {ChurnEvent::leave(2.0, 3),
                    ChurnEvent::join(3.5, universe - 4),
                    ChurnEvent::leave(5.0, mid == 3 ? 4 : mid),
                    ChurnEvent::join(6.5, universe - 3),
                    ChurnEvent::join(8.0, 3),      // rejoin after leaving
                    ChurnEvent::leave(9.5, 7)});
    engine.run_until(10.0);
    EXPECT_EQ(churn.applied(), 6u);
    // Quiet period: gossip re-converges on the post-churn membership.
    async.run_for(engine, 8.0 * (maintainer.anchors().diameter() + 2));
    std::ostringstream context;
    context << "churn seed=" << seed;
    expect_ground_truth(async, maintainer.anchors(), real, classes,
                        options.n_cut, context.str());
  }
}

TEST(Chaos, ExchangesInFlightAcrossChurnLeaveNoStrayDirections) {
  // Leaves land while exchanges are still in flight; the slower the links,
  // the more of them arrive after the membership resync. A delivery from a
  // departed node or an ex-neighbor must not re-create a table entry, or the
  // stray direction stays in the receiver's clustering space for good.
  const std::size_t hosts = 16;
  for (double latency : {0.05, 0.3}) {
    for (std::uint64_t seed = 1; seed <= 8 * chaos_seeds(); ++seed) {
      Rng rng(seed + 700);
      const DistanceMatrix real = testutil::random_tree_metric(hosts, rng);
      const BandwidthClasses classes = classes_for(real);
      FrameworkMaintainer maintainer(&real);
      for (NodeId h = 0; h < hosts; ++h) maintainer.join(h);

      AsyncOverlayOptions options;
      options.n_cut = 4;
      options.message_latency = latency;
      AsyncOverlay async(&maintainer.anchors(), &real, &classes, options,
                         seed + 80);
      EventEngine engine;
      async.start(engine);
      ChurnDriver churn(&maintainer, &async);
      std::vector<NodeId> leavers(hosts);
      for (NodeId h = 0; h < hosts; ++h) leavers[h] = h;
      rng.shuffle(leavers);
      std::vector<ChurnEvent> events;
      for (std::size_t i = 0; i < 4; ++i) {
        events.push_back(ChurnEvent::leave(2.1 + 1.3 * i, leavers[i]));
      }
      churn.schedule(engine, events);
      engine.run_until(8.0);
      EXPECT_EQ(churn.applied(), 4u);
      async.run_for(engine, 80.0);  // quiet period

      std::ostringstream context;
      context << "latency=" << latency << " seed=" << seed;
      expect_ground_truth(async, maintainer.anchors(), real, classes,
                          options.n_cut, context.str());
      EXPECT_TRUE(async.healthy()) << context.str();
    }
  }
}

TEST(Chaos, RunsAreDeterministicPerSeed) {
  auto fingerprint = [](std::uint64_t seed) {
    ChaosSetup s = make_setup(12, 77);
    FaultPlan plan(seed);
    plan.set_default_faults({.drop_prob = 0.2,
                             .duplicate_prob = 0.1,
                             .jitter_max = 0.05});
    plan.add_crash(s.fw.anchors.bfs_order()[1], 3.0, 9.0);
    AsyncOverlayOptions options;
    options.faults = &plan;
    AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options,
                       seed + 1);
    EventEngine engine;
    async.run_for(engine, 40.0);
    std::ostringstream out;
    out << engine.metrics().dropped() << '/' << engine.metrics().duplicated()
        << '/' << engine.metrics().retried() << '/'
        << engine.metrics().suspected() << '/' << async.gossip_rounds() << '/'
        << async.last_change();
    std::vector<NodeId> hosts = s.fw.anchors.bfs_order();
    for (NodeId x : hosts) {
      const OverlayNode& node = async.nodes().at(x);
      for (NodeId m : hosts) {
        auto it = node.aggr_node.find(m);
        if (it == node.aggr_node.end()) continue;
        auto sorted = it->second;
        std::sort(sorted.begin(), sorted.end());
        out << '|' << x << ':' << m;
        for (NodeId d : sorted) out << ',' << d;
      }
    }
    return out.str();
  };
  EXPECT_EQ(fingerprint(5), fingerprint(5));
  EXPECT_NE(fingerprint(5), fingerprint(6));
}

TEST(Chaos, ConvergenceMonitorRecordsTimeToConvergenceUnderDrop) {
  // The DropSweep assertion ("eventually matches the fixpoint"), upgraded
  // to a recorded distribution: a ConvergenceProbe + ConvergenceMonitor
  // sample the run on sim time, so time-to-convergence under {0,10,30}%
  // drop lands in bcc.conv.time_to_convergence_ms instead of being a
  // pass/fail afterthought. BCC_CHAOS_CONV_OUT=FILE appends one line per
  // (drop, seed) for offline plotting.
  const std::size_t n = chaos_n();
  const char* out_path = std::getenv("BCC_CHAOS_CONV_OUT");
  std::FILE* out = (out_path && *out_path) ? std::fopen(out_path, "a")
                                           : nullptr;
  for (double drop : {0.0, 0.1, 0.3}) {
    for (std::uint64_t seed = 1; seed <= chaos_seeds(); ++seed) {
      ChaosSetup s = make_setup(n, seed);
      FaultPlan plan(seed * 1000 + 7);
      plan.set_default_faults({.drop_prob = drop,
                               .duplicate_prob = 0.05,
                               .jitter_max = 0.02});
      AsyncOverlayOptions options;
      options.n_cut = 5;
      options.faults = &plan;
      AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options,
                         seed + 400);
      EventEngine engine;
      async.start(engine);
      const double horizon =
          (8.0 + 24.0 * drop) * (s.fw.anchors.diameter() + 2);
      obs::Registry registry;
      ConvergenceProbe probe(&async, &s.fw.anchors, &s.predicted, &s.classes,
                             options.n_cut, &engine);
      obs::ConvergenceMonitor monitor(&registry, probe.sampler());
      ConvergenceProbe::schedule_sampling(engine, monitor, /*period=*/0.5,
                                          horizon);
      async.run_for(engine, horizon);
      monitor.sample();  // verdict at the horizon

      std::ostringstream context;
      context << "drop=" << drop << " seed=" << seed;
      EXPECT_TRUE(monitor.converged()) << context.str();
      EXPECT_GE(monitor.converged_at(), 0.0) << context.str();
      const obs::RegistrySnapshot snap = registry.snapshot();
      const obs::Histogram::Snapshot* ttc =
          snap.histogram("bcc.conv.time_to_convergence_ms");
      ASSERT_NE(ttc, nullptr) << context.str();
      EXPECT_GE(ttc->count, 1u) << context.str();
      const obs::Histogram::Snapshot* per_node =
          snap.histogram("bcc.conv.node_convergence_ms");
      ASSERT_NE(per_node, nullptr) << context.str();
      EXPECT_EQ(per_node->count, s.fw.anchors.bfs_order().size())
          << context.str();
      EXPECT_GT(snap.counter_value("bcc.conv.samples"), 1u) << context.str();
      if (out) {
        std::fprintf(out, "drop=%.2f seed=%llu ttc_ms=%.0f\n", drop,
                     static_cast<unsigned long long>(seed),
                     monitor.converged_at() * 1000.0);
      }
    }
  }
  if (out) std::fclose(out);
}

TEST(Chaos, ThirtyPercentDropStillExportsCausalCrossNodeChain) {
  // The acceptance check for cross-node tracing: under 30% drop (plus dup
  // and jitter), the exported trace must still contain at least one intact
  // causal chain send_exchange --(message)--> recv_exchange -->
  // apply_exchange, with the receive span remote-parented on the sender's
  // span on a DIFFERENT simulated node, and the Chrome export must bind
  // them with flow arrows.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_capacity(1 << 16);
  tracer.enable(obs::SpanCategory::kGossip);

  ChaosSetup s = make_setup(chaos_n(), 21);
  FaultPlan plan(2107);
  plan.set_default_faults({.drop_prob = 0.3,
                           .duplicate_prob = 0.05,
                           .jitter_max = 0.02});
  AsyncOverlayOptions options;
  options.n_cut = 5;
  options.faults = &plan;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 422);
  EventEngine engine;
  async.run_for(engine,
                (8.0 + 24.0 * 0.3) * (s.fw.anchors.diameter() + 2));

  const std::vector<obs::SpanRecord> spans = tracer.snapshot();
  tracer.enable(obs::SpanCategory::kGossip, false);
  tracer.clear();
  tracer.set_capacity(obs::Tracer::kDefaultCapacity);

  std::map<std::uint64_t, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& sp : spans) by_id[sp.id] = &sp;
  std::size_t chains = 0;
  for (const obs::SpanRecord& apply : spans) {
    if (std::string(apply.name) != "apply_exchange") continue;
    auto recv_it = by_id.find(apply.parent);
    if (recv_it == by_id.end()) continue;
    const obs::SpanRecord& recv = *recv_it->second;
    if (std::string(recv.name) != "recv_exchange" || !recv.remote_parent) {
      continue;
    }
    auto send_it = by_id.find(recv.parent);
    if (send_it == by_id.end()) continue;
    const obs::SpanRecord& send = *send_it->second;
    if (std::string(send.name) != "send_exchange") continue;
    // Causal chain: same trace, one network hop, across two distinct nodes,
    // with sim-time ordering send.begin <= recv.begin <= apply.begin.
    EXPECT_EQ(send.trace_id, recv.trace_id);
    EXPECT_EQ(recv.trace_id, apply.trace_id);
    EXPECT_EQ(send.hop + 1, recv.hop);
    EXPECT_NE(send.node, recv.node);
    EXPECT_NE(send.node, obs::kNoSpanNode);
    EXPECT_NE(recv.node, obs::kNoSpanNode);
    EXPECT_LE(send.sim_begin, recv.sim_begin);
    EXPECT_LE(recv.sim_begin, apply.sim_begin);
    ++chains;
  }
  EXPECT_GE(chains, 1u) << "no intact send->recv->apply chain in "
                        << spans.size() << " spans";

  const std::string chrome = obs::chrome_trace_json(spans);
  EXPECT_EQ(chrome.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(chrome.find("\"ph\":\"s\",\"name\":\"causal\""),
            std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\""),
            std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"recv_exchange\""), std::string::npos);
}

TEST(Chaos, DegradedServingIsFlaggedAndWellFormed) {
  ChaosSetup s = make_setup(16, 91);
  AsyncOverlayOptions options;
  options.n_cut = 100;
  AsyncOverlay async(&s.fw.anchors, &s.predicted, &s.classes, options, 92);
  EventEngine engine;
  const double horizon = 4.0 * (s.fw.anchors.diameter() + 2);
  async.run_for(engine, horizon);
  ASSERT_TRUE(async.healthy());

  SystemOptions sync_options;
  sync_options.n_cut = 100;
  DecentralizedClusterSystem sync(s.fw.anchors, s.predicted, s.classes,
                                  sync_options);
  sync.run_to_convergence();
  QueryServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(sync, service_options);

  // Knock two nodes out and serve from a snapshot taken mid-disruption.
  async.crash(s.fw.anchors.bfs_order()[1]);
  async.crash(s.fw.anchors.bfs_order()[2]);
  async.run_for(engine, 2.0);
  ASSERT_FALSE(async.healthy());
  service.refresh(*snapshot_of(async, s.predicted, s.classes,
                               sync_options.find_options));
  for (NodeId start : s.fw.anchors.bfs_order()) {
    const QueryResult r = service.submit(QueryRequest::at_class(start, 4, 0));
    EXPECT_TRUE(r.degraded) << "start=" << start;
    // Degraded answers stay well-formed: a valid status, and any cluster
    // returned has exactly k members satisfying the class in predicted
    // space (Algorithm 1 guarantees that regardless of table completeness).
    if (r.found()) {
      EXPECT_EQ(r.cluster.size(), 4u);
      EXPECT_TRUE(cluster_satisfies(s.predicted, r.cluster, 4,
                                    s.classes.distance_at(0)));
    } else {
      EXPECT_EQ(r.status, QueryStatus::kNotFound);
    }
  }
  // Argument errors are degraded-flagged too (they reflect this snapshot).
  EXPECT_TRUE(service.submit(QueryRequest::at_class(0, 1, 0)).degraded);

  // Heal: recover both, let gossip refill the tables, re-snapshot.
  async.recover(s.fw.anchors.bfs_order()[1]);
  async.recover(s.fw.anchors.bfs_order()[2]);
  async.run_for(engine, horizon);
  ASSERT_TRUE(async.healthy());
  service.refresh(*snapshot_of(async, s.predicted, s.classes,
                               sync_options.find_options));
  const QueryResult healed = service.submit(QueryRequest::at_class(0, 4, 0));
  EXPECT_FALSE(healed.degraded);
  EXPECT_TRUE(healed.found());
}

}  // namespace
}  // namespace bcc

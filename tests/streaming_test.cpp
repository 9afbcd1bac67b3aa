// Streaming re-clustering under time-varying bandwidth: the incremental
// repair path (dirty dynamics -> FrameworkMaintainer::refresh_dirty ->
// DecentralizedClusterSystem::apply_delta) must land on the exact fixpoint a
// from-scratch recompute reaches, the new disturbance generators must be
// deterministic and local, and dynamics must compose with churn on one
// event engine (a join/leave landing inside an active flash crowd).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/churn.h"
#include "core/system.h"
#include "data/dynamics.h"
#include "data/dynamics_driver.h"
#include "data/planetlab_synth.h"
#include "test_util.h"
#include "tree/maintenance.h"

namespace bcc {
namespace {

using testutil::perturb_hosts;

SynthDataset small_dataset(std::uint64_t seed, std::size_t hosts = 30) {
  Rng rng(seed);
  SynthOptions options;
  options.hosts = hosts;
  return synthesize_planetlab(options, rng);
}

BandwidthClasses classes_for(const DistanceMatrix& predicted) {
  const double dmax = predicted.max_distance();
  const double c = kDefaultTransformC;
  return BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
}

/// A world wired the way the soak harness wires it: maintainer over a real
/// matrix, all hosts joined, sync system over the maintainer's anchors.
struct RepairWorld {
  DistanceMatrix real;
  FrameworkMaintainer maintainer;
  DistanceMatrix predicted;
  BandwidthClasses classes;
  SystemOptions sys_opts;
  DecentralizedClusterSystem sys;

  explicit RepairWorld(const SynthDataset& data)
      : real(data.distances), maintainer(&real),
        predicted(data.distances.size()), classes({1.0}),
        sys([&] {
          for (NodeId h = 0; h < real.size(); ++h) maintainer.join(h);
          maintainer.write_predicted(&predicted);
          classes = classes_for(predicted);
          sys_opts.n_cut = 5;
          return DecentralizedClusterSystem(maintainer.anchors(), predicted,
                                            classes, sys_opts);
        }()) {
    sys.run_to_convergence();
  }
};

TEST(StreamingRepair, IncrementalRepairMatchesFromScratchFixpoint) {
  const SynthDataset data = small_dataset(11);
  RepairWorld w(data);
  ASSERT_TRUE(w.sys.converged());

  // Disturb <= 10% of hosts (3 of 30) and repair incrementally.
  const std::vector<NodeId> dirty = {7, 19, 28};
  DistanceMatrix real2 = perturb_hosts(w.real, dirty, 1.4);
  const DistanceMatrix predicted_before = w.predicted;
  const auto report = w.maintainer.refresh_dirty(&real2, dirty);
  ASSERT_FALSE(report.full_rebuild);
  EXPECT_LE(report.repaired.size(), w.real.size() / 4);
  for (NodeId h : dirty) {
    EXPECT_TRUE(std::binary_search(report.repaired.begin(),
                                   report.repaired.end(), h));
  }
  w.maintainer.write_predicted_delta(&w.predicted, report.repaired);

  // Locality: pairs with neither end repaired keep their exact prediction.
  for (NodeId u = 0; u < w.predicted.size(); ++u) {
    for (NodeId v = u + 1; v < w.predicted.size(); ++v) {
      if (std::binary_search(report.repaired.begin(), report.repaired.end(),
                             u) ||
          std::binary_search(report.repaired.begin(), report.repaired.end(),
                             v)) {
        continue;
      }
      ASSERT_EQ(w.predicted.at(u, v), predicted_before.at(u, v))
          << "untouched pair (" << u << "," << v << ") moved";
    }
  }

  const std::size_t reused_before = w.sys.messages_reused();
  w.sys.refresh_delta(w.predicted, report.repaired, &w.maintainer.anchors());
  ASSERT_TRUE(w.sys.converged());
  // The delta path provably reused work outside the repaired subtree.
  EXPECT_GT(w.sys.messages_reused(), reused_before);

  // Exactness: string-equal canonical state vs a from-scratch system over
  // the same (tree, predicted, classes). This also proves the overlay
  // resync pruned every stale direction — a leftover ex-neighbor entry
  // would show up in the dump.
  DecentralizedClusterSystem fresh(w.maintainer.anchors(), w.predicted,
                                   w.classes, w.sys_opts);
  fresh.run_to_convergence();
  ASSERT_TRUE(fresh.converged());
  EXPECT_EQ(w.sys.canonical_dump(), fresh.canonical_dump());
}

TEST(StreamingRepair, RepeatedSmallRepairsStayExact) {
  const SynthDataset data = small_dataset(13);
  RepairWorld w(data);
  DistanceMatrix real_now = w.real;
  for (int round = 0; round < 5; ++round) {
    const NodeId h = static_cast<NodeId>((round * 7 + 3) % w.real.size());
    real_now = perturb_hosts(real_now, {h}, round % 2 == 0 ? 1.3 : 0.8);
    const auto report = w.maintainer.refresh_dirty(&real_now, {{h}});
    if (report.full_rebuild) {
      w.maintainer.write_predicted(&w.predicted);
    } else {
      w.maintainer.write_predicted_delta(&w.predicted, report.repaired);
    }
    w.sys.refresh_delta(w.predicted, report.repaired,
                        &w.maintainer.anchors());
    ASSERT_TRUE(w.sys.converged()) << "round " << round;
  }
  DecentralizedClusterSystem fresh(w.maintainer.anchors(), w.predicted,
                                   w.classes, w.sys_opts);
  fresh.run_to_convergence();
  EXPECT_EQ(w.sys.canonical_dump(), fresh.canonical_dump());
}

TEST(StreamingRepair, LargeDisturbanceFallsBackToFullRefresh) {
  const SynthDataset data = small_dataset(17);
  RepairWorld w(data);
  // 40% of hosts dirty: past the maintainer's full-refresh threshold, so the
  // tree is rebuilt and every host is repaired. The system re-gossips from
  // its pruned tables and must still land on the from-scratch fixpoint.
  std::vector<NodeId> dirty;
  for (NodeId h = 0; h < w.real.size(); h += 2) {
    dirty.push_back(h);
    if (dirty.size() >= w.real.size() * 2 / 5) break;
  }
  DistanceMatrix real2 = perturb_hosts(w.real, dirty, 1.5);
  const auto report = w.maintainer.refresh_dirty(&real2, dirty);
  EXPECT_TRUE(report.full_rebuild);
  EXPECT_EQ(report.repaired.size(), w.real.size());
  w.maintainer.write_predicted(&w.predicted);
  w.sys.apply_delta(w.predicted, report.repaired, &w.maintainer.anchors());
  w.sys.run_to_convergence();
  ASSERT_TRUE(w.sys.converged());
  DecentralizedClusterSystem fresh(w.maintainer.anchors(), w.predicted,
                                   w.classes, w.sys_opts);
  fresh.run_to_convergence();
  EXPECT_EQ(w.sys.canonical_dump(), fresh.canonical_dump());
}

TEST(StreamingRepair, RootDirtyForcesFullRebuild) {
  const SynthDataset data = small_dataset(19);
  RepairWorld w(data);
  const NodeId root = w.maintainer.anchors().bfs_order().front();
  DistanceMatrix real2 = perturb_hosts(w.real, {root}, 1.5);
  const auto report = w.maintainer.refresh_dirty(&real2, {{root}});
  EXPECT_TRUE(report.full_rebuild);
}

// ---------------------------------------------------------------- dynamics

DynamicsOptions quiet_options() {
  DynamicsOptions o;
  o.sigma = 0.0;
  o.congestion_rate = 0.0;
  return o;
}

TEST(Disturbances, FlashCrowdIsDeterministicAndCoversExactlyTheCrowd) {
  const SynthDataset data = small_dataset(23);
  DynamicsOptions o = quiet_options();
  o.flash_crowd_rate = 1.0;
  o.flash_crowd_fraction = 0.15;
  BandwidthDynamics a(data, o, 31);
  BandwidthDynamics b(data, o, 31);
  a.step();
  b.step();
  ASSERT_EQ(a.events().size(), 1u);
  const DisturbanceEvent& ev = a.events()[0];
  EXPECT_EQ(ev.kind, DisturbanceClass::kFlashCrowd);
  EXPECT_GE(ev.hosts.size(), 2u);
  EXPECT_EQ(ev.hosts, a.flash_hosts());
  // Same seed, same trajectory.
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(b.events()[0].hosts, ev.hosts);
  for (NodeId u = 0; u < data.bandwidth.size(); ++u) {
    for (NodeId v = u + 1; v < data.bandwidth.size(); ++v) {
      ASSERT_DOUBLE_EQ(a.current().at(u, v), b.current().at(u, v));
    }
  }
  // The greedy cover charges the disturbance to the crowd members alone —
  // NOT to every host that merely has a link into the crowd.
  EXPECT_EQ(a.dirty_hosts(0.5), ev.hosts);
}

TEST(Disturbances, CongestionChargesOnlyTheCongestedHost) {
  const SynthDataset data = small_dataset(29);
  DynamicsOptions o = quiet_options();
  o.congestion_rate = 1.0;
  BandwidthDynamics dyn(data, o, 37);
  dyn.step();
  ASSERT_EQ(dyn.events().size(), 1u);
  const DisturbanceEvent& ev = dyn.events()[0];
  EXPECT_EQ(ev.kind, DisturbanceClass::kCongestion);
  ASSERT_EQ(ev.hosts.size(), 1u);
  EXPECT_EQ(dyn.dirty_hosts(0.5), ev.hosts);
}

TEST(Disturbances, RegionDegradeHitsOnlyInternalLinks) {
  const SynthDataset data = small_dataset(31);
  DynamicsOptions degraded = quiet_options();
  degraded.region_degrade_rate = 1.0;
  degraded.regions = 4;
  DynamicsOptions calm = quiet_options();
  calm.regions = 4;
  // Same seed: the pair stream is identical, so any bandwidth difference is
  // the region overlay.
  BandwidthDynamics with(data, degraded, 41);
  BandwidthDynamics without(data, calm, 41);
  with.step();
  without.step();
  ASSERT_EQ(with.events().size(), 1u);
  const DisturbanceEvent& ev = with.events()[0];
  EXPECT_EQ(ev.kind, DisturbanceClass::kRegionDegrade);
  EXPECT_EQ(ev.hosts, with.degraded_region_hosts());
  const std::size_t region = with.region_of(ev.hosts[0]);
  for (NodeId h : ev.hosts) EXPECT_EQ(with.region_of(h), region);
  const double hit = std::log(degraded.region_degrade_factor);
  for (NodeId u = 0; u < data.bandwidth.size(); ++u) {
    for (NodeId v = u + 1; v < data.bandwidth.size(); ++v) {
      const double diff = std::log(with.current().at(u, v)) -
                          std::log(without.current().at(u, v));
      const bool internal =
          with.region_of(u) == region && with.region_of(v) == region;
      ASSERT_NEAR(diff, internal ? hit : 0.0, 1e-9)
          << "pair (" << u << "," << v << ")";
    }
  }
  // The dirty cover stays inside the degraded region.
  for (NodeId h : with.dirty_hosts(0.5)) {
    EXPECT_EQ(with.region_of(h), region);
  }
}

TEST(Disturbances, DiurnalCycleRepeatsWithThePeriod) {
  const SynthDataset data = small_dataset(37);
  DynamicsOptions o = quiet_options();
  o.rho = 0.0;  // no AR memory: bandwidth is a pure function of the phase
  o.diurnal_amplitude = 0.5;
  o.diurnal_period = 8;
  BandwidthDynamics dyn(data, o, 43);
  dyn.step();
  const BandwidthMatrix at_one = dyn.current();
  for (std::size_t i = 0; i < o.diurnal_period / 2; ++i) dyn.step();
  bool moved = false;
  for (NodeId v = 1; v < data.bandwidth.size() && !moved; ++v) {
    moved = std::abs(std::log(dyn.current().at(0, v) / at_one.at(0, v))) >
            0.05;
  }
  EXPECT_TRUE(moved) << "half a period should swing the bandwidth";
  for (std::size_t i = 0; i < o.diurnal_period / 2; ++i) dyn.step();
  for (NodeId u = 0; u < data.bandwidth.size(); ++u) {
    for (NodeId v = u + 1; v < data.bandwidth.size(); ++v) {
      ASSERT_NEAR(std::log(dyn.current().at(u, v)),
                  std::log(at_one.at(u, v)), 1e-9);
    }
  }
}

TEST(Disturbances, DisabledGeneratorsDrawNothingNew) {
  // A seed recorded before the new generators existed must replay the same
  // trajectory when they stay disabled: the layout/event/pair streams are
  // separate, and disabled generators never touch the event stream.
  const SynthDataset data = small_dataset(41);
  DynamicsOptions legacy;  // defaults: all new generators off
  DynamicsOptions tuned = legacy;
  tuned.diurnal_period = 48;       // layout-only knobs may differ...
  tuned.regions = 7;               // ...without perturbing the draws
  BandwidthDynamics a(data, legacy, 47);
  BandwidthDynamics b(data, tuned, 47);
  for (int i = 0; i < 10; ++i) {
    a.step();
    b.step();
  }
  for (NodeId u = 0; u < data.bandwidth.size(); ++u) {
    for (NodeId v = u + 1; v < data.bandwidth.size(); ++v) {
      ASSERT_DOUBLE_EQ(a.current().at(u, v), b.current().at(u, v));
    }
  }
}

// ---------------------------------------------------------------- driver

TEST(DynamicsDriverTest, TicksRewritePredictedAndReportDirty) {
  const SynthDataset data = small_dataset(43, 16);
  DynamicsOptions o = quiet_options();
  o.congestion_rate = 1.0;
  BandwidthDynamics dyn(data, o, 53);
  DistanceMatrix predicted = data.distances;
  DynamicsDriverOptions dopts;
  dopts.epochs = 3;
  dopts.epoch_period = 1.0;
  dopts.dirty_log_threshold = 0.5;
  DynamicsDriver driver(&dyn, &predicted, dopts);
  EventEngine engine;
  std::vector<std::pair<std::size_t, std::size_t>> seen;  // epoch, dirty size
  driver.schedule(engine, [&](std::size_t epoch,
                              const std::vector<NodeId>& dirty) {
    seen.emplace_back(epoch, dirty.size());
  });
  engine.run_until(10.0);
  EXPECT_EQ(driver.epochs_applied(), 3u);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 1u);
  EXPECT_GE(seen[0].second, 1u);  // congestion every epoch -> dirty host
  for (NodeId u = 0; u < predicted.size(); ++u) {
    for (NodeId v = u + 1; v < predicted.size(); ++v) {
      ASSERT_DOUBLE_EQ(predicted.at(u, v),
                       bandwidth_to_distance(dyn.current().at(u, v), dopts.c));
    }
  }
}

// ---------------------------------------------------- churn x dynamics

/// Canonical fingerprint of an async overlay's tables.
std::string overlay_fingerprint(const AsyncOverlay& async,
                                const AnchorTree& tree) {
  std::ostringstream out;
  for (NodeId x : tree.bfs_order()) {
    out << canonical_node_state(x, async.nodes().at(x));
  }
  return out.str();
}

/// One full churn-during-flash-crowd run; returns the final fingerprint
/// after asserting the exact post-run fixpoint.
std::string run_churn_during_flash(std::uint64_t seed) {
  const std::size_t universe = 18;
  Rng rng(seed + 300);
  const DistanceMatrix tree_metric = testutil::random_tree_metric(universe, rng);
  const BandwidthClasses classes = classes_for(tree_metric);

  // The dynamics evolve the shared metric; flash crowds fire every epoch, so
  // the churn below lands inside an active crowd.
  SynthDataset data;
  data.name = "streaming";
  data.bandwidth = inverse_rational_transform(tree_metric, kDefaultTransformC);
  data.tree_distances = tree_metric;
  data.c = kDefaultTransformC;
  DynamicsOptions dyn_opts;
  dyn_opts.sigma = 0.0;
  dyn_opts.congestion_rate = 0.0;
  dyn_opts.flash_crowd_rate = 1.0;
  dyn_opts.flash_crowd_fraction = 0.2;
  dyn_opts.flash_crowd_epochs = 4;
  BandwidthDynamics dyn(data, dyn_opts, seed);

  DistanceMatrix metric = tree_metric;
  FrameworkMaintainer maintainer(&metric);
  for (NodeId h = 0; h < universe - 2; ++h) maintainer.join(h);

  AsyncOverlayOptions options;
  options.n_cut = 5;
  options.gossip_period = 1.0;
  AsyncOverlay async(&maintainer.anchors(), &metric, &classes, options,
                     seed + 60);
  EventEngine engine;
  async.start(engine);

  ChurnDriver churn(&maintainer, &async);
  churn.schedule(engine, {ChurnEvent::leave(3.0, 4),
                          ChurnEvent::join(5.0, universe - 2)});

  DynamicsDriverOptions drv_opts;
  drv_opts.epoch_period = 2.0;
  drv_opts.start_at = 2.0;
  drv_opts.epochs = 4;
  drv_opts.dirty_log_threshold = 0.5;
  DynamicsDriver driver(&dyn, &metric, drv_opts);
  driver.schedule(engine, [&](std::size_t, const std::vector<NodeId>& dirty) {
    // Kick the dirty hosts' gossip immediately instead of waiting out their
    // periodic timers (the repair-latency path the soak harness measures).
    std::vector<NodeId> alive_dirty;
    for (NodeId h : dirty) {
      if (maintainer.contains(h)) alive_dirty.push_back(h);
    }
    async.trigger_gossip(alive_dirty);
  });
  engine.run_until(10.0);
  EXPECT_EQ(churn.applied(), 2u);
  EXPECT_EQ(driver.epochs_applied(), 4u);
  EXPECT_FALSE(dyn.flash_hosts().empty());  // crowd active through the churn

  // Quiet period: gossip re-converges on the final (membership, metric).
  async.run_for(engine, 8.0 * (maintainer.anchors().diameter() + 2));

  // Exact fixpoint on the final state: sync ground truth over the repaired
  // tree and the dynamics-evolved metric.
  SystemOptions sync_options;
  sync_options.n_cut = options.n_cut;
  DecentralizedClusterSystem sync(maintainer.anchors(), metric, classes,
                                  sync_options);
  sync.run_to_convergence();
  EXPECT_TRUE(sync.converged());
  EXPECT_EQ(async.nodes().size(), maintainer.anchors().size())
      << "seed=" << seed;
  for (NodeId x : maintainer.anchors().bfs_order()) {
    EXPECT_EQ(canonical_node_state(x, async.nodes().at(x)),
              canonical_node_state(x, sync.node(x)))
        << "seed=" << seed;
  }
  return overlay_fingerprint(async, maintainer.anchors());
}

TEST(StreamingChurn, JoinLeaveDuringActiveFlashCrowdReconverges) {
  // Deterministic per seed, and different seeds give different worlds.
  const std::string a = run_churn_during_flash(5);
  const std::string b = run_churn_during_flash(5);
  const std::string c = run_churn_during_flash(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace bcc

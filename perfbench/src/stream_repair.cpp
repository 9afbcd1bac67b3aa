// Workload stream-repair: bandwidth change -> fresh converged snapshot, one
// dynamics epoch per op, on 317 hosts (the UMD-PlanetLab size).
//
// Why: this is the write path and the user's freshness latency. Tree repair
// (FrameworkMaintainer::refresh_dirty), delta gossip (apply_delta +
// run_to_convergence) and snapshot publish all run here, and Algorithm 1
// runs only on the clustering spaces the repair changed. An epoch whose
// dirty set holds the overlay root, or more than a quarter of the hosts,
// falls back to a full rebuild, so hub fan-out shows in the tail.
//
// Inputs: synthesize_planetlab (317 hosts, noise 0.25, 30-110 Mbps p20-p80),
// 5 classes from exp::bandwidth_grid(30, 110, 5), BandwidthDynamics with the
// soak harness's AR(1) (rho 0.85, sigma 0.05), congestion 0.3/epoch, flash
// crowds 0.02, region degradation 0.02 and the diurnal cycle off.
//
// A run is kSegments segments sharing the ops equally. Every segment
// sets the pipeline up from the same world (seeded-order joins through
// FrameworkMaintainer, sync convergence, first publish) and then streams its
// own seeded dynamics, so a run averages over several independent
// trajectories instead of one long random walk of the tree.
// Op: dirty_hosts(0.3) -> refresh_dirty -> write_predicted[_delta] ->
// apply_delta -> run_to_convergence -> QueryService::refresh. dyn.step() and
// the bandwidth -> distance transform generate the op's input and are
// untimed.
#include <algorithm>
#include <numeric>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "core/system.h"
#include "data/dynamics.h"
#include "data/planetlab_synth.h"
#include "exp/common.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "tree/maintenance.h"

namespace bcc::perfbench {

namespace {

/// The world (hosts, noise, join order) is fixed; the run seed draws the op
/// sequence. See README.md, "Fixed worlds".
constexpr std::uint64_t kWorldSeed = 5;
/// Segments per run, each with its own timed set-up (setup_s is their
/// median) and its own seeded dynamics.
constexpr std::size_t kSegments = 9;
constexpr std::size_t kHosts = 317;
constexpr double kDirtyThreshold = 0.3;
/// Uncached queries checked against every published snapshot.
constexpr std::size_t kChecksPerEpoch = 4;
constexpr std::size_t kMaxK = 31;

/// Declared so that destruction runs service, system, maintainer.
struct Pipeline {
  std::optional<FrameworkMaintainer> maintainer;
  std::optional<DecentralizedClusterSystem> system;
  std::optional<QueryService> service;
};

/// Per-run totals behind the per-layer metrics.
struct Totals {
  double sim_messages = 0.0;
  double sim_bytes = 0.0;
  double cycles = 0.0;
  double regossip_cycles = 0.0;
  double reused = 0.0;
  double recomputed = 0.0;
  double fresh_ms = 0.0;
  std::size_t repaired_hosts = 0;
  std::size_t full_rebuilds = 0;
  double space_max = 0.0;
  double space_mean = 0.0;
  std::size_t max_degree = 0;
};

}  // namespace

RunResult run_stream_repair(const RunConfig& config, Tracer& tracer) {
  RunResult out;
  Rng world_rng(kWorldSeed);
  SynthOptions synth;
  synth.hosts = kHosts;
  synth.target_p20 = 30.0;
  synth.target_p80 = 110.0;
  const SynthDataset data = synthesize_planetlab(synth, world_rng);
  const BandwidthClasses classes =
      exp::classes_for_grid(exp::bandwidth_grid(30, 110, 5));

  DynamicsOptions dopts;
  dopts.rho = 0.85;
  dopts.sigma = 0.05;
  dopts.congestion_rate = 0.3;
  dopts.flash_crowd_rate = 0.02;
  dopts.region_degrade_rate = 0.02;
  dopts.diurnal_amplitude = 0.0;

  std::vector<NodeId> join_order(kHosts);
  std::iota(join_order.begin(), join_order.end(), NodeId{0});
  Rng order_rng = Rng(kWorldSeed).split(1);
  order_rng.shuffle(join_order);

  Rng query_rng = Rng(config.seed).split(2);
  Totals t;
  out.op_ms.reserve(config.ops);
  bool setups_converged = true;
  bool dumps_match = true;
  for (std::size_t segment = 0; segment < kSegments; ++segment) {
    const std::size_t epochs = config.ops * (segment + 1) / kSegments -
                               config.ops * segment / kSegments;
    // The previous segment's pipeline and check system are gone; the peak
    // covers this segment's set-up and epochs.
    reset_peak_rss();
    BandwidthDynamics dyn(data, dopts, Rng(config.seed).split(10 + segment)());
    // `real` is the maintainer's measurement oracle: it is overwritten in
    // place every epoch, never reallocated.
    DistanceMatrix real = dyn.current().to_distance(data.c);
    DistanceMatrix predicted(kHosts);
    Pipeline p;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span span(tracer, "tree.join");
      p.maintainer.emplace(&real);
      for (NodeId h : join_order) p.maintainer->join(h);
    }
    {
      Tracer::Span span(tracer, "tree.predict");
      p.maintainer->write_predicted(&predicted);
    }
    {
      Tracer::Span span(tracer, "core.converge");
      p.system.emplace(p.maintainer->anchors(), predicted, classes);
      t.cycles += static_cast<double>(p.system->run_to_convergence());
    }
    {
      Tracer::Span span(tracer, "serve.first_publish");
      QueryServiceOptions options;
      options.threads = 1;
      p.service.emplace(*p.system, options);
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    FrameworkMaintainer& maintainer = *p.maintainer;
    DecentralizedClusterSystem& sys = *p.system;
    QueryService& service = *p.service;
    setups_converged = setups_converged && sys.converged();
    t.sim_messages += static_cast<double>(sys.metrics().total_messages());
    t.sim_bytes += static_cast<double>(sys.metrics().total_bytes());

    for (std::size_t e = 1; e <= epochs; ++e) {
      tracer.set_op(static_cast<std::int64_t>(out.op_ms.size()));
      dyn.step();
      {
        Tracer::Span span(tracer, "metric.transform");
        real = dyn.current().to_distance(data.c);
      }

      const std::int64_t op0 = now_ns();
      std::vector<NodeId> dirty;
      {
        Tracer::Span span(tracer, "data.dirty");
        dirty = dyn.dirty_hosts(kDirtyThreshold);
      }
      FrameworkMaintainer::RepairReport rep;
      {
        Tracer::Span span(tracer, "tree.repair");
        rep = maintainer.refresh_dirty(&real, dirty);
      }
      {
        Tracer::Span span(tracer, "tree.delta_write");
        if (rep.full_rebuild) {
          maintainer.write_predicted(&predicted);
        } else {
          maintainer.write_predicted_delta(&predicted, rep.repaired);
        }
      }
      {
        Tracer::Span span(tracer, "core.apply_delta");
        sys.apply_delta(predicted, rep.repaired, &maintainer.anchors());
      }
      {
        Tracer::Span span(tracer, "core.regossip");
        t.regossip_cycles += static_cast<double>(sys.run_to_convergence());
      }
      {
        Tracer::Span span(tracer, "serve.publish");
        service.refresh(*snapshot_of(sys, 0, e));
      }
      out.op_ms.push_back(static_cast<double>(now_ns() - op0) / 1e6);
      t.repaired_hosts += rep.repaired.size();
      if (rep.full_rebuild) ++t.full_rebuilds;

      // Post-publish checks: the snapshot is converged, and fresh uncached
      // queries are answered from it, stamped with this epoch.
      bool ok = service.snapshot()->converged &&
                service.snapshot()->source_epoch == e;
      for (std::size_t q = 0; q < kChecksPerEpoch; ++q) {
        const auto start = static_cast<NodeId>(query_rng.below(kHosts));
        const std::size_t k = 2 + query_rng.below(kMaxK - 1);
        const std::size_t cls = query_rng.below(classes.size());
        const std::int64_t q0 = now_ns();
        QueryResult r;
        {
          Tracer::Span span(tracer, "serve.fresh_query");
          r = service.submit(QueryRequest::at_class(start, k, cls));
        }
        t.fresh_ms += static_cast<double>(now_ns() - q0) / 1e6;
        ok = ok && answer_ok(r, k, predicted, classes) && !r.degraded &&
             r.source_epoch == e;
        ++out.queries;
        if (r.found()) ++out.found;
      }
      if (!ok) ++out.failed;
    }
    tracer.set_op(-1);
    out.peak_rss_mb = std::max(out.peak_rss_mb, peak_rss_mb());

    // The incrementally repaired state must string-equal a from-scratch
    // system over the same (tree, predicted, classes).
    DecentralizedClusterSystem fresh(maintainer.anchors(), predicted, classes);
    fresh.run_to_convergence();
    dumps_match = dumps_match && sys.converged() &&
                  sys.canonical_dump() == fresh.canonical_dump();

    t.reused += static_cast<double>(sys.messages_reused());
    t.recomputed += static_cast<double>(sys.messages_recomputed());
    const SpaceStats spaces = space_stats(sys.nodes());
    t.space_max = std::max(t.space_max, spaces.max);
    t.space_mean += spaces.mean;
    t.max_degree = std::max(t.max_degree, sys.overlay().max_degree());
  }
  out.checks.emplace_back("setup_converged", setups_converged);
  out.checks.emplace_back("final_dump_matches_from_scratch", dumps_match);

  if (tracer.enabled()) {
    const double setups = static_cast<double>(kSegments);
    const double ops = static_cast<double>(out.op_ms.size());
    out.layers = {
        {"metric.transform_ms", tracer.mean_ms("metric.transform")},
        {"data.dirty_ms", tracer.mean_ms("data.dirty")},
        {"tree.join_ms", tracer.mean_ms("tree.join")},
        {"tree.predict_ms", tracer.mean_ms("tree.predict")},
        {"tree.max_degree", static_cast<double>(t.max_degree)},
        {"tree.repair_ms", tracer.mean_ms("tree.repair")},
        {"tree.delta_write_ms", tracer.mean_ms("tree.delta_write")},
        {"tree.repaired_hosts", static_cast<double>(t.repaired_hosts) / ops},
        {"tree.full_rebuild_ratio", static_cast<double>(t.full_rebuilds) / ops},
        {"core.converge_ms", tracer.mean_ms("core.converge")},
        {"core.converge_cycles", t.cycles / setups},
        {"sim.messages", t.sim_messages / setups},
        {"sim.bytes", t.sim_bytes / setups},
        {"core.space_max", t.space_max},
        {"core.space_mean", t.space_mean / setups},
        {"core.apply_delta_ms", tracer.mean_ms("core.apply_delta")},
        {"core.regossip_ms", tracer.mean_ms("core.regossip")},
        {"core.regossip_cycles", t.regossip_cycles / ops},
        {"core.reused_ratio", t.reused + t.recomputed > 0.0
                                  ? t.reused / (t.reused + t.recomputed)
                                  : 0.0},
        {"serve.publish_ms", tracer.mean_ms("serve.publish")},
        {"serve.fresh_query_ms", t.fresh_ms / static_cast<double>(out.queries)},
    };
  }
  return out;
}

}  // namespace bcc::perfbench

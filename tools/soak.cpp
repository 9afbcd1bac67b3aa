// Soak harness: streaming re-clustering under time-varying bandwidth for
// simulated hours (ctest -L soak; see DESIGN.md §9).
//
// Per seed, one world runs the full incremental-repair pipeline every epoch:
//
//   BandwidthDynamics.step()            — AR(1) + diurnal + congestion +
//                                         flash crowd + region degradation
//     -> dirty_hosts()                  — hosts whose links really moved
//     -> FrameworkMaintainer.refresh_dirty()    — re-embed only those
//     -> write_predicted_delta()        — O(k·n) prediction update
//     -> DecentralizedClusterSystem.apply_delta()  — mark the subtree dirty
//     -> QueryService serves *during* the repair window (degraded answers
//        must stay well-formed)
//     -> run_to_convergence()           — delta re-gossip to the fixpoint
//
// Invariants asserted every epoch (violations exit nonzero):
//   * bounded staleness: the system reconverges within --staleness-budget
//     consecutive epochs of every disturbance;
//   * degraded-but-well-formed serving: queries answered mid-repair carry
//     degraded=true + the source epoch, and any kFound cluster has exactly k
//     valid members;
//   * fixpoint exactness (every --verify-every epochs and at the end): the
//     incrementally repaired state string-equals the canonical dump of a
//     from-scratch system built on the same (tree, predicted, classes).
//
// Per-disturbance-class time-to-reconvergence lands in the bcc.conv.*
// histograms (obs::ConvergenceMonitor::record_reconvergence) and the whole
// run is mirrored into BENCH_soak.json via obs::BenchReport.
//
// Env knobs (CI nightly widens them): BCC_SOAK_EPOCHS (default 1000),
// BCC_SOAK_SEEDS (default 1), BCC_SOAK_HOSTS (default 24).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "core/system.h"
#include "data/dynamics.h"
#include "data/planetlab_synth.h"
#include "obs/bench_report.h"
#include "obs/convergence.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "tree/maintenance.h"

namespace {

using namespace bcc;

std::int64_t env_int(const char* name, std::int64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return std::atoll(v);
}

BandwidthClasses classes_for(const DistanceMatrix& predicted) {
  const double dmax = predicted.max_distance();
  const double c = kDefaultTransformC;
  return BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(idx + 0.5)];
}

/// One disturbance episode awaiting its first post-onset convergence.
struct PendingEpisode {
  DisturbanceClass kind;
  std::size_t epoch;
};

/// Everything the convergence monitor samples, swapped per seed.
struct SeedView {
  std::size_t epoch = 0;
  double epoch_period = 60.0;  ///< simulated seconds per epoch
  bool converged = false;
  std::vector<std::size_t> last_repair;  ///< per host, epoch of last repair
};

struct SoakTotals {
  std::size_t events[3] = {0, 0, 0};
  std::vector<double> ttr_ms[3];
  std::size_t repairs_delta = 0;
  std::size_t repairs_full = 0;
  std::size_t repaired_hosts = 0;
  std::size_t queries = 0;
  std::size_t degraded_queries = 0;
  std::size_t found_queries = 0;
  std::size_t verifications = 0;
  std::size_t max_streak = 0;
  std::size_t recomputed = 0;
  std::size_t reused = 0;
  std::size_t failures = 0;
};

#define SOAK_CHECK(cond, ...)                          \
  do {                                                 \
    if (!(cond)) {                                     \
      std::fprintf(stderr, "SOAK FAIL: " __VA_ARGS__); \
      std::fprintf(stderr, "\n");                      \
      ++totals.failures;                               \
    }                                                  \
  } while (0)

void run_seed(std::uint64_t seed, std::size_t hosts, std::size_t epochs,
              std::size_t verify_every, std::size_t staleness_budget,
              double dirty_threshold, obs::ConvergenceMonitor& monitor,
              SeedView& view, SoakTotals& totals) {
  Rng rng(seed);
  SynthOptions sopts;
  sopts.hosts = hosts;
  sopts.noise_sigma = 0.1;
  const SynthDataset data = synthesize_planetlab(sopts, rng);

  DynamicsOptions dopts;
  dopts.rho = 0.85;
  dopts.sigma = 0.05;
  dopts.congestion_rate = 0.05;
  dopts.diurnal_amplitude = 0.3;
  dopts.diurnal_period = 96;
  dopts.flash_crowd_rate = 0.02;
  dopts.flash_crowd_fraction = 0.15;
  dopts.region_degrade_rate = 0.02;
  dopts.regions = 4;
  BandwidthDynamics dyn(data, dopts, seed);

  DistanceMatrix real = dyn.current().to_distance(data.c);
  FrameworkMaintainer maintainer(&real);
  for (NodeId h = 0; h < hosts; ++h) maintainer.join(h);

  DistanceMatrix predicted(hosts);
  maintainer.write_predicted(&predicted);
  const BandwidthClasses classes = classes_for(predicted);

  SystemOptions sys_opts;
  sys_opts.n_cut = 5;
  DecentralizedClusterSystem sys(maintainer.anchors(), predicted, classes,
                                 sys_opts);
  sys.run_to_convergence();
  SOAK_CHECK(sys.converged(), "seed %llu: initial convergence failed",
             (unsigned long long)seed);

  QueryServiceOptions qopts;
  qopts.threads = 2;
  qopts.shards = 4;
  QueryService service(sys, qopts);

  view.epoch = 0;
  view.converged = sys.converged();
  view.last_repair.assign(hosts, 0);

  Rng query_rng = Rng(seed).split(97);
  std::vector<PendingEpisode> pending;
  std::size_t streak = 0;

  for (std::size_t e = 1; e <= epochs; ++e) {
    dyn.step();
    for (const DisturbanceEvent& ev : dyn.events()) {
      pending.push_back({ev.kind, e});
      ++totals.events[static_cast<std::size_t>(ev.kind)];
    }

    real = dyn.current().to_distance(data.c);
    const std::vector<NodeId> dirty = dyn.dirty_hosts(dirty_threshold);
    const FrameworkMaintainer::RepairReport rep =
        maintainer.refresh_dirty(&real, dirty);
    if (rep.full_rebuild) {
      maintainer.write_predicted(&predicted);
    } else {
      maintainer.write_predicted_delta(&predicted, rep.repaired);
    }
    sys.apply_delta(predicted, rep.repaired, &maintainer.anchors());
    if (!rep.repaired.empty()) {
      rep.full_rebuild ? ++totals.repairs_full : ++totals.repairs_delta;
    }
    totals.repaired_hosts += rep.repaired.size();
    for (NodeId h : rep.repaired) view.last_repair[h] = e;

    // Repair-window serving: answers must keep flowing, flagged degraded but
    // structurally well-formed.
    if (!rep.repaired.empty()) {
      service.refresh(*snapshot_of(sys, 0, e));
      const bool mid_repair_converged = sys.converged();
      for (int q = 0; q < 2; ++q) {
        const NodeId start = static_cast<NodeId>(query_rng.below(hosts));
        const std::size_t k = 2 + query_rng.below(3);
        const std::size_t cls = query_rng.below(classes.size());
        const QueryResult r = service.submit(QueryRequest::at_class(start, k, cls));
        ++totals.queries;
        SOAK_CHECK(r.status == QueryStatus::kFound ||
                       r.status == QueryStatus::kNotFound,
                   "seed %llu epoch %zu: mid-repair query status %s",
                   (unsigned long long)seed, e, to_string(r.status));
        SOAK_CHECK(r.degraded == !mid_repair_converged,
                   "seed %llu epoch %zu: degraded flag %d, converged %d",
                   (unsigned long long)seed, e, (int)r.degraded,
                   (int)mid_repair_converged);
        SOAK_CHECK(r.source_epoch == e,
                   "seed %llu epoch %zu: source_epoch %llu",
                   (unsigned long long)seed, e,
                   (unsigned long long)r.source_epoch);
        if (r.degraded) ++totals.degraded_queries;
        if (r.found()) {
          ++totals.found_queries;
          SOAK_CHECK(r.cluster.size() == k,
                     "seed %llu epoch %zu: kFound cluster size %zu != k %zu",
                     (unsigned long long)seed, e, r.cluster.size(), k);
          for (NodeId m : r.cluster) {
            SOAK_CHECK(m < hosts, "seed %llu epoch %zu: bad member %llu",
                       (unsigned long long)seed, e, (unsigned long long)m);
          }
        }
      }
    }

    const std::size_t cycles = sys.run_to_convergence();
    view.epoch = e;
    view.converged = sys.converged();
    if (sys.converged()) {
      streak = 0;
      // One gossip cycle = 1 simulated second: an episode's
      // time-to-reconvergence spans the epochs it kept the system off the
      // fixpoint plus the final repair's gossip cycles.
      for (const PendingEpisode& p : pending) {
        const double ms = (static_cast<double>(e - p.epoch) * view.epoch_period +
                           static_cast<double>(cycles)) *
                          1000.0;
        monitor.record_reconvergence(to_string(p.kind), ms);
        totals.ttr_ms[static_cast<std::size_t>(p.kind)].push_back(ms);
      }
      pending.clear();
      service.refresh(*snapshot_of(sys, 0, e));
    } else {
      ++streak;
      totals.max_streak = std::max(totals.max_streak, streak);
      SOAK_CHECK(streak <= staleness_budget,
                 "seed %llu epoch %zu: unconverged for %zu consecutive epochs"
                 " (budget %zu) — staleness bound violated",
                 (unsigned long long)seed, e, streak, staleness_budget);
    }
    monitor.sample();

    if (e % verify_every == 0 || e == epochs) {
      // Fixpoint exactness: the incrementally repaired state must
      // string-equal a from-scratch recompute over the same inputs.
      DecentralizedClusterSystem fresh(maintainer.anchors(), predicted,
                                       classes, sys_opts);
      fresh.run_to_convergence();
      SOAK_CHECK(fresh.converged(),
                 "seed %llu epoch %zu: fresh system did not converge",
                 (unsigned long long)seed, e);
      SOAK_CHECK(sys.converged(),
                 "seed %llu epoch %zu: repaired system not converged at"
                 " verification point",
                 (unsigned long long)seed, e);
      SOAK_CHECK(sys.canonical_dump() == fresh.canonical_dump(),
                 "seed %llu epoch %zu: incremental state diverged from the"
                 " from-scratch fixpoint",
                 (unsigned long long)seed, e);
      ++totals.verifications;
    }
  }

  totals.recomputed += sys.messages_recomputed();
  totals.reused += sys.messages_reused();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("soak", "Streaming re-clustering soak harness (see DESIGN.md §9)");
  auto& epochs_flag = opts.add_int("epochs", env_int("BCC_SOAK_EPOCHS", 1000),
                                   "epochs per seed (BCC_SOAK_EPOCHS)");
  auto& seeds_flag = opts.add_int("seeds", env_int("BCC_SOAK_SEEDS", 1),
                                  "number of seeds (BCC_SOAK_SEEDS)");
  auto& hosts_flag = opts.add_int("hosts", env_int("BCC_SOAK_HOSTS", 24),
                                  "hosts per world (BCC_SOAK_HOSTS)");
  auto& verify_flag =
      opts.add_int("verify-every", 250,
                   "epochs between from-scratch fixpoint verifications");
  auto& budget_flag =
      opts.add_int("staleness-budget", 2,
                   "max consecutive unconverged epochs tolerated");
  auto& dirty_flag = opts.add_double(
      "dirty-threshold", 0.3, "min per-host |delta log BW| to trigger repair");
  opts.parse(argc, argv);

  const auto epochs = static_cast<std::size_t>(epochs_flag);
  const auto seeds = static_cast<std::size_t>(seeds_flag);
  const auto hosts = static_cast<std::size_t>(hosts_flag);

  obs::BenchReport report("soak");
  SeedView view;
  SeedView* current = &view;
  // The monitor samples whatever world is currently running; staleness is
  // simulated seconds since each host's embedding was last repaired.
  obs::ConvergenceMonitor monitor(&report.registry(), [&current]() {
    obs::ConvergenceSample s;
    const SeedView& v = *current;
    s.now = static_cast<double>(v.epoch) * v.epoch_period;
    s.nodes.reserve(v.last_repair.size());
    for (std::size_t h = 0; h < v.last_repair.size(); ++h) {
      obs::NodeHealth n;
      n.id = h;
      n.staleness =
          static_cast<double>(v.epoch - v.last_repair[h]) * v.epoch_period;
      n.matches_reference = v.converged;
      s.nodes.push_back(n);
    }
    return s;
  });

  SoakTotals totals;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    run_seed(seed, hosts, epochs, static_cast<std::size_t>(verify_flag),
             static_cast<std::size_t>(budget_flag), dirty_flag, monitor, view,
             totals);
  }

  const double total_msgs =
      static_cast<double>(totals.recomputed + totals.reused);
  report.set("bcc.bench.soak.epochs", static_cast<double>(epochs));
  report.set("bcc.bench.soak.seeds", static_cast<double>(seeds));
  report.set("bcc.bench.soak.hosts", static_cast<double>(hosts));
  report.set("bcc.bench.soak.repairs_delta",
             static_cast<double>(totals.repairs_delta));
  report.set("bcc.bench.soak.repairs_full",
             static_cast<double>(totals.repairs_full));
  report.set("bcc.bench.soak.repaired_hosts",
             static_cast<double>(totals.repaired_hosts));
  report.set("bcc.bench.soak.reuse_fraction",
             total_msgs == 0.0 ? 0.0
                               : static_cast<double>(totals.reused) / total_msgs);
  report.set("bcc.bench.soak.queries", static_cast<double>(totals.queries));
  report.set("bcc.bench.soak.degraded_queries",
             static_cast<double>(totals.degraded_queries));
  report.set("bcc.bench.soak.found_queries",
             static_cast<double>(totals.found_queries));
  report.set("bcc.bench.soak.verifications",
             static_cast<double>(totals.verifications));
  report.set("bcc.bench.soak.max_unconverged_streak",
             static_cast<double>(totals.max_streak));
  static const char* kClassNames[3] = {"congestion", "flash_crowd",
                                       "region_degrade"};
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string base = std::string("bcc.bench.soak.") + kClassNames[k];
    report.set(base + "_events", static_cast<double>(totals.events[k]));
    report.set(base + "_ttr_ms_p50", percentile(totals.ttr_ms[k], 50.0));
    report.set(base + "_ttr_ms_p95", percentile(totals.ttr_ms[k], 95.0));
    report.set(base + "_ttr_ms_max", percentile(totals.ttr_ms[k], 100.0));
  }
  if (!report.write()) {
    std::fprintf(stderr, "soak: failed to write %s\n", report.path().c_str());
    return 1;
  }

  std::printf(
      "soak: %zu seed(s) x %zu epochs x %zu hosts — %zu delta repairs, %zu "
      "full, %.1f%% messages reused, %zu queries (%zu degraded), %zu fixpoint "
      "verifications, events c/f/r = %zu/%zu/%zu -> %s\n",
      seeds, epochs, hosts, totals.repairs_delta, totals.repairs_full,
      total_msgs == 0.0 ? 0.0 : 100.0 * static_cast<double>(totals.reused) / total_msgs,
      totals.queries, totals.degraded_queries, totals.verifications,
      totals.events[0], totals.events[1], totals.events[2],
      report.path().c_str());
  if (totals.failures > 0) {
    std::fprintf(stderr, "soak: %zu invariant violation(s)\n", totals.failures);
    return 1;
  }
  return 0;
}

// Workload query-cold: uncached (k, b) cluster queries on a converged
// 1280-host system — Algorithm 4 routing plus Algorithm 1 at the node that
// answers.
//
// Why: Algorithm 1 on large clustering spaces dominates this workload (a
// third of the queries answer at the start node in about 0.02 ms, a quarter
// take 1-5 ms, and the slowest 40% take 20-60 ms each), and the serving
// plane adds under 1% on top. It is the workload an Algorithm 1 kernel
// rewrite must move, and the one whose set-up pays the full sync gossip
// fixpoint at n = 1280.
//
// Inputs: synthesize_planetlab (1280 hosts, noise 0.25, 15-75 Mbps p20-p80)
// and 5 classes from exp::bandwidth_grid(15, 75, 5), default SystemOptions.
// Set-up: build_framework -> DecentralizedClusterSystem::run_to_convergence
// -> QueryService with one worker. Op: one QueryService::submit of a
// never-repeated (start, k in [2, 31], class) request, closed loop with one
// client, so the memo cache never hits. The query set is part of the fixed
// world; the run seed draws the order the queries are asked in.
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "core/system.h"
#include "data/planetlab_synth.h"
#include "exp/common.h"
#include "serve/query_service.h"
#include "tree/embedder.h"

namespace bcc::perfbench {

namespace {

/// The world (hosts, noise, join order) is fixed; the run seed draws the op
/// sequence. See README.md, "Fixed worlds".
constexpr std::uint64_t kWorldSeed = 4;
/// Set-ups per run, each timed (setup_s is their median); the last serves.
constexpr std::size_t kSetups = 2;
constexpr std::size_t kHosts = 1280;
constexpr std::size_t kMinK = 2;
constexpr std::size_t kMaxK = 31;
/// Queries right after the publish that count as serve.fresh_query_ms.
constexpr std::size_t kFreshQueries = 8;

/// Endless stream over 0..n-1: one seeded permutation after another.
class Cycler {
 public:
  Cycler(std::size_t n, Rng& rng) : rng_(rng), order_(n) {
    std::iota(order_.begin(), order_.end(), std::size_t{0});
  }
  std::size_t next() {
    if (pos_ == 0) rng_.shuffle(order_);
    const std::size_t value = order_[pos_];
    pos_ = (pos_ + 1) % order_.size();
    return value;
  }

 private:
  Rng& rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

struct Served {
  std::optional<DecentralizedClusterSystem> system;
  std::optional<QueryService> service;
};

}  // namespace

RunResult run_query_cold(const RunConfig& config, Tracer& tracer) {
  RunResult out;
  Rng world_rng(kWorldSeed);
  SynthOptions synth;
  synth.hosts = kHosts;
  const SynthDataset data = synthesize_planetlab(synth, world_rng);
  const BandwidthClasses classes =
      exp::classes_for_grid(exp::bandwidth_grid(15, 75, 5));

  // The query set: distinct (start, k, class) triples. Starts, ks and
  // classes each cycle through world-seeded permutations of their ranges, so
  // no host is asked twice before every host was asked once, and likewise
  // for ks and classes; a triple already asked is skipped. The set is fixed
  // (README.md, "Fixed worlds": a seeded set moved op_p50_ms by up to 50%
  // between seeds, because the median sits on the edge of a latency
  // cluster); the run seed shuffles its order.
  std::vector<QueryRequest> requests;
  if (config.ops > kHosts * (kMaxK - kMinK + 1) * classes.size()) {
    throw std::invalid_argument("query-cold: more ops than distinct queries");
  }
  {
    Rng rng = Rng(kWorldSeed).split(2);
    Cycler starts(kHosts, rng);
    Cycler ks(kMaxK - kMinK + 1, rng);
    Cycler cls(classes.size(), rng);
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen;
    while (requests.size() < config.ops) {
      const std::size_t start = starts.next();
      const std::size_t k = kMinK + ks.next();
      const std::size_t c = cls.next();
      if (seen.emplace(start, k, c).second) {
        requests.push_back(QueryRequest::at_class(start, k, c));
      }
    }
    Rng order_rng = Rng(config.seed).split(2);
    order_rng.shuffle(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].with_profile(tracer.traces(static_cast<std::int64_t>(i)));
    }
  }

  // The peak covers the set-ups and the ops, not input generation.
  reset_peak_rss();
  Served served;
  double sim_messages = 0.0;
  double sim_bytes = 0.0;
  double cycles = 0.0;
  for (std::size_t s = 0; s < kSetups; ++s) {
    served.service.reset();
    served.system.reset();
    const std::int64_t t0 = now_ns();
    {
      Framework fw;
      {
        Tracer::Span span(tracer, "tree.embed");
        Rng order_rng = Rng(kWorldSeed).split(1);
        fw = build_framework(data.distances, order_rng);
      }
      DistanceMatrix predicted;
      {
        Tracer::Span span(tracer, "tree.predict");
        predicted = fw.predicted_distances();
      }
      Tracer::Span span(tracer, "core.converge");
      served.system.emplace(std::move(fw.anchors), std::move(predicted),
                            classes);
      cycles += static_cast<double>(served.system->run_to_convergence());
    }
    {
      Tracer::Span span(tracer, "serve.publish");
      QueryServiceOptions options;
      options.threads = 1;
      served.service.emplace(*served.system, options);
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const MessageMetrics& metrics = served.system->metrics();
    sim_messages += static_cast<double>(metrics.total_messages());
    sim_bytes += static_cast<double>(metrics.total_bytes());
  }
  const DecentralizedClusterSystem& sys = *served.system;
  const DistanceMatrix& predicted = sys.predicted();
  QueryService& service = *served.service;
  out.checks.emplace_back("setup_converged", sys.converged());

  std::size_t hops = 0;
  std::size_t local = 0;
  double compute_ns = 0.0;
  double total_ns = 0.0;
  double fresh_ms = 0.0;
  out.op_ms.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tracer.set_op(static_cast<std::int64_t>(i));
    const std::int64_t t0 = now_ns();
    QueryResult r;
    {
      Tracer::Span span(tracer, "serve.submit");
      r = service.submit(requests[i]);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    out.op_ms.push_back(ms);
    if (i < kFreshQueries) fresh_ms += ms;
    if (!answer_ok(r, requests[i].k, predicted, classes)) ++out.failed;
    ++out.queries;
    if (r.found()) ++out.found;
    hops += r.hops;
    if (r.hops == 0) ++local;
    if (r.profile) {
      compute_ns += static_cast<double>(r.profile->compute_ns);
      total_ns += static_cast<double>(r.profile->total_ns);
    }
  }
  tracer.set_op(-1);
  out.peak_rss_mb = peak_rss_mb();
  const auto stats = service.stats();
  out.checks.emplace_back("cache_never_hit", stats.cache_hits == 0);

  if (tracer.enabled()) {
    const double setups = static_cast<double>(kSetups);
    const std::size_t n_requests = requests.size();
    const double n = static_cast<double>(n_requests);
    const SpaceStats spaces = space_stats(sys.nodes());
    out.layers = {
        {"tree.embed_ms", tracer.mean_ms("tree.embed")},
        {"tree.predict_ms", tracer.mean_ms("tree.predict")},
        {"tree.max_degree", static_cast<double>(sys.overlay().max_degree())},
        {"core.converge_ms", tracer.mean_ms("core.converge")},
        {"core.converge_cycles", cycles / setups},
        {"sim.messages", sim_messages / setups},
        {"sim.bytes", sim_bytes / setups},
        {"core.space_max", spaces.max},
        {"core.space_mean", spaces.mean},
        {"core.hops_mean", static_cast<double>(hops) / n},
        {"serve.local_ratio", static_cast<double>(local) / n},
        {"serve.cache_hit_ratio", static_cast<double>(stats.cache_hits) / n},
        {"serve.compute_share", total_ns > 0.0 ? compute_ns / total_ns : 0.0},
        {"serve.publish_ms", tracer.mean_ms("serve.publish")},
        {"serve.fresh_query_ms",
         fresh_ms / static_cast<double>(std::min(kFreshQueries, n_requests))},
    };
  }
  return out;
}

}  // namespace bcc::perfbench

// Workload async-gossip: steady-state gossip periods of an AsyncOverlay on
// 317 hosts over its default SimTransport, with a seeded FaultPlan dropping
// 10% of messages.
//
// Why: the only workload that runs the EventEngine, FaultPlan retries and
// the frame codec. It is also the only one that runs the async self-CRT,
// which is recomputed every gossip round and never memoized, so one op is
// what each live node burns per period. An Algorithm 1 kernel change moves
// this op directly.
//
// Inputs: synthesize_planetlab (317 hosts, noise 0.25, 30-110 Mbps p20-p80),
// 5 classes from exp::bandwidth_grid(30, 110, 5), default
// AsyncOverlayOptions (gossip period 1 s). Set-up: build_framework, then
// gossip until no node's tables have changed for kQuietPeriods periods.
// Op: one simulated gossip period (EventEngine::run_until(now + 1 s)).
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/async_overlay.h"
#include "core/system.h"
#include "data/planetlab_synth.h"
#include "exp/common.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"
#include "sim/event_engine.h"
#include "tree/embedder.h"

namespace bcc::perfbench {

namespace {

/// The world (hosts, noise, join order, gossip timers) is fixed; the run seed
/// draws the fault plan. See README.md, "Fixed worlds".
constexpr std::uint64_t kWorldSeed = 5;
/// Set-ups per run, each timed (setup_s is their median); the last serves.
constexpr std::size_t kSetups = 6;
constexpr std::size_t kHosts = 317;
constexpr double kDropProb = 0.1;
/// Set-up ends once the tables have been quiet this many periods.
constexpr std::size_t kQuietPeriods = 3;
/// Seeded queries served from the async state after the op phase.
constexpr std::size_t kQueries = 400;
constexpr std::size_t kMaxK = 31;

/// One set-up's world, declared so that destruction runs overlay first.
struct Gossip {
  Framework fw;
  DistanceMatrix predicted;
  std::optional<FaultPlan> plan;
  std::optional<EventEngine> engine;
  std::optional<AsyncOverlay> overlay;
};

/// True when every node's tables equal the sync fixpoint's.
bool at_fixpoint(const AsyncOverlay& overlay,
                 const std::unordered_map<NodeId, std::string>& reference) {
  if (overlay.nodes().size() != reference.size()) return false;
  for (const auto& [id, node] : overlay.nodes()) {
    const auto it = reference.find(id);
    if (it == reference.end() || canonical_node_state(id, node) != it->second) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_async_gossip(const RunConfig& config, Tracer& tracer) {
  RunResult out;
  Rng world_rng(kWorldSeed);
  SynthOptions synth;
  synth.hosts = kHosts;
  synth.target_p20 = 30.0;
  synth.target_p80 = 110.0;
  const SynthDataset data = synthesize_planetlab(synth, world_rng);
  const BandwidthClasses classes =
      exp::classes_for_grid(exp::bandwidth_grid(30, 110, 5));
  const AsyncOverlayOptions options;
  const double period = options.gossip_period;

  // Ground truth, built and freed before the measured set-ups so that the
  // peak RSS holds none of it: every node's canonical state at the sync
  // fixpoint over the same (tree, predicted, classes) (the embedding is
  // deterministic), and the sync system's answers to the check queries.
  std::unordered_map<NodeId, std::string> reference;
  std::vector<QueryRequest> queries;
  std::vector<QueryResult> expected;
  bool sync_converged = false;
  {
    Rng order_rng = Rng(kWorldSeed).split(1);
    Framework fw = build_framework(data.distances, order_rng);
    DistanceMatrix predicted = fw.predicted_distances();
    DecentralizedClusterSystem sync(std::move(fw.anchors),
                                    std::move(predicted), classes);
    sync.run_to_convergence();
    sync_converged = sync.converged();
    for (const auto& [id, node] : sync.nodes()) {
      reference.emplace(id, canonical_node_state(id, node));
    }
    Rng query_rng = Rng(config.seed).split(2);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const auto start = static_cast<NodeId>(query_rng.below(kHosts));
      const std::size_t k = 2 + query_rng.below(kMaxK - 1);
      const std::size_t cls = query_rng.below(classes.size());
      queries.push_back(QueryRequest::at_class(start, k, cls));
      expected.push_back(sync.query(queries.back()));
    }
  }
  reset_peak_rss();

  Gossip g;
  double fixpoint_sim_s = 0.0;
  double sim_messages = 0.0;
  double sim_bytes = 0.0;
  for (std::size_t s = 0; s < kSetups; ++s) {
    g.overlay.reset();
    g.engine.reset();
    g.plan.reset();
    g.fw = Framework{};
    g.predicted = DistanceMatrix{};
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span span(tracer, "tree.embed");
      Rng order_rng = Rng(kWorldSeed).split(1);
      g.fw = build_framework(data.distances, order_rng);
    }
    {
      Tracer::Span span(tracer, "tree.predict");
      g.predicted = g.fw.predicted_distances();
    }
    {
      Tracer::Span span(tracer, "core.fixpoint");
      g.plan.emplace(Rng(config.seed).split(4)());
      g.plan->set_default_faults({.drop_prob = kDropProb});
      g.engine.emplace();
      AsyncOverlayOptions opts = options;
      opts.faults = &*g.plan;
      // Timer phases and jitter are part of the fixed deployment (one hub
      // round more or less per period swings an op by 2x); the run seed
      // draws the message loss.
      g.overlay.emplace(&g.fw.anchors, &g.predicted, &classes, opts,
                        Rng(kWorldSeed).split(5)());
      g.overlay->start(*g.engine);
      do {
        g.engine->run_until(g.engine->now() + period);
      } while (g.overlay->last_change() == 0.0 ||
               g.engine->now() - g.overlay->last_change() <
                   static_cast<double>(kQuietPeriods) * period);
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    fixpoint_sim_s += g.overlay->last_change();
    sim_messages += static_cast<double>(g.engine->metrics().total_messages());
    sim_bytes += static_cast<double>(g.engine->metrics().total_bytes());
  }
  AsyncOverlay& overlay = *g.overlay;
  EventEngine& engine = *g.engine;
  out.checks.emplace_back("setup_matches_sync_fixpoint",
                          sync_converged && at_fixpoint(overlay, reference));

  const std::size_t rounds0 = overlay.gossip_rounds();
  const std::size_t messages0 = engine.metrics().total_messages();
  const std::size_t bytes0 = engine.metrics().total_bytes();
  const std::size_t dropped0 = engine.metrics().dropped();
  const std::size_t retried0 = engine.metrics().retried();
  const obs::Counter& frames =
      obs::Registry::global().counter("bcc.net.frames_sent");
  const std::uint64_t frames0 = frames.value();

  out.op_ms.reserve(config.ops);
  for (std::size_t i = 0; i < config.ops; ++i) {
    tracer.set_op(static_cast<std::int64_t>(i));
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span span(tracer, "sim.gossip_period");
      engine.run_until(engine.now() + period);
    }
    out.op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    // Steady state: every period must leave the tables at the fixpoint.
    if (!overlay.healthy() || !at_fixpoint(overlay, reference)) ++out.failed;
  }
  tracer.set_op(-1);
  out.peak_rss_mb = peak_rss_mb();

  out.checks.emplace_back("final_matches_sync_fixpoint",
                          at_fixpoint(overlay, reference));

  // Answers served from the gossip state must equal the sync system's.
  const auto snapshot = snapshot_of(overlay, g.predicted, classes);
  bool answers_match = true;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const QueryResult r = snapshot->run(queries[q]);
    answers_match = answers_match &&
                    answer_ok(r, queries[q].k, g.predicted, classes) &&
                    r.status == expected[q].status &&
                    r.cluster == expected[q].cluster;
    ++out.queries;
    if (r.found()) ++out.found;
  }
  out.checks.emplace_back("answers_match_sync", answers_match);

  if (tracer.enabled()) {
    const double setups = static_cast<double>(kSetups);
    const double ops = static_cast<double>(config.ops);
    const SpaceStats spaces = space_stats(overlay.nodes());
    out.layers = {
        {"tree.embed_ms", tracer.mean_ms("tree.embed")},
        {"tree.predict_ms", tracer.mean_ms("tree.predict")},
        {"tree.max_degree", static_cast<double>(g.fw.anchors.max_degree())},
        {"core.space_max", spaces.max},
        {"core.space_mean", spaces.mean},
        {"core.converge_ms", tracer.mean_ms("core.fixpoint")},
        {"core.fixpoint_sim_s", fixpoint_sim_s / setups},
        {"sim.messages", sim_messages / setups},
        {"sim.bytes", sim_bytes / setups},
        {"core.rounds_per_op",
         static_cast<double>(overlay.gossip_rounds() - rounds0) / ops},
        {"sim.messages_per_op",
         static_cast<double>(engine.metrics().total_messages() - messages0) /
             ops},
        {"sim.bytes_per_op",
         static_cast<double>(engine.metrics().total_bytes() - bytes0) / ops},
        {"sim.dropped",
         static_cast<double>(engine.metrics().dropped() - dropped0)},
        {"sim.retried",
         static_cast<double>(engine.metrics().retried() - retried0)},
        {"net.frames_sent", static_cast<double>(frames.value() - frames0)},
    };
  }
  return out;
}

}  // namespace bcc::perfbench

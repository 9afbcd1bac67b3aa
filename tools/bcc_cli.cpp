// bcc — command-line front end for the library.
//
// Subcommands:
//   bcc gen      --out DIR --name NAME [--hosts N --noise S --p20 B --p80 B]
//                  synthesize a calibrated PlanetLab-like dataset to CSV
//   bcc preprocess --in RAW.csv --out DIR --name NAME
//                  extract the complete submatrix of a raw incomplete trace
//                  (the paper's §IV preprocessing; 0/blank = unmeasured)
//   bcc embed    --data DIR/NAME [--snapshot FILE --exhaustive]
//                  build the prediction framework, report accuracy, snapshot
//   bcc treeness --data DIR/NAME [--samples N]
//                  estimate the dataset's quartet-epsilon treeness
//   bcc query    --data DIR/NAME --k K --b MBPS [--start ID --n_cut N
//                  --repeat N --shards N --rate-qps Q --burst B
//                  --queue-limit N --explain --metrics-out FILE]
//                  run the decentralized system and answer one query through
//                  the sharded QueryService (repeats exercise the memo
//                  cache; --rate-qps/--queue-limit turn on admission
//                  control, and overloaded repeats come back shed with a
//                  stale degraded answer). --explain prints the per-query
//                  stage breakdown (queue/pin/validate/admission/cache/
//                  compute) the serving plane measured for the last repeat
//   bcc eval     --data DIR/NAME [--queries N --k K]
//                  WPR/RR sweep over the bandwidth grid (mini Fig. 3)
//   bcc chaos    --data DIR/NAME [--drop P --dup P --jitter S --crash F
//                  --metrics-out FILE]
//                  run the asynchronous gossip stack over a lossy network
//                  with crash/recover faults and check it still reaches the
//                  synchronous ground-truth fixpoint
//   bcc node     --id I --nodes N --base-port P [--seed S --n-cut C
//                  --period SEC --host ADDR --run-for SEC --metrics-out FILE
//                  --state-out FILE --flight-recorder FILE --trace-gossip
//                  --profile-hz HZ]
//                  run ONE overlay node as a real OS process: node i listens
//                  on base-port+i and gossips with its anchor-tree neighbors
//                  over TCP (reconnect/backoff, heartbeats, half-open
//                  detection). Prints "ready" once listening ("bind-failed"
//                  + exit 3 on port collision); stdin accepts the control
//                  verbs dump/close-listener/open-listener/isolate/
//                  deisolate/quit. SIGTERM/SIGINT drain and exit 0. Spawn 5
//                  of these (same --seed) and they converge to the exact
//                  fixpoint — tools/proc_supervisor automates the chaos
//                  version of that experiment
//   bcc collect  [--nodes N --base-port P --host ADDR --timeout SEC
//                  --flight-dir DIR --out DIR]
//                  scrape every node's TELEMETRY endpoint (bounded per-node
//                  deadline — dead nodes yield a partial fleet, never a
//                  hang), recover the rest from --flight-dir/*.flight crash
//                  rings, and merge: one fleet metrics registry (counters
//                  sum, histograms bucket-exact, gauges worst-observed) and
//                  one clock-aligned Perfetto timeline with cross-process
//                  flow arrows (--out DIR writes fleet_trace.json +
//                  fleet_metrics.json, plus fleet_profile.folded when any
//                  node ran with --profile-hz). Prints the fleet's p99
//                  query-latency exemplar trace id and hottest stacks when
//                  nodes report them
//   bcc top      [--nodes N --base-port P --host ADDR --interval SEC
//                  --iterations N --timeout SEC]
//                  refreshing terminal view over the same scrape: per-node
//                  frame/query rates, shed %, staleness, suspicion, span
//                  drops, plus fleet reconvergence histograms
//   bcc metrics  [--data DIR/NAME --queries N --k K --format prom|json|jsonl]
//                  run a small end-to-end pipeline (synthetic dataset when no
//                  --data) and print the global metrics registry
//   bcc trace    [--data DIR/NAME --categories LIST --capacity N
//                  --format text|jsonl|chrome --trace-id ID
//                  --flight-dir DIR --out FILE]
//                  same pipeline with span tracing enabled; dump the spans
//                  as an indented tree, JSON-lines, or a Chrome/Perfetto
//                  trace (load chrome output in ui.perfetto.dev).
//                  --trace-id keeps only that query's causal span chain
//                  (the id a result/exemplar carries); --flight-dir reads
//                  spans from crash flight rings instead of running the
//                  pipeline
//   bcc profile  [--data DIR/NAME --queries N --k K --hz HZ --mode cpu|wall
//                  --out FILE]
//                  run the same pipeline under the SIGPROF sampling
//                  profiler and write folded stacks ("outer;inner N",
//                  flamegraph.pl / speedscope input) plus a summary of the
//                  hottest stacks and inclusive per-function totals
//   bcc health   [--data DIR/NAME --drop P --dup P --jitter S --crash F
//                  --sample-period S --serve-queries N --serve-qps Q
//                  --metrics-out FILE]
//                  run the gossip stack under faults with the
//                  ConvergenceMonitor sampling bcc.conv.* and report
//                  time-to-convergence and per-node staleness, then probe
//                  the serve plane: a query burst through an
//                  admission-controlled QueryService over a snapshot of the
//                  (possibly degraded) overlay, reporting admitted/shed
//                  counts and bcc.serve.shard.* health
//
// `--metrics-out FILE` writes the global registry as one JSON object.
// Any dataset can be a user-provided measurement matrix: put it at
// DIR/NAME.bw.csv (square Mbps CSV, zero diagonal; asymmetry is averaged).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bcc.h"
#include "common/shutdown.h"
#include "exp/fig3.h"
#include "net/node_runtime.h"
#include "net/supervisor.h"
#include "net/telemetry_client.h"
#include "obs/collect.h"
#include "obs/profile.h"

namespace {

using namespace bcc;

// Snapshot-lookup name for the serve-plane latency histogram (registered in
// serve/query_service.cpp) — shared so the metric-name lint sees exactly
// one literal per instrument.
constexpr const char kQueryLatencyMetric[] = "bcc.serve.query_micros";

int cmd_gen(int argc, const char* const* argv) {
  Options opts("bcc gen", "synthesize a calibrated dataset to CSV");
  auto& out = opts.add_string("out", ".", "output directory");
  auto& name = opts.add_string("name", "synthetic", "dataset name");
  auto& hosts = opts.add_int("hosts", 150, "number of hosts");
  auto& noise = opts.add_double("noise", 0.25, "measurement noise sigma");
  auto& p20 = opts.add_double("p20", 15.0, "target 20th percentile (Mbps)");
  auto& p80 = opts.add_double("p80", 75.0, "target 80th percentile (Mbps)");
  auto& seed = opts.add_int("seed", 42, "generator seed");
  opts.parse(argc, argv);

  Rng rng(static_cast<std::uint64_t>(seed));
  SynthOptions synth;
  synth.name = name;
  synth.hosts = static_cast<std::size_t>(hosts);
  synth.noise_sigma = noise;
  synth.target_p20 = p20;
  synth.target_p80 = p80;
  const SynthDataset data = synthesize_planetlab(synth, rng);
  save_dataset(data, out);
  std::printf("wrote %s/%s.bw.csv (%zu hosts, p20=%.1f p80=%.1f Mbps)\n",
              out.c_str(), name.c_str(), data.bandwidth.size(),
              data.bandwidth.percentile(20.0), data.bandwidth.percentile(80.0));
  return 0;
}

/// Writes the global metrics registry to `path` as one JSON object.
/// No-op when `path` is empty; returns false (after complaining) on I/O
/// failure.
bool maybe_write_metrics(const std::string& path) {
  if (path.empty()) return true;
  const std::string json =
      obs::json_object(obs::Registry::global().snapshot()) + "\n";
  if (!obs::write_text_file(path, json)) {
    std::fprintf(stderr, "bcc: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

/// Splits "--data DIR/NAME" into directory and name.
bool split_data_arg(const std::string& data, std::string& dir,
                    std::string& name) {
  const auto slash = data.find_last_of('/');
  if (slash == std::string::npos) {
    dir = ".";
    name = data;
  } else {
    dir = data.substr(0, slash);
    name = data.substr(slash + 1);
  }
  return !name.empty();
}

int cmd_embed(int argc, const char* const* argv) {
  Options opts("bcc embed", "build the prediction framework for a dataset");
  auto& data_arg = opts.add_string("data", "", "DIR/NAME of the dataset");
  auto& snapshot = opts.add_string("snapshot", "", "save the framework here");
  auto& exhaustive = opts.add_bool("exhaustive", false,
                                   "exhaustive end-node search");
  auto& seed = opts.add_int("seed", 42, "join-order seed");
  opts.parse(argc, argv);
  std::string dir, name;
  if (!split_data_arg(data_arg, dir, name)) {
    std::fprintf(stderr, "bcc embed: --data DIR/NAME is required\n");
    return 1;
  }
  const SynthDataset data = load_dataset(name, dir);
  Rng rng(static_cast<std::uint64_t>(seed));
  EmbedOptions embed_options;
  embed_options.search =
      exhaustive ? EndSearch::kExhaustive : EndSearch::kAnchorDescent;
  EmbedStats stats;
  const Framework fw =
      build_framework(data.distances, rng, embed_options, &stats);
  const auto errs = relative_bandwidth_errors(data.bandwidth,
                                              fw.predicted_distances(), data.c);
  std::printf("embedded %zu hosts: %.1f probes/join, median rel. error "
              "%.3f, p90 %.3f, overlay diameter %zu\n",
              fw.prediction.host_count(),
              static_cast<double>(stats.probes) /
                  static_cast<double>(stats.joins),
              median(errs), percentile(errs, 90.0), fw.anchors.diameter());
  if (!snapshot.empty()) {
    save_framework(fw, snapshot);
    std::printf("framework snapshot written to %s\n", snapshot.c_str());
  }
  return 0;
}

int cmd_treeness(int argc, const char* const* argv) {
  Options opts("bcc treeness", "estimate quartet-epsilon treeness");
  auto& data_arg = opts.add_string("data", "", "DIR/NAME of the dataset");
  auto& samples = opts.add_int("samples", 100000, "quartets to sample");
  auto& seed = opts.add_int("seed", 42, "sampling seed");
  opts.parse(argc, argv);
  std::string dir, name;
  if (!split_data_arg(data_arg, dir, name)) {
    std::fprintf(stderr, "bcc treeness: --data DIR/NAME is required\n");
    return 1;
  }
  const SynthDataset data = load_dataset(name, dir);
  Rng rng(static_cast<std::uint64_t>(seed));
  const TreenessStats stats = estimate_treeness(
      data.distances, rng, static_cast<std::size_t>(samples));
  std::printf("eps_avg = %.4f (eps* = %.4f, max %.4f over %zu quartets)\n",
              stats.epsilon_avg, epsilon_star(stats.epsilon_avg),
              stats.epsilon_max, stats.quartets);
  return 0;
}

/// Renders one QueryProfile as the `bcc query --explain` stage table. The
/// stages telescope (each one's end is the next one's begin), so the
/// accounted row matches the total up to clock granularity.
void print_explain(const QueryProfile& p) {
  std::printf("explain: path=%s shard=%u snapshot=v%llu\n", to_string(p.path),
              p.shard, static_cast<unsigned long long>(p.snapshot_version));
  struct Row {
    const char* name;
    std::uint64_t ns;
  };
  const Row rows[] = {
      {"queue", p.queue_ns},       {"epoch-pin", p.epoch_pin_ns},
      {"validate", p.validate_ns}, {"admission", p.admission_ns},
      {"cache", p.cache_ns},       {"compute", p.compute_ns},
  };
  const double total = p.total_ns == 0 ? 1.0 : static_cast<double>(p.total_ns);
  for (const Row& row : rows) {
    std::printf("  %-10s %10.1f us  %5.1f%%\n", row.name,
                static_cast<double>(row.ns) * 1e-3,
                100.0 * static_cast<double>(row.ns) / total);
  }
  std::printf("  %-10s %10.1f us  %5.1f%% of %0.1f us total\n", "accounted",
              static_cast<double>(p.stages_ns()) * 1e-3,
              100.0 * static_cast<double>(p.stages_ns()) / total,
              static_cast<double>(p.total_ns) * 1e-3);
}

int cmd_query(int argc, const char* const* argv) {
  Options opts("bcc query", "answer one (k, b) query decentralized");
  auto& data_arg = opts.add_string("data", "", "DIR/NAME of the dataset");
  auto& k = opts.add_int("k", 10, "cluster size constraint");
  auto& b = opts.add_double("b", 40.0, "bandwidth constraint (Mbps)");
  auto& start = opts.add_int("start", 0, "entry node");
  auto& n_cut = opts.add_int("n_cut", 10, "aggregate size limit");
  auto& repeat = opts.add_int("repeat", 1,
                              "serve the query this many times (cache warms "
                              "after the first)");
  auto& shards = opts.add_int("shards", 16, "query-plane shard count");
  auto& rate_qps = opts.add_double(
      "rate-qps", 0.0,
      "admitted queries/sec per shard (0 = no token bucket)");
  auto& burst = opts.add_double("burst", 64.0, "token-bucket burst depth");
  auto& queue_limit = opts.add_int(
      "queue-limit", 0, "max in-flight queries per shard (0 = unlimited)");
  auto& explain = opts.add_bool(
      "explain", false,
      "print the serving plane's stage-by-stage latency breakdown");
  auto& metrics_out = opts.add_string("metrics-out", "",
                                      "write the metrics registry here (JSON)");
  auto& seed = opts.add_int("seed", 42, "framework seed");
  opts.parse(argc, argv);
  std::string dir, name;
  if (!split_data_arg(data_arg, dir, name)) {
    std::fprintf(stderr, "bcc query: --data DIR/NAME is required\n");
    return 1;
  }
  const SynthDataset data = load_dataset(name, dir);
  Rng rng(static_cast<std::uint64_t>(seed));
  const Framework fw = build_framework(data.distances, rng);
  SystemOptions sys_options;
  sys_options.n_cut = static_cast<std::size_t>(n_cut);
  DecentralizedClusterSystem sys(fw.anchors, fw.predicted_distances(),
                                 BandwidthClasses::uniform_grid(5, 300, 5),
                                 sys_options);
  sys.run_to_convergence();

  QueryServiceOptions serve_options;
  serve_options.shards =
      static_cast<std::size_t>(std::max(1, static_cast<int>(shards)));
  serve_options.admission.rate_qps = rate_qps;
  serve_options.admission.burst = burst;
  serve_options.admission.queue_limit =
      static_cast<std::size_t>(std::max(0, static_cast<int>(queue_limit)));
  QueryService service(sys, serve_options);
  QueryRequest request = QueryRequest::bandwidth(
      static_cast<NodeId>(start), static_cast<std::size_t>(k), b);
  if (explain) request.with_profile();
  QueryResult r;
  const int times = std::max(1, static_cast<int>(repeat));
  // SIGINT/SIGTERM drain: stop submitting, flush metrics, exit 0.
  install_shutdown_handlers();
  int completed = 0;
  for (int i = 0; i < times && !shutdown_requested(); ++i) {
    r = service.submit(request);
    ++completed;
  }
  if (shutdown_requested()) {
    std::printf("interrupted — drained after %d/%d queries\n", completed,
                times);
    maybe_write_metrics(metrics_out);
    return 0;
  }

  // A shed response can still carry a well-formed stale answer from the
  // last converged snapshot — report it, flagged, instead of failing.
  const bool shed_answer =
      r.status == QueryStatus::kShed && !r.cluster.empty();
  if (r.status != QueryStatus::kFound && !shed_answer) {
    std::printf("no cluster of %lld hosts at >= %.1f Mbps "
                "(status %s, route length %zu)\n",
                static_cast<long long>(k), b, to_string(r.status), r.hops);
    if (r.profile) print_explain(*r.profile);
    maybe_write_metrics(metrics_out);
    return 2;
  }
  if (shed_answer) {
    std::printf("shed under overload — stale answer from snapshot v%llu\n",
                static_cast<unsigned long long>(r.snapshot_version));
  }
  std::printf("cluster (%zu hops):", r.hops);
  for (NodeId h : r.cluster) std::printf(" %zu", h);
  WprAccumulator wpr;
  wpr.add_cluster(data.bandwidth, r.cluster, b);
  std::printf("\nreal-bandwidth check: %zu/%zu pairs below b (WPR %.3f)\n",
              wpr.wrong_pairs(), wpr.total_pairs(), wpr.rate());
  const QueryServiceStats stats = service.stats();
  std::printf("served %d time(s): %zu cache hits, p50 %zu us, p99 %zu us\n",
              times, static_cast<std::size_t>(stats.cache_hits),
              static_cast<std::size_t>(stats.latency_micros.quantile(50.0)),
              static_cast<std::size_t>(stats.latency_micros.quantile(99.0)));
  if (r.profile) print_explain(*r.profile);
  if (serve_options.admission.enabled()) {
    std::printf("admission (%zu shards, %.0f qps/shard): %llu admitted, "
                "%llu shed (%llu with stale answer), peak shard in-flight %zu\n",
                serve_options.shards, serve_options.admission.rate_qps,
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.shed_total()),
                static_cast<unsigned long long>(stats.shed_with_answer),
                stats.peak_shard_inflight);
  }
  const MessageMetrics& mm = sys.metrics();
  std::printf("gossip traffic: %zu msgs / %zu bytes "
              "(dropped %zu, duplicated %zu, retried %zu, suspected %zu)\n",
              mm.total_messages(), mm.total_bytes(), mm.dropped(),
              mm.duplicated(), mm.retried(), mm.suspected());
  if (!maybe_write_metrics(metrics_out)) return 1;
  return 0;
}

/// The fault flags `bcc chaos` and `bcc health` share.
struct FaultFlags {
  double& drop;
  double& dup;
  double& jitter;
  double& crash;
  std::int64_t& n_cut;
};

FaultFlags add_fault_flags(Options& opts, double default_drop) {
  return {opts.add_double("drop", default_drop, "per-message drop probability"),
          opts.add_double("dup", 0.05, "per-message duplication probability"),
          opts.add_double("jitter", 0.02,
                          "max extra delivery delay (s, reorders)"),
          opts.add_double("crash", 0.1,
                          "fraction of nodes that crash and recover"),
          opts.add_int("n_cut", 10, "aggregate size limit")};
}

/// The set-up `bcc chaos` and `bcc health` share: the framework over the
/// dataset, uniform drop/dup/jitter on every link plus staggered
/// crash/recover outages that all heal before the quiet tail, a horizon long
/// enough to reconverge, and the async overlay under that fault plan.
/// Members point at each other, so a FaultRun is built in place.
struct FaultRun {
  FaultRun(const SynthDataset& data, const FaultFlags& f, std::uint64_t seed);

  Rng rng;
  const Framework fw;
  const DistanceMatrix predicted;
  const BandwidthClasses classes = BandwidthClasses::uniform_grid(5, 300, 5);
  const std::size_t n;
  FaultPlan plan;
  const std::size_t crashers;
  const double horizon;
  AsyncOverlay async;
  EventEngine engine;
};

FaultRun::FaultRun(const SynthDataset& data, const FaultFlags& f,
                   std::uint64_t seed)
    : rng(seed),
      fw(build_framework(data.distances, rng)),
      predicted(fw.predicted_distances()),
      n(fw.prediction.host_count()),
      plan(seed + 1),
      crashers(std::min(
          n - 1, static_cast<std::size_t>(f.crash * static_cast<double>(n)))),
      horizon(10.0 + 2.0 * static_cast<double>(crashers) +
              (8.0 + 24.0 * f.drop) *
                  (static_cast<double>(fw.anchors.diameter()) + 2.0)),
      async(&fw.anchors, &predicted, &classes,
            {.n_cut = static_cast<std::size_t>(f.n_cut), .faults = &plan},
            seed + 2) {
  plan.set_default_faults(
      {.drop_prob = f.drop, .duplicate_prob = f.dup, .jitter_max = f.jitter});
  const auto order = fw.anchors.bfs_order();
  for (std::size_t i = 0; i < crashers; ++i) {
    plan.add_crash(order[1 + i], 4.0 + 2.0 * static_cast<double>(i),
                   10.0 + 2.0 * static_cast<double>(i));
  }
}

int cmd_chaos(int argc, const char* const* argv) {
  Options opts("bcc chaos",
               "async gossip under injected faults vs. the sync fixpoint");
  auto& data_arg = opts.add_string("data", "", "DIR/NAME of the dataset");
  const FaultFlags f = add_fault_flags(opts, 0.2);
  auto& metrics_out = opts.add_string("metrics-out", "",
                                      "write the metrics registry here (JSON)");
  auto& seed = opts.add_int("seed", 42, "framework + fault seed");
  opts.parse(argc, argv);
  std::string dir, name;
  if (!split_data_arg(data_arg, dir, name)) {
    std::fprintf(stderr, "bcc chaos: --data DIR/NAME is required\n");
    return 1;
  }
  if (f.drop < 0.0 || f.drop >= 1.0 || f.crash < 0.0 || f.crash > 1.0) {
    std::fprintf(stderr, "bcc chaos: need 0 <= --drop < 1, 0 <= --crash <= 1\n");
    return 1;
  }
  FaultRun run(load_dataset(name, dir), f, static_cast<std::uint64_t>(seed));
  run.async.run_for(run.engine, run.horizon);

  SystemOptions sync_options;
  sync_options.n_cut = static_cast<std::size_t>(f.n_cut);
  DecentralizedClusterSystem sync(run.fw.anchors, run.predicted, run.classes,
                                  sync_options);
  sync.run_to_convergence();
  std::size_t mismatched = 0;
  for (NodeId x : run.fw.anchors.bfs_order()) {
    auto it = run.async.nodes().find(x);
    if (it == run.async.nodes().end() ||
        canonical_node_state(x, it->second) !=
            canonical_node_state(x, sync.node(x))) {
      ++mismatched;
    }
  }

  const MessageMetrics& mm = run.engine.metrics();
  std::printf("chaos run: %zu hosts, drop %.0f%%, dup %.0f%%, jitter %.3fs, "
              "%zu crash/recover, %.1fs simulated\n",
              run.n, f.drop * 100.0, f.dup * 100.0, f.jitter, run.crashers,
              run.horizon);
  std::printf("traffic: %zu msgs / %zu bytes | dropped %zu, duplicated %zu, "
              "retried %zu, suspected %zu\n",
              mm.total_messages(), mm.total_bytes(), mm.dropped(),
              mm.duplicated(), mm.retried(), mm.suspected());
  std::printf("gossip rounds %zu, last state change at t=%.2fs, healthy: %s\n",
              run.async.gossip_rounds(), run.async.last_change(),
              run.async.healthy() ? "yes" : "no");
  if (!maybe_write_metrics(metrics_out)) return 1;
  if (mismatched != 0) {
    std::printf("FIXPOINT MISMATCH: %zu node tables differ from the "
                "synchronous ground truth\n",
                mismatched);
    return 2;
  }
  std::printf("fixpoint check: all tables match the synchronous ground truth\n");
  return 0;
}

/// Loads DIR/NAME when given, otherwise synthesizes a small in-memory
/// dataset so `bcc metrics` / `bcc trace` run without any files.
SynthDataset dataset_or_synthetic(const std::string& data_arg,
                                  std::uint64_t seed, const char* cmd) {
  std::string dir, name;
  if (split_data_arg(data_arg, dir, name)) return load_dataset(name, dir);
  Rng rng(seed);
  SynthOptions synth;
  synth.name = "inline";
  synth.hosts = 60;
  std::fprintf(stderr, "%s: no --data given, using a synthetic %zu-host "
               "dataset\n", cmd, synth.hosts);
  return synthesize_planetlab(synth, rng);
}

/// Shared pipeline for `bcc metrics` / `bcc trace`: embed, converge the
/// cycle engine, churn the maintainer (tree spans), run the async overlay
/// under mild loss (gossip spans, fault counters), then serve a query mix
/// through the QueryService (serve spans, cache hits). Exercises every
/// instrumented layer so the export shows live numbers.
void run_observed_pipeline(const SynthDataset& data, std::uint64_t seed,
                           std::size_t queries, std::size_t k) {
  Rng rng(seed);
  const Framework fw = build_framework(data.distances, rng);
  const DistanceMatrix predicted = fw.predicted_distances();
  const BandwidthClasses classes = BandwidthClasses::uniform_grid(5, 300, 5);
  const std::size_t n = fw.prediction.host_count();

  // Tree maintenance churn: a join/leave pair over a fresh maintainer.
  FrameworkMaintainer maint(&data.distances);
  for (NodeId h = 0; h < n; ++h) maint.join(h);
  maint.leave(n / 2);

  // Async gossip under mild loss (feeds fault counters + gossip spans).
  FaultPlan plan(seed + 1);
  plan.set_default_faults({.drop_prob = 0.1, .duplicate_prob = 0.02,
                           .jitter_max = 0.01});
  AsyncOverlayOptions async_options;
  async_options.faults = &plan;
  AsyncOverlay async(&fw.anchors, &predicted, &classes, async_options,
                     seed + 2);
  EventEngine engine;
  async.run_for(engine,
                10.0 * (static_cast<double>(fw.anchors.diameter()) + 2.0));

  // Cycle-driven engine to convergence (sim spans + cycle histogram).
  DecentralizedClusterSystem sys(fw.anchors, predicted, classes);
  sys.run_to_convergence();

  // Serve a query mix; every other request repeats, so the cache hit ratio
  // lands near 0.5.
  QueryService service(sys);
  std::vector<QueryRequest> batch;
  batch.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    const NodeId start = static_cast<NodeId>((i / 2) % n);
    batch.push_back(QueryRequest::at_class(start, k, (i / 2) % 3));
  }
  service.submit_batch(batch);
}

int cmd_metrics(int argc, const char* const* argv) {
  Options opts("bcc metrics",
               "run a small pipeline and print the metrics registry");
  auto& data_arg = opts.add_string("data", "",
                                   "DIR/NAME of the dataset (optional)");
  auto& queries = opts.add_int("queries", 40, "queries to serve");
  auto& k = opts.add_int("k", 5, "cluster size constraint");
  auto& format = opts.add_string("format", "prom",
                                 "output format: prom | json | jsonl");
  auto& out = opts.add_string("out", "", "write here instead of stdout");
  auto& seed = opts.add_int("seed", 42, "pipeline seed");
  opts.parse(argc, argv);
  if (format != "prom" && format != "json" && format != "jsonl") {
    std::fprintf(stderr, "bcc metrics: --format must be prom, json or jsonl\n");
    return 1;
  }
  const SynthDataset data = dataset_or_synthetic(
      data_arg, static_cast<std::uint64_t>(seed), "bcc metrics");
  run_observed_pipeline(data, static_cast<std::uint64_t>(seed),
                        static_cast<std::size_t>(queries),
                        static_cast<std::size_t>(k));
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  const std::string text = format == "prom"  ? obs::prometheus_text(snap)
                           : format == "json" ? obs::json_object(snap) + "\n"
                                              : obs::json_lines(snap);
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else if (!obs::write_text_file(out, text)) {
    std::fprintf(stderr, "bcc metrics: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

/// Parses "sim,gossip,serve" etc. ("all" = every category) into enable
/// calls on the global tracer. Returns false on an unknown category name.
bool enable_categories(const std::string& list) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (list == "all") {
    tracer.enable_all();
    return true;
  }
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string token = list.substr(begin, end - begin);
    bool known = false;
    for (std::size_t c = 0; c < obs::kSpanCategoryCount; ++c) {
      const auto category = static_cast<obs::SpanCategory>(c);
      if (token == obs::to_string(category)) {
        tracer.enable(category);
        known = true;
      }
    }
    if (!known) {
      std::fprintf(stderr, "bcc trace: unknown category '%s'\n", token.c_str());
      return false;
    }
    begin = end + 1;
  }
  return true;
}

int cmd_trace(int argc, const char* const* argv) {
  Options opts("bcc trace",
               "run a small pipeline with span tracing on and dump the spans");
  auto& data_arg = opts.add_string("data", "",
                                   "DIR/NAME of the dataset (optional)");
  auto& categories = opts.add_string(
      "categories", "all", "comma list of sim,gossip,serve,tree,bench");
  auto& capacity = opts.add_int("capacity", 4096, "span ring capacity");
  auto& json = opts.add_bool("json", false,
                             "dump spans as JSON-lines (same as "
                             "--format jsonl)");
  auto& format = opts.add_string("format", "",
                                 "output format: text | jsonl | chrome");
  auto& trace_id_arg = opts.add_string(
      "trace-id", "0",
      "keep only this trace id's causal span chain (0 = everything; accepts "
      "the id a query result or histogram exemplar carries)");
  auto& flight_dir = opts.add_string(
      "flight-dir", "",
      "read spans from DIR/*.flight crash rings instead of running the "
      "pipeline");
  auto& out = opts.add_string("out", "", "write here instead of stdout");
  auto& queries = opts.add_int("queries", 40, "queries to serve");
  auto& k = opts.add_int("k", 5, "cluster size constraint");
  auto& seed = opts.add_int("seed", 42, "pipeline seed");
  opts.parse(argc, argv);
  std::string fmt = format;
  if (fmt.empty()) fmt = json ? "jsonl" : "text";
  if (fmt != "text" && fmt != "jsonl" && fmt != "chrome") {
    std::fprintf(stderr, "bcc trace: --format must be text, jsonl or chrome\n");
    return 1;
  }
  const std::uint64_t want_trace =
      std::strtoull(trace_id_arg.c_str(), nullptr, 0);

  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<obs::SpanRecord> spans;
  if (!flight_dir.empty()) {
    // Post-mortem mode: every span the crash rings preserved, no pipeline.
    std::vector<obs::NodeTelemetry> fleet;
    if (obs::augment_missing_from_flight(flight_dir, &fleet) == 0) {
      std::fprintf(stderr, "bcc trace: no readable *.flight ring in %s\n",
                   flight_dir.c_str());
      return 2;
    }
    for (const obs::NodeTelemetry& t : fleet) {
      spans.insert(spans.end(), t.spans.begin(), t.spans.end());
    }
  } else {
    tracer.set_capacity(static_cast<std::size_t>(std::max<long long>(
        1, static_cast<long long>(capacity))));
    if (!enable_categories(categories)) return 1;

    const SynthDataset data = dataset_or_synthetic(
        data_arg, static_cast<std::uint64_t>(seed), "bcc trace");
    run_observed_pipeline(data, static_cast<std::uint64_t>(seed),
                          static_cast<std::size_t>(queries),
                          static_cast<std::size_t>(k));
    spans = tracer.snapshot();
  }
  if (want_trace != 0) {
    const std::size_t before = spans.size();
    spans = obs::filter_trace(spans, want_trace);
    std::fprintf(stderr, "trace %llu: %zu of %zu spans\n",
                 static_cast<unsigned long long>(want_trace), spans.size(),
                 before);
  }
  std::string text;
  if (fmt == "jsonl") {
    text = obs::trace_json_lines(spans);
  } else if (fmt == "chrome") {
    text = obs::chrome_trace_json(spans);
  } else {
    // Indent children under their parent (parents always complete after
    // their children, so depth needs the full id set, not ordering).
    std::map<std::uint64_t, const obs::SpanRecord*> by_id;
    for (const obs::SpanRecord& s : spans) by_id[s.id] = &s;
    for (const obs::SpanRecord& s : spans) {
      int depth = 0;
      for (auto p = by_id.find(s.parent);
           p != by_id.end() && depth < 16;
           p = by_id.find(p->second->parent)) {
        ++depth;
      }
      char line[256];
      std::snprintf(line, sizeof line, "%*s[%s] %s  %llu us", 2 * depth, "",
                    obs::to_string(s.category), s.name,
                    static_cast<unsigned long long>(s.wall_duration_us()));
      text += line;
      if (s.sim_begin >= 0.0 && s.sim_end >= 0.0) {
        std::snprintf(line, sizeof line, "  (sim %.3fs..%.3fs)", s.sim_begin,
                      s.sim_end);
        text += line;
      }
      text += '\n';
    }
  }
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else if (obs::write_text_file(out, text)) {
    std::fprintf(stderr, "trace written to %s\n", out.c_str());
  } else {
    std::fprintf(stderr, "bcc trace: cannot write %s\n", out.c_str());
    return 1;
  }
  if (flight_dir.empty()) {
    std::fprintf(stderr, "%zu spans kept (%llu started, %llu overwritten)\n",
                 spans.size(),
                 static_cast<unsigned long long>(tracer.started()),
                 static_cast<unsigned long long>(tracer.dropped()));
  } else {
    std::fprintf(stderr, "%zu spans recovered from %s\n", spans.size(),
                 flight_dir.c_str());
  }
  return 0;
}

int cmd_profile(int argc, const char* const* argv) {
  Options opts("bcc profile",
               "run the observed pipeline under the sampling profiler");
  auto& data_arg = opts.add_string("data", "",
                                   "DIR/NAME of the dataset (optional)");
  auto& queries = opts.add_int("queries", 400, "queries to serve");
  auto& k = opts.add_int("k", 5, "cluster size constraint");
  auto& hz = opts.add_int("hz", 99, "samples per second (clamped to 1..1000)");
  auto& mode = opts.add_string("mode", "cpu",
                               "what the timer counts down against: cpu "
                               "(SIGPROF, where cycles go) | wall (SIGALRM, "
                               "sees blocking)");
  auto& out = opts.add_string(
      "out", "", "write folded stacks here (flamegraph.pl/speedscope input)");
  auto& seed = opts.add_int("seed", 42, "pipeline seed");
  opts.parse(argc, argv);
  if (mode != "cpu" && mode != "wall") {
    std::fprintf(stderr, "bcc profile: --mode must be cpu or wall\n");
    return 1;
  }

  obs::SamplingProfiler::Options po;
  po.hz = static_cast<int>(hz);
  po.mode = mode == "cpu" ? obs::SamplingProfiler::Mode::kCpu
                          : obs::SamplingProfiler::Mode::kWall;
  obs::SamplingProfiler& profiler = obs::SamplingProfiler::global();
  if (!profiler.start(po)) {
    std::fprintf(stderr,
                 "bcc profile: a profiler is already armed in this process\n");
    return 1;
  }

  const SynthDataset data = dataset_or_synthetic(
      data_arg, static_cast<std::uint64_t>(seed), "bcc profile");
  run_observed_pipeline(data, static_cast<std::uint64_t>(seed),
                        static_cast<std::size_t>(queries),
                        static_cast<std::size_t>(k));
  profiler.stop();
  profiler.publish_metrics();

  // Summary on stderr so `bcc profile > stacks.folded` pipes clean data.
  // Leaves skip the signal frames every sample ends in.
  const auto stacks = profiler.folded();
  std::uint64_t total = 0;
  for (const auto& entry : stacks) total += entry.second;
  std::fprintf(stderr,
               "%llu samples (%llu dropped) at %d Hz %s, hottest stacks:\n",
               static_cast<unsigned long long>(profiler.samples()),
               static_cast<unsigned long long>(profiler.dropped()),
               po.hz, mode.c_str());
  for (std::size_t i = 0; i < stacks.size() && i < 10; ++i) {
    std::fprintf(stderr, "  %8llu  %s\n",
                 static_cast<unsigned long long>(stacks[i].second),
                 std::string(obs::stack_leaf(stacks[i].first)).c_str());
  }
  const auto functions = obs::inclusive_totals(stacks);
  std::fprintf(stderr, "hottest functions (inclusive samples):\n");
  for (std::size_t i = 0; i < functions.size() && i < 15; ++i) {
    std::fprintf(stderr, "  %8llu  %5.1f%%  %s\n",
                 static_cast<unsigned long long>(functions[i].second),
                 100.0 * static_cast<double>(functions[i].second) /
                     static_cast<double>(total),
                 functions[i].first.c_str());
  }
  const std::string folded = profiler.folded_text();
  if (out.empty()) {
    std::fputs(folded.c_str(), stdout);
  } else if (obs::write_text_file(out, folded)) {
    std::printf("folded stacks written to %s (feed to flamegraph.pl or "
                "speedscope)\n",
                out.c_str());
  } else {
    std::fprintf(stderr, "bcc profile: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}

int cmd_health(int argc, const char* const* argv) {
  Options opts("bcc health",
               "convergence health of the gossip stack under faults");
  auto& data_arg = opts.add_string("data", "",
                                   "DIR/NAME of the dataset (optional)");
  const FaultFlags f = add_fault_flags(opts, 0.3);
  auto& period = opts.add_double("sample-period", 0.5,
                                 "seconds of sim time between health samples");
  auto& serve_queries = opts.add_int(
      "serve-queries", 256, "serve-plane probe: query burst size (0 = skip)");
  auto& serve_qps = opts.add_double(
      "serve-qps", 50.0,
      "serve-plane probe: admitted queries/sec per shard");
  auto& metrics_out = opts.add_string("metrics-out", "",
                                      "write the metrics registry here (JSON)");
  auto& seed = opts.add_int("seed", 42, "framework + fault seed");
  opts.parse(argc, argv);
  if (f.drop < 0.0 || f.drop >= 1.0 || f.crash < 0.0 || f.crash > 1.0 ||
      period <= 0.0) {
    std::fprintf(stderr, "bcc health: need 0 <= --drop < 1, "
                         "0 <= --crash <= 1, --sample-period > 0\n");
    return 1;
  }

  FaultRun run(dataset_or_synthetic(data_arg, static_cast<std::uint64_t>(seed),
                                   "bcc health"),
               f, static_cast<std::uint64_t>(seed));
  ConvergenceProbe probe(&run.async, &run.fw.anchors, &run.predicted,
                         &run.classes, static_cast<std::size_t>(f.n_cut),
                         &run.engine);
  obs::ConvergenceMonitor monitor(&obs::Registry::global(), probe.sampler());
  run.async.start(run.engine);
  ConvergenceProbe::schedule_sampling(run.engine, monitor, period,
                                      run.horizon);
  run.engine.run_until(run.horizon);
  monitor.sample();  // final verdict at the horizon

  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  std::printf("health run: %zu hosts, drop %.0f%%, dup %.0f%%, "
              "%zu crash/recover, %.1fs simulated, sampled every %.2fs\n",
              run.n, f.drop * 100.0, f.dup * 100.0, run.crashers, run.horizon,
              period);
  std::printf("converged: %s", monitor.converged() ? "yes" : "NO");
  if (monitor.converged_at() >= 0.0) {
    std::printf(" (first full fixpoint match at t=%.2fs)", monitor.converged_at());
  }
  std::printf("\n");
  std::printf("drift: %zu/%.0f nodes off the sync fixpoint "
              "(fraction %.3f) | down %.0f | suspected links %.0f | "
              "suspicion churn %llu\n",
              static_cast<std::size_t>(snap.gauge_value("bcc.conv.drifted_nodes")),
              snap.gauge_value("bcc.conv.nodes"),
              snap.gauge_value("bcc.conv.drift_fraction"),
              snap.gauge_value("bcc.conv.down_nodes"),
              snap.gauge_value("bcc.conv.suspected_links"),
              static_cast<unsigned long long>(
                  snap.counter_value("bcc.conv.suspicion_churn")));
  auto print_hist = [&snap](const char* name, const char* label) {
    const obs::Histogram::Snapshot* h = snap.histogram(name);
    if (h == nullptr || h->count == 0) {
      std::printf("%s: no samples\n", label);
      return;
    }
    std::printf("%s: n=%llu p50 ~%llu ms, p90 ~%llu ms, max %llu ms\n", label,
                static_cast<unsigned long long>(h->count),
                static_cast<unsigned long long>(h->quantile(50.0)),
                static_cast<unsigned long long>(h->quantile(90.0)),
                static_cast<unsigned long long>(h->max));
  };
  print_hist("bcc.conv.staleness_ms", "staleness");
  print_hist("bcc.conv.node_convergence_ms", "per-node convergence time");
  print_hist("bcc.conv.time_to_convergence_ms", "time to convergence");

  // Serve-plane probe: snapshot the overlay as it ended (degraded when
  // nodes are still down or suspected) and push a query burst through an
  // admission-controlled QueryService — the overload block of the health
  // report. The burst deliberately exceeds the token budget so shedding
  // behavior (and stale-answer coverage) is visible.
  if (serve_queries > 0) {
    DecentralizedClusterSystem seed_sys(
        run.fw.anchors, run.predicted, run.classes,
        {.n_cut = static_cast<std::size_t>(f.n_cut)});
    QueryServiceOptions serve_options;
    serve_options.threads = 2;
    serve_options.admission.rate_qps = std::max(1.0, serve_qps);
    serve_options.admission.burst = 8.0;
    serve_options.admission.queue_limit = 4;
    QueryService service(seed_sys, serve_options);
    service.refresh(*snapshot_of(run.async, run.predicted, run.classes));

    Rng probe_rng(static_cast<std::uint64_t>(seed) + 3);
    std::vector<QueryRequest> burst;
    burst.reserve(static_cast<std::size_t>(serve_queries));
    for (int i = 0; i < static_cast<int>(serve_queries); ++i) {
      QueryRequest request = QueryRequest::at_class(
          static_cast<NodeId>(probe_rng.below(run.n)), 2 + probe_rng.below(8),
          probe_rng.below(run.classes.size()));
      if (i % 8 == 0) request = request.with_priority(QueryPriority::kHigh);
      burst.push_back(request);
    }
    service.submit_batch(burst);  // warm pass: seeds the stale caches
    const auto replies = service.submit_batch(burst);
    std::size_t degraded = 0;
    for (const QueryResult& reply : replies) {
      if (reply.degraded) ++degraded;
    }
    const QueryServiceStats stats = service.stats();
    std::printf("serve plane: %zu-query burst x2 over %zu shards "
                "(%.0f qps/shard): %llu admitted, %llu shed "
                "(%llu with stale answer), %zu/%zu degraded replies, "
                "peak shard in-flight %zu, snapshots in limbo %zu\n",
                burst.size(), service.options().shards,
                serve_options.admission.rate_qps,
                static_cast<unsigned long long>(stats.admitted),
                static_cast<unsigned long long>(stats.shed_total()),
                static_cast<unsigned long long>(stats.shed_with_answer),
                degraded, replies.size(), stats.peak_shard_inflight,
                service.snapshots_in_limbo());
  }

  if (!maybe_write_metrics(metrics_out)) return 1;
  return monitor.converged() ? 0 : 2;
}

int cmd_eval(int argc, const char* const* argv) {
  Options opts("bcc eval", "WPR/RR sweep over the bandwidth grid");
  auto& data_arg = opts.add_string("data", "", "DIR/NAME of the dataset");
  auto& k = opts.add_int("k", 10, "cluster size constraint");
  auto& queries = opts.add_int("queries", 20, "queries per grid point");
  auto& rounds = opts.add_int("rounds", 5, "frameworks (seeds)");
  auto& seed = opts.add_int("seed", 42, "experiment seed");
  opts.parse(argc, argv);
  std::string dir, name;
  if (!split_data_arg(data_arg, dir, name)) {
    std::fprintf(stderr, "bcc eval: --data DIR/NAME is required\n");
    return 1;
  }
  const SynthDataset data = load_dataset(name, dir);
  bcc::exp::Fig3Params params;
  params.k = static_cast<std::size_t>(k);
  params.queries_per_b = static_cast<std::size_t>(queries);
  params.rounds = static_cast<std::size_t>(rounds);
  params.b_min = data.bandwidth.percentile(20.0);
  params.b_max = data.bandwidth.percentile(80.0);
  const bcc::exp::Fig3Result r =
      bcc::exp::run_fig3(data, params, static_cast<std::uint64_t>(seed));
  TablePrinter table({"b_mbps", "WPR decentral", "WPR central", "WPR eucl",
                      "RR decentral"});
  for (const auto& row : r.rows) {
    table.add_numeric_row({row.b, row.wpr_tree_decentral, row.wpr_tree_central,
                           row.wpr_eucl_central, row.rr_tree_decentral});
  }
  table.print();
  std::printf("median prediction error: tree %.3f | euclidean %.3f\n",
              r.tree_median_error, r.eucl_median_error);
  return 0;
}

int cmd_preprocess(int argc, const char* const* argv) {
  Options opts("bcc preprocess",
               "extract a complete submatrix from a raw incomplete trace");
  auto& in = opts.add_string("in", "", "raw trace CSV (0/blank = unmeasured)");
  auto& out = opts.add_string("out", ".", "output directory");
  auto& name = opts.add_string("name", "trace", "output dataset name");
  opts.parse(argc, argv);
  if (in.empty()) {
    std::fprintf(stderr, "bcc preprocess: --in FILE is required\n");
    return 1;
  }
  const PartialBandwidthMatrix raw = load_partial_bandwidth_csv(in);
  const auto subset = extract_complete_subset(raw);
  if (subset.size() < 2) {
    std::fprintf(stderr, "bcc preprocess: no complete submatrix of size >= 2 "
                         "(raw has %zu/%zu pairs missing)\n",
                 raw.total_missing(),
                 raw.size() * (raw.size() - 1) / 2);
    return 2;
  }
  const BandwidthMatrix complete = complete_submatrix(raw, subset);
  save_bandwidth_csv(out + "/" + name + ".bw.csv", complete);
  std::printf("kept %zu of %zu nodes (the paper kept 190/459 and 317/497); "
              "wrote %s/%s.bw.csv\nkept ids:",
              subset.size(), raw.size(), out.c_str(), name.c_str());
  for (NodeId h : subset) std::printf(" %zu", h);
  std::printf("\n");
  return 0;
}

int cmd_node(int argc, const char* const* argv) {
  Options opts("bcc node", "run one overlay node as a real OS process");
  auto& id = opts.add_int("id", 0, "this node's id (0..nodes-1)");
  auto& nodes = opts.add_int("nodes", 5, "cluster size (process count)");
  auto& base_port = opts.add_int("base-port", 23800,
                                 "node i listens on base-port + i");
  auto& host = opts.add_string("host", "127.0.0.1", "bind/dial address");
  auto& seed = opts.add_int("seed", 1,
                            "shared world seed (same in every process)");
  auto& n_cut = opts.add_int("n-cut", 5, "aggregate size limit");
  auto& period = opts.add_double("period", 0.05,
                                 "gossip period in wall seconds");
  auto& run_for = opts.add_double(
      "run-for", 0.0, "exit after this many seconds (0 = until quit/signal)");
  auto& metrics_out = opts.add_string("metrics-out", "",
                                      "write the metrics registry here (JSON)");
  auto& state_out = opts.add_string("state-out", "",
                                    "write the final state dump here");
  auto& flight = opts.add_string(
      "flight-recorder", "",
      "mmap crash flight recorder path (implies --trace-gossip)");
  auto& trace_gossip = opts.add_bool(
      "trace-gossip", false,
      "record gossip spans for the telemetry endpoint (`bcc collect`)");
  auto& profile_hz = opts.add_int(
      "profile-hz", 0,
      "arm the sampling profiler at this rate; folded stacks ride the "
      "telemetry endpoint (0 = off)");
  opts.parse(argc, argv);
  install_shutdown_handlers();
  net::ProcessNodeOptions po;
  po.id = static_cast<NodeId>(id);
  po.n_nodes = static_cast<std::size_t>(nodes);
  po.world_seed = static_cast<std::uint64_t>(seed);
  po.n_cut = static_cast<std::size_t>(n_cut);
  po.gossip_period = period;
  po.base_port = static_cast<std::uint16_t>(base_port);
  po.host = host;
  po.run_for = run_for;
  po.metrics_out = metrics_out;
  po.state_out = state_out;
  po.flight_recorder = flight;
  po.trace_gossip = trace_gossip;
  po.profile_hz = static_cast<int>(profile_hz);
  net::ProcessNode node(po);
  if (!node.bind()) {
    // The supervisor watches for exactly this line to re-roll its port base.
    std::printf("bind-failed\n");
    std::fflush(stdout);
    return 3;
  }
  return node.run(STDIN_FILENO, std::cout);
}

/// Shared by collect/top: the fleet's listen endpoints from (host, base
/// port, n) — the same port map every `bcc node` process uses.
std::vector<net::Endpoint> fleet_endpoints(const std::string& host,
                                           int base_port, int nodes) {
  std::vector<net::Endpoint> endpoints;
  for (int i = 0; i < nodes; ++i) {
    net::Endpoint e;
    e.host = host;
    e.port = static_cast<std::uint16_t>(base_port + i);
    endpoints.push_back(e);
  }
  return endpoints;
}

int cmd_collect(int argc, const char* const* argv) {
  Options opts("bcc collect",
               "scrape a node fleet's telemetry and merge one timeline");
  auto& nodes = opts.add_int("nodes", 5, "fleet size (ports scraped)");
  auto& base_port = opts.add_int("base-port", 23800,
                                 "node i listens on base-port + i");
  auto& host = opts.add_string("host", "127.0.0.1", "fleet address");
  auto& timeout = opts.add_double(
      "timeout", 1.0, "per-node scrape deadline (s; dead nodes cost this)");
  auto& flight_dir = opts.add_string(
      "flight-dir", "",
      "recover nodes the scrape missed from DIR/*.flight rings");
  auto& out = opts.add_string(
      "out", "", "write fleet_trace.json + fleet_metrics.json into DIR");
  opts.parse(argc, argv);

  std::vector<obs::NodeTelemetry> fleet;
  const std::size_t live = net::scrape_fleet(
      fleet_endpoints(host, base_port, nodes), timeout, &fleet);
  std::size_t recovered = 0;
  if (!flight_dir.empty()) {
    recovered = obs::augment_missing_from_flight(flight_dir, &fleet);
  }
  if (fleet.empty()) {
    std::fprintf(stderr, "bcc collect: no node answered on %s:%d..%d%s\n",
                 host.c_str(), static_cast<int>(base_port),
                 static_cast<int>(base_port) + static_cast<int>(nodes) - 1,
                 flight_dir.empty() ? "" : " and no flight ring was readable");
    return 2;
  }

  std::size_t total_spans = 0;
  for (const obs::NodeTelemetry& t : fleet) {
    total_spans += t.spans.size();
    std::printf("node %u pid %u [%s]: %zu spans, frames tx/rx %llu/%llu, "
                "spans dropped %llu\n",
                t.node, t.pid, t.recovered ? "flight" : "live",
                t.spans.size(),
                static_cast<unsigned long long>(
                    t.metrics.counter_value("bcc.net.frames_sent")),
                static_cast<unsigned long long>(
                    t.metrics.counter_value("bcc.net.frames_received")),
                static_cast<unsigned long long>(
                    t.metrics.counter_value("bcc.trace.spans_dropped")));
  }
  const obs::RegistrySnapshot merged = obs::merge_fleet_metrics(fleet);
  std::printf("fleet: %zu live + %zu recovered of %d nodes, %zu spans | "
              "frames sent %llu, spans dropped %llu\n",
              live, recovered, static_cast<int>(nodes), total_spans,
              static_cast<unsigned long long>(
                  merged.counter_value("bcc.net.frames_sent")),
              static_cast<unsigned long long>(
                  merged.counter_value("bcc.trace.spans_dropped")));
  // Tail-latency exemplar: the freshest trace id near the fleet's p99 query
  // latency — `bcc trace --trace-id <id> --flight-dir ...` pulls its chain.
  if (const obs::Histogram::Snapshot* h =
          merged.histogram(kQueryLatencyMetric)) {
    if (const obs::Exemplar* ex = h->exemplar_near(99.0)) {
      std::printf("p99 query exemplar: trace %llu (%llu us)\n",
                  static_cast<unsigned long long>(ex->trace_id),
                  static_cast<unsigned long long>(ex->value));
    }
  }
  const auto profile = obs::merge_fleet_profiles(fleet);
  if (!profile.empty()) {
    std::printf("fleet profile: %zu distinct stacks, hottest:\n",
                profile.size());
    for (std::size_t i = 0; i < profile.size() && i < 5; ++i) {
      std::printf("  %8llu  %s\n",
                  static_cast<unsigned long long>(profile[i].second),
                  std::string(obs::stack_leaf(profile[i].first)).c_str());
    }
  }
  if (!out.empty()) {
    if (!net::ProcessSupervisor::write_fleet_artifacts(fleet, out)) {
      std::fprintf(stderr, "bcc collect: cannot write artifacts into %s\n",
                   out.c_str());
      return 1;
    }
    std::printf("wrote %s/fleet_trace.json (load in ui.perfetto.dev) and "
                "%s/fleet_metrics.json\n",
                out.c_str(), out.c_str());
    if (!profile.empty()) {
      std::string folded;
      char line[64];
      for (const auto& [stack, n] : profile) {
        folded += stack;
        std::snprintf(line, sizeof line, " %llu\n",
                      static_cast<unsigned long long>(n));
        folded += line;
      }
      if (obs::write_text_file(out + "/fleet_profile.folded", folded)) {
        std::printf("wrote %s/fleet_profile.folded\n", out.c_str());
      }
    }
  }
  return 0;
}

int cmd_top(int argc, const char* const* argv) {
  Options opts("bcc top", "refreshing fleet health view over live telemetry");
  auto& nodes = opts.add_int("nodes", 5, "fleet size (ports scraped)");
  auto& base_port = opts.add_int("base-port", 23800,
                                 "node i listens on base-port + i");
  auto& host = opts.add_string("host", "127.0.0.1", "fleet address");
  auto& interval = opts.add_double("interval", 1.0,
                                   "seconds between refreshes");
  auto& iterations = opts.add_int(
      "iterations", 0, "stop after this many refreshes (0 = until ^C)");
  auto& timeout = opts.add_double("timeout", 0.3, "per-node scrape deadline");
  opts.parse(argc, argv);
  if (interval <= 0.0) {
    std::fprintf(stderr, "bcc top: --interval must be > 0\n");
    return 1;
  }
  install_shutdown_handlers();

  // Previous scrape per node: sender steady-clock us + the counters rates
  // are derived from. The node's own clock spacing is the rate denominator,
  // so collector-side scheduling jitter never skews the rates.
  struct Prev {
    std::uint64_t wall_us = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t queries = 0;
  };
  std::map<std::uint32_t, Prev> prev;
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  for (int round = 0; iterations == 0 || round < iterations; ++round) {
    std::vector<obs::NodeTelemetry> fleet;
    net::scrape_fleet(fleet_endpoints(host, base_port, nodes), timeout,
                      &fleet);
    if (shutdown_requested()) break;

    std::string screen;
    char line[256];
    std::snprintf(line, sizeof line,
                  "bcc top — %zu/%d nodes answering on %s:%d (refresh %.1fs)"
                  "\n\n",
                  fleet.size(), static_cast<int>(nodes), host.c_str(),
                  static_cast<int>(base_port), static_cast<double>(interval));
    screen += line;
    std::snprintf(line, sizeof line,
                  "%5s %7s %9s %7s %6s %9s %6s %6s %14s\n",
                  "node", "pid", "frames/s", "qps", "shed%", "stale-ms",
                  "susp", "drop", "p99-trace");
    screen += line;
    for (const obs::NodeTelemetry& t : fleet) {
      const std::uint64_t frames =
          t.metrics.counter_value("bcc.net.frames_sent");
      const std::uint64_t queries =
          t.metrics.counter_value("bcc.serve.queries");
      // Rates need two samples from the SAME node incarnation with real
      // clock spacing between them. First sight, a restarted node (counters
      // went backwards), or zero spacing (re-scrape inside the sender's
      // clock granularity) render "--" rather than a nan/inf or a
      // nonsense negative rate.
      double frames_rate = 0.0, query_rate = 0.0;
      bool have_rates = false;
      const auto p = prev.find(t.node);
      if (p != prev.end() && t.wall_now_us > p->second.wall_us &&
          frames >= p->second.frames_sent && queries >= p->second.queries) {
        const double dt =
            static_cast<double>(t.wall_now_us - p->second.wall_us) * 1e-6;
        frames_rate =
            static_cast<double>(frames - p->second.frames_sent) / dt;
        query_rate = static_cast<double>(queries - p->second.queries) / dt;
        have_rates = true;
      }
      prev[t.node] = Prev{t.wall_now_us, frames, queries};
      char frames_buf[16], qps_buf[16];
      if (have_rates) {
        std::snprintf(frames_buf, sizeof frames_buf, "%.1f", frames_rate);
        std::snprintf(qps_buf, sizeof qps_buf, "%.1f", query_rate);
      } else {
        std::snprintf(frames_buf, sizeof frames_buf, "--");
        std::snprintf(qps_buf, sizeof qps_buf, "--");
      }

      const std::uint64_t admitted =
          t.metrics.counter_value("bcc.serve.shard.admitted");
      const std::uint64_t shed = t.metrics.counter_value(
                                     "bcc.serve.shard.shed") +
                                 t.metrics.counter_value(
                                     "bcc.serve.shard.shed_with_answer");
      const double shed_pct =
          admitted + shed == 0
              ? 0.0
              : 100.0 * static_cast<double>(shed) /
                    static_cast<double>(admitted + shed);
      const obs::Histogram::Snapshot* stale =
          t.metrics.histogram(obs::kStalenessHistogramName);
      char stale_buf[32];
      if (stale != nullptr && stale->count > 0) {
        std::snprintf(stale_buf, sizeof stale_buf, "%llu/%llu",
                      static_cast<unsigned long long>(stale->quantile(50.0)),
                      static_cast<unsigned long long>(stale->quantile(99.0)));
      } else {
        std::snprintf(stale_buf, sizeof stale_buf, "-");
      }
      // The node's slowest recent query, by name: the trace id riding the
      // p99 bucket of its latency histogram (feed to `bcc trace
      // --trace-id`). "-" until a traced query lands in that bucket.
      char exemplar_buf[24];
      std::snprintf(exemplar_buf, sizeof exemplar_buf, "-");
      if (const obs::Histogram::Snapshot* qh =
              t.metrics.histogram(kQueryLatencyMetric)) {
        if (const obs::Exemplar* ex = qh->exemplar_near(99.0)) {
          std::snprintf(exemplar_buf, sizeof exemplar_buf, "%llu",
                        static_cast<unsigned long long>(ex->trace_id));
        }
      }
      std::snprintf(
          line, sizeof line, "%5u %7u %9s %7s %6.1f %9s %6.0f %6llu %14s\n",
          t.node, t.pid, frames_buf, qps_buf, shed_pct, stale_buf,
          t.metrics.gauge_value("bcc.conv.suspected_links"),
          static_cast<unsigned long long>(
              t.metrics.counter_value("bcc.trace.spans_dropped")),
          exemplar_buf);
      screen += line;
    }

    // Fleet-wide reconvergence footer: merged bucket-exact histograms.
    const obs::RegistrySnapshot merged = obs::merge_fleet_metrics(fleet);
    screen += "\nreconvergence (fleet, ms):\n";
    const char* hists[] = {"bcc.conv.time_to_convergence_ms",
                           "bcc.conv.reconverge_congestion_ms",
                           "bcc.conv.reconverge_flash_crowd_ms",
                           "bcc.conv.reconverge_region_degrade_ms"};
    for (const char* name : hists) {
      const obs::Histogram::Snapshot* h = merged.histogram(name);
      if (h == nullptr || h->count == 0) continue;
      std::snprintf(line, sizeof line,
                    "  %-38s n=%-6llu p50 ~%llu  p99 ~%llu  max %llu\n",
                    name, static_cast<unsigned long long>(h->count),
                    static_cast<unsigned long long>(h->quantile(50.0)),
                    static_cast<unsigned long long>(h->quantile(99.0)),
                    static_cast<unsigned long long>(h->max));
      screen += line;
    }
    if (screen.back() != '\n') screen += '\n';

    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    std::fputs(screen.c_str(), stdout);
    std::fflush(stdout);
    if (shutdown_requested() ||
        (iterations != 0 && round + 1 >= iterations)) {
      break;
    }
    ::usleep(static_cast<useconds_t>(interval * 1e6));
    if (shutdown_requested()) break;
  }
  return 0;
}

void usage() {
  std::fputs(
      "bcc — bandwidth-constrained clustering in tree metric spaces\n"
      "usage: bcc <gen|preprocess|embed|treeness|query|eval|chaos|metrics|"
      "trace|profile|health|node|collect|top> [--help] [options]\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string cmd = argv[1];
  // Shift argv so each subcommand parses its own flags.
  const int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  try {
    if (cmd == "gen") return cmd_gen(sub_argc, sub_argv);
    if (cmd == "preprocess") return cmd_preprocess(sub_argc, sub_argv);
    if (cmd == "embed") return cmd_embed(sub_argc, sub_argv);
    if (cmd == "treeness") return cmd_treeness(sub_argc, sub_argv);
    if (cmd == "query") return cmd_query(sub_argc, sub_argv);
    if (cmd == "eval") return cmd_eval(sub_argc, sub_argv);
    if (cmd == "chaos") return cmd_chaos(sub_argc, sub_argv);
    if (cmd == "metrics") return cmd_metrics(sub_argc, sub_argv);
    if (cmd == "trace") return cmd_trace(sub_argc, sub_argv);
    if (cmd == "profile") return cmd_profile(sub_argc, sub_argv);
    if (cmd == "health") return cmd_health(sub_argc, sub_argv);
    if (cmd == "node") return cmd_node(sub_argc, sub_argv);
    if (cmd == "collect") return cmd_collect(sub_argc, sub_argv);
    if (cmd == "top") return cmd_top(sub_argc, sub_argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcc %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage();
  return 1;
}

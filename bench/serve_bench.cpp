// Serving-plane benchmarks (google-benchmark): the costs of the sharded
// query plane — epoch-protected snapshot reads, per-shard cache lookups,
// the load-shedding path, and the ISSUE's overload acceptance scenario
// (offered load >= 4x capacity; admitted-query p99 vs the uncontended p99).
//
// Results are exported machine-readably like micro_bench: the main() below
// mirrors every run into BENCH_serve.json via obs::BenchReport, and
// tools/bench_smoke.sh diffs the fast subset against the committed
// bench/BENCH_serve.json baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json_reporter.h"
#include "core/system.h"
#include "data/topology_gen.h"
#include "exp/common.h"
#include "obs/bench_report.h"
#include "serve/epoch.h"
#include "serve/query_service.h"
#include "tree/embedder.h"

namespace {

using namespace bcc;

DistanceMatrix tree_metric_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TopologyOptions options;
  options.hosts = n;
  return generate_topology(options, rng).distances();
}

// One shared 200-node converged system plus a mixed 4096-request stream
// (built lazily — only benches that serve queries pay for it).
struct ServeFixture {
  std::unique_ptr<DecentralizedClusterSystem> sys;
  std::vector<QueryRequest> requests;
};

const ServeFixture& serve_fixture() {
  static const ServeFixture fixture = [] {
    ServeFixture f;
    const std::size_t n = 200;
    const DistanceMatrix d = tree_metric_of(n, 40);
    Rng rng(41);
    Framework fw = build_framework(d, rng);
    const BandwidthClasses classes =
        exp::classes_for_grid(exp::bandwidth_grid(15.0, 75.0, 5));
    f.sys = std::make_unique<DecentralizedClusterSystem>(
        fw.anchors, fw.predicted_distances(), classes, SystemOptions{});
    f.sys->run_to_convergence();
    Rng query_rng(42);
    f.requests.reserve(4096);
    for (std::size_t i = 0; i < 4096; ++i) {
      f.requests.push_back(QueryRequest::at_class(
          static_cast<NodeId>(query_rng.below(n)), 2 + query_rng.below(12),
          query_rng.below(classes.size())));
    }
    return f;
  }();
  return fixture;
}

double p99_of(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx =
      std::min(samples.size() - 1, (samples.size() * 99) / 100);
  return samples[idx];
}

void BM_EpochPin(benchmark::State& state) {
  // The per-query snapshot access cost: one pin (CAS + verify load), one
  // pointer load, one unpin — what replaced the PR-1 mutex + refcount bump.
  EpochPtr<std::uint64_t> ptr(std::make_shared<const std::uint64_t>(42));
  for (auto _ : state) {
    EpochPtr<std::uint64_t>::ReadGuard guard = ptr.read();
    benchmark::DoNotOptimize(*guard);
  }
}
BENCHMARK(BM_EpochPin);

void BM_EpochPublish(benchmark::State& state) {
  // Writer-side swap with no pinned readers: release-store + epoch advance
  // + immediate limbo reclamation. Rare in production (once per gossip
  // restructuring) but bounds how often refresh() can run.
  EpochPtr<std::uint64_t> ptr(std::make_shared<const std::uint64_t>(0));
  std::uint64_t v = 1;
  for (auto _ : state) {
    ptr.publish(std::make_shared<const std::uint64_t>(v++));
  }
  benchmark::DoNotOptimize(ptr.limbo_size());
}
BENCHMARK(BM_EpochPublish);

void BM_ShardedQuerySubmit(benchmark::State& state) {
  // Warm-cache submit(): epoch pin + shard hash + memo-cache hit. range(0)
  // is the shard count — 1 concentrates every key in one cache map, 16 is
  // the production default.
  const ServeFixture& f = serve_fixture();
  QueryServiceOptions options;
  options.threads = 1;
  options.shards = static_cast<std::size_t>(state.range(0));
  QueryService service(*f.sys, options);
  service.submit_batch(f.requests);  // warm every shard's cache
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.submit(f.requests[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedQuerySubmit)->Arg(1)->Arg(16);

void BM_ShardedQueryUncached(benchmark::State& state) {
  // Full routing work per submit (cache off): what a cache miss costs on
  // the sharded plane, directly comparable to BM_QueryProcess in
  // micro_bench (same Algorithm 4, plus the serving-plane envelope).
  const ServeFixture& f = serve_fixture();
  QueryServiceOptions options;
  options.threads = 1;
  options.cache_enabled = false;
  QueryService service(*f.sys, options);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.submit(f.requests[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardedQueryUncached);

void BM_ShardedQueryShed(benchmark::State& state) {
  // The load-shedding path: token bucket empty, answer served from the
  // stale cache (last converged snapshot) with no routing work. The cold
  // bucket's burst admits exactly the warmup pass, so every timed submit
  // sheds with a stale answer.
  const ServeFixture& f = serve_fixture();
  QueryServiceOptions options;
  options.threads = 1;
  options.shards = 1;  // one bucket, so the warmup drains it exactly
  options.admission.rate_qps = 1e-6;  // never meaningfully refills
  options.admission.burst = static_cast<double>(f.requests.size());
  QueryService service(*f.sys, options);
  service.submit_batch(f.requests);  // admitted via cold burst; warms stale
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.submit(f.requests[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const QueryServiceStats stats = service.stats();
  state.counters["shed_answer_share"] =
      stats.shed_total() == 0
          ? 0.0
          : static_cast<double>(stats.shed_with_answer) /
                static_cast<double>(stats.shed_total());
}
BENCHMARK(BM_ShardedQueryShed);

void BM_ShardedQueryOverload(benchmark::State& state) {
  // The overload acceptance scenario: offered load 4x the admitted
  // capacity, so ~3/4 of queries shed; the admitted ones are served
  // synchronously with no queueing, so their p99 should track
  // uncontended_p99_us (the p99_ratio counter is the acceptance number).
  //
  // The submitter is *paced* to 4x capacity rather than running full
  // speed: token refill is proportional to elapsed wall time, so under
  // unbounded offered load the only admitted submits are exactly the ones
  // whose measured window straddled a scheduler pause — the p99 would
  // measure preemption, not serving. A single paced submitter keeps the
  // 1-CPU container's scheduler out of the measurement.
  const ServeFixture& f = serve_fixture();

  QueryServiceOptions options;
  options.threads = 1;
  options.shards = 16;
  options.admission.rate_qps = 1000.0;  // 16k qps capacity service-wide
  // Large cold burst so the warmup pass below is admitted in full — the
  // admitted-vs-uncontended comparison must be warm-cache on both sides.
  options.admission.burst = 512.0;
  options.admission.queue_limit = 4;

  const double capacity =
      options.admission.rate_qps * static_cast<double>(options.shards);
  const double offered_x = 4.0;
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / (offered_x * capacity)));

  std::vector<double> base_us;  // uncontended reference: no admission
  {
    QueryServiceOptions base_options;
    base_options.threads = 1;
    QueryService service(*f.sys, base_options);
    service.submit_batch(f.requests);  // warm
    base_us.reserve(2 * f.requests.size());
    // Paced identically to the overload loop: both runs must expose the
    // same share of submits to the container's scheduler noise.
    auto base_next = std::chrono::steady_clock::now();
    for (int pass = 0; pass < 2; ++pass) {
      for (const QueryRequest& request : f.requests) {
        while (std::chrono::steady_clock::now() < base_next) {
        }
        base_next += interval;
        const auto t0 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(service.submit(request));
        base_us.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
      }
    }
  }

  QueryService service(*f.sys, options);
  service.submit_batch(f.requests);  // warm fresh + stale (cold burst)

  std::vector<double> admitted_us;
  std::uint64_t total = 0;
  std::uint64_t shed = 0;
  double elapsed_sec = 0.0;
  auto next = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const auto pass_t0 = std::chrono::steady_clock::now();
    for (const QueryRequest& request : f.requests) {
      while (std::chrono::steady_clock::now() < next) {
        // spin: pacing must not yield the CPU (a sleep would batch refills)
      }
      next += interval;
      const auto t0 = std::chrono::steady_clock::now();
      const QueryResult r = service.submit(request);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      ++total;
      if (r.status == QueryStatus::kShed) {
        ++shed;
      } else {
        admitted_us.push_back(us);
      }
    }
    elapsed_sec += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - pass_t0)
                       .count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total));
  const double offered =
      elapsed_sec > 0.0 ? static_cast<double>(total) / elapsed_sec : 0.0;
  const double base_p99 = p99_of(base_us);
  state.counters["uncontended_p99_us"] = base_p99;
  state.counters["admitted_p99_us"] = p99_of(admitted_us);
  state.counters["p99_ratio"] =
      base_p99 > 0.0 ? p99_of(admitted_us) / base_p99 : 0.0;
  state.counters["overload_x"] = capacity > 0.0 ? offered / capacity : 0.0;
  state.counters["shed_share"] =
      total == 0 ? 0.0
                 : static_cast<double>(shed) / static_cast<double>(total);
}
BENCHMARK(BM_ShardedQueryOverload)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bcc::obs::BenchReport report("serve");
  bcc::BenchJsonReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!report.write()) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n",
                 report.path().c_str());
    return 1;
  }
  std::fprintf(stderr, "benchmark telemetry written to %s\n",
               report.path().c_str());
  return 0;
}

// Quickstart: the whole bcc pipeline in ~60 lines.
//
// 1. Get bandwidth measurements (here: a synthetic PlanetLab-like dataset).
// 2. Build the decentralized bandwidth-prediction framework (§II.D) — hosts
//    join one by one, measuring only O(log n) peers each.
// 3. Stand up the decentralized clustering system (Algorithms 2-3 gossip).
// 4. Serve a batch of (k, b) queries through the QueryService (Algorithm 4
//    fanned over a thread pool, all against one immutable snapshot) and
//    inspect the structured results.
#include <cstdio>
#include <vector>

#include "bcc.h"

int main() {
  using namespace bcc;

  // 1. A 100-host network whose pairwise bandwidth we "measured".
  Rng rng(2026);
  SynthOptions data_options;
  data_options.hosts = 100;
  const SynthDataset data = synthesize_planetlab(data_options, rng);
  std::printf("dataset: %zu hosts, pairwise bandwidth %.0f..%.0f Mbps\n",
              data.bandwidth.size(), data.bandwidth.percentile(0),
              data.bandwidth.percentile(100));

  // 2. Embed the measurements into a prediction tree; the anchor tree is the
  //    overlay the clustering protocols will run on.
  const Framework fw = build_framework(data.distances, rng);
  std::printf("prediction framework: %zu hosts, overlay diameter %zu hops\n",
              fw.prediction.host_count(), fw.anchors.diameter());

  // 3. The decentralized clustering system: bandwidth classes every 10 Mbps,
  //    each node aggregates at most n_cut = 10 close nodes per neighbor.
  SystemOptions options;
  options.n_cut = 10;
  DecentralizedClusterSystem sys(fw.anchors, fw.predicted_distances(),
                                 BandwidthClasses::uniform_grid(10, 200, 10),
                                 options);
  const std::size_t cycles = sys.run_to_convergence();
  std::printf("gossip converged in %zu cycles (%zu messages)\n", cycles,
              sys.metrics().total_messages());

  // 4. Serve a batch of queries concurrently: "k hosts with >= b Mbps
  //    between every pair", entering the overlay at different hosts. The
  //    service snapshots the converged state once; every query in the batch
  //    is answered against that same snapshot.
  QueryServiceOptions serve_options;
  serve_options.threads = 4;
  QueryService service(sys, serve_options);
  const std::vector<QueryRequest> batch = {
      QueryRequest::bandwidth(/*start=*/17, /*k=*/8, /*b_mbps=*/40.0),
      QueryRequest::bandwidth(/*start=*/3, /*k=*/12, /*b_mbps=*/25.0),
      QueryRequest::bandwidth(/*start=*/64, /*k=*/5, /*b_mbps=*/90.0),
      QueryRequest::bandwidth(/*start=*/0, /*k=*/6, /*b_mbps=*/10000.0),
  };
  const std::vector<QueryResult> results = service.submit_batch(batch);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    std::printf("query %zu (start=%zu k=%zu b=%.0f): %s", i, batch[i].start,
                batch[i].k, *batch[i].bandwidth_mbps(), to_string(r.status));
    if (!r.found()) {
      std::printf("\n");
      continue;
    }
    std::printf(", %zu hops, %zu us:", r.hops,
                static_cast<std::size_t>(r.micros));
    for (NodeId h : r.cluster) std::printf(" %zu", h);
    std::printf("\n");

    // Check the answer against the real (noisy) measurements.
    WprAccumulator wpr;
    wpr.add_cluster(data.bandwidth, r.cluster, *batch[i].bandwidth_mbps());
    std::printf("  real-bandwidth check: %zu/%zu pairs below the constraint "
                "(WPR %.3f)\n",
                wpr.wrong_pairs(), wpr.total_pairs(), wpr.rate());
  }

  // The service accounts every query it serves — statuses, cache hits,
  // latency and hop histograms, shedding — in one plain struct:
  const QueryServiceStats stats = service.stats();
  std::printf("served %zu queries: %zu found, %zu not_found, "
              "%zu unsatisfiable, p99 latency <= %zu us\n",
              static_cast<std::size_t>(stats.total()),
              static_cast<std::size_t>(stats.count(QueryStatus::kFound)),
              static_cast<std::size_t>(stats.count(QueryStatus::kNotFound)),
              static_cast<std::size_t>(
                  stats.count(QueryStatus::kBandwidthUnsatisfiable)),
              static_cast<std::size_t>(stats.latency_micros.quantile(99.0)));
  return 0;
}

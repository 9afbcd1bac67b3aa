// Umbrella header for the bcc library — bandwidth-constrained clustering in
// tree metric spaces (Song, Keleher & Sussman, ICDCS 2011).
//
// Quickstart: see examples/quickstart.cpp, or:
//
//   bcc::Rng rng(42);
//   auto data = bcc::make_hp_planetlab(rng);                 // dataset
//   auto fw = bcc::build_framework(data.distances, rng);     // embed (§II.D)
//   bcc::DecentralizedClusterSystem sys(
//       fw.anchors, fw.predicted_distances(),
//       bcc::BandwidthClasses::uniform_grid(5, 300, 5));
//   sys.run_to_convergence();                                // Algs 2–3
//
//   // One-off query (Alg 4) — status tells you *why* when nothing comes back:
//   auto r = sys.query(bcc::QueryRequest::bandwidth(/*start=*/0, 10, 50.0));
//   if (r.status == bcc::QueryStatus::kFound) use(r.cluster);
//
//   // Heavy traffic: batched, thread-pooled serving over an immutable
//   // snapshot (refresh() after restructuring; serving never blocks it):
//   bcc::QueryService service(sys, {.threads = 8});
//   auto results = service.submit_batch(requests);           // one snapshot
//   auto stats = service.stats();   // statuses, hops, latency, shedding
//   auto p99_us = stats.latency_micros.quantile(99.0);
#pragma once

#include "common/csv.h"
#include "common/options.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/async_overlay.h"
#include "core/bandwidth_classes.h"
#include "core/churn.h"
#include "core/convergence_probe.h"
#include "core/exhaustive_baseline.h"
#include "core/find_cluster.h"
#include "core/node_search.h"
#include "core/partition.h"
#include "core/query.h"
#include "core/system.h"
#include "data/completion.h"
#include "data/dataset_io.h"
#include "data/dynamics.h"
#include "data/latency_synth.h"
#include "data/planetlab_synth.h"
#include "data/subsets.h"
#include "data/topology_gen.h"
#include "euclid/kdiameter.h"
#include "metric/bandwidth.h"
#include "net/frame.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "metric/distance_matrix.h"
#include "metric/four_point.h"
#include "obs/bench_report.h"
#include "obs/convergence.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "serve/thread_pool.h"
#include "stats/accuracy.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"
#include "tree/distance_label.h"
#include "tree/embedder.h"
#include "tree/maintenance.h"
#include "tree/serialization.h"
#include "vivaldi/vivaldi.h"
#include "workload/scheduler.h"
#include "workload/workflow.h"

// The serving layer: QueryStatus branches of the redesigned query API,
// QueryService batching/caching/stats, and the snapshot-swap concurrency
// contract (run under ThreadSanitizer via tools/sanitize.sh).
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

/// A converged decentralized system over a random perfect tree metric.
DecentralizedClusterSystem make_system(std::size_t n, std::size_t n_cut,
                                       std::uint64_t seed,
                                       double c = kDefaultTransformC) {
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(seed + 77);
  Framework fw = build_framework(real, order_rng);
  DistanceMatrix predicted = fw.predicted_distances();
  const double dmax = predicted.max_distance();
  BandwidthClasses classes(
      {c / dmax, c / (dmax * 0.6), c / (dmax * 0.3), c / (dmax * 0.1)}, c);
  SystemOptions options;
  options.n_cut = n_cut;
  DecentralizedClusterSystem sys(std::move(fw.anchors), std::move(predicted),
                                 std::move(classes), options);
  sys.run_to_convergence();
  EXPECT_TRUE(sys.converged());
  return sys;
}

void expect_route_acyclic(const QueryResult& r) {
  auto route = r.route;
  std::sort(route.begin(), route.end());
  EXPECT_EQ(std::adjacent_find(route.begin(), route.end()), route.end());
}

// ---------------------------------------------------------------- statuses

TEST(QueryStatusApi, FoundCarriesClusterRouteAndClass) {
  auto sys = make_system(20, 100, 1);
  const auto r = sys.query(QueryRequest::at_class(3, 4, 0));
  ASSERT_EQ(r.status, QueryStatus::kFound);
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.cluster.size(), 4u);
  EXPECT_EQ(r.class_idx, std::optional<std::size_t>(0));
  ASSERT_FALSE(r.route.empty());
  EXPECT_EQ(r.route.front(), 3u);
  EXPECT_EQ(r.route.size(), r.hops + 1);
  EXPECT_TRUE(cluster_satisfies(sys.predicted(), r.cluster, 4,
                                sys.classes().distance_at(0)));
}

TEST(QueryStatusApi, NotFoundWhenKExceedsPopulation) {
  auto sys = make_system(15, 100, 2);
  const auto r = sys.query(QueryRequest::at_class(0, 16, 0));
  EXPECT_EQ(r.status, QueryStatus::kNotFound);
  EXPECT_TRUE(r.cluster.empty());
  EXPECT_FALSE(r.found());
}

TEST(QueryStatusApi, InvalidK) {
  auto sys = make_system(10, 4, 3);
  const auto r = sys.query(QueryRequest::at_class(0, 1, 0));
  EXPECT_EQ(r.status, QueryStatus::kInvalidK);
  EXPECT_TRUE(r.cluster.empty());
  EXPECT_TRUE(r.route.empty());
}

TEST(QueryStatusApi, BandwidthUnsatisfiable) {
  auto sys = make_system(10, 4, 4);
  const double b_max =
      sys.classes().bandwidth_at(sys.classes().size() - 1);
  // b stricter than every class.
  const auto r = sys.query(QueryRequest::bandwidth(0, 2, b_max * 2.0));
  EXPECT_EQ(r.status, QueryStatus::kBandwidthUnsatisfiable);
  // Out-of-range explicit class index reports the same way.
  const auto r2 = sys.query(QueryRequest::at_class(0, 2, 99));
  EXPECT_EQ(r2.status, QueryStatus::kBandwidthUnsatisfiable);
  // A request with no constraint at all satisfies nothing.
  QueryRequest unconstrained;
  unconstrained.start = 0;
  unconstrained.k = 2;
  const auto r3 = sys.query(unconstrained);
  EXPECT_EQ(r3.status, QueryStatus::kBandwidthUnsatisfiable);
}

TEST(QueryStatusApi, UnknownStart) {
  auto sys = make_system(10, 4, 5);
  const auto r = sys.query(QueryRequest::at_class(99, 2, 0));
  EXPECT_EQ(r.status, QueryStatus::kUnknownStart);
}

TEST(QueryStatusApi, BandwidthSnapsUpToServingClass) {
  auto sys = make_system(20, 100, 6);
  const double b1 = sys.classes().bandwidth_at(1);
  const auto r = sys.query(QueryRequest::bandwidth(0, 2, b1 * 0.95));
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.class_idx, std::optional<std::size_t>(1));  // snapped up
}

TEST(QueryStatusApi, SnapUpAccessor) {
  auto sys = make_system(8, 4, 7);
  const auto& classes = sys.classes();
  EXPECT_EQ(classes.snap_up(classes.bandwidth_at(0)),
            std::optional<std::size_t>(0));
  EXPECT_EQ(classes.snap_up(classes.bandwidth_at(0) * 0.5),
            std::optional<std::size_t>(0));
  EXPECT_FALSE(
      classes.snap_up(classes.bandwidth_at(classes.size() - 1) * 1.01));
}

TEST(QueryStatusApi, ConstraintVariantsAgree) {
  // The two constraint alternatives are interchangeable when the bandwidth
  // snaps to the same class: bandwidth(b) must serve identically to
  // at_class(snap_up(b)).
  auto sys = make_system(25, 8, 8);
  for (std::size_t cls = 0; cls < sys.classes().size(); ++cls) {
    const double b = sys.classes().bandwidth_at(cls);
    for (std::size_t k : {2ul, 4ul, 9ul}) {
      for (NodeId start : {0ul, 12ul, 24ul}) {
        const auto by_class = sys.query(QueryRequest::at_class(start, k, cls));
        const auto by_bandwidth =
            sys.query(QueryRequest::bandwidth(start, k, b));
        EXPECT_EQ(by_class.status, by_bandwidth.status);
        EXPECT_EQ(by_class.cluster, by_bandwidth.cluster);
        EXPECT_EQ(by_class.hops, by_bandwidth.hops);
        EXPECT_EQ(by_class.route, by_bandwidth.route);
        EXPECT_EQ(by_class.class_idx, by_bandwidth.class_idx);
      }
    }
  }
}

TEST(QueryStatusApi, RequestChainersSetServingFields) {
  auto req = QueryRequest::bandwidth(3, 5, 40.0)
                 .with_deadline(2500)
                 .with_priority(QueryPriority::kHigh);
  EXPECT_EQ(req.deadline_micros, 2500u);
  EXPECT_EQ(req.priority, QueryPriority::kHigh);
  EXPECT_EQ(req.bandwidth_mbps(), std::optional<double>(40.0));
  EXPECT_FALSE(req.explicit_class().has_value());
  const auto cls = QueryRequest::at_class(3, 5, 2);
  EXPECT_EQ(cls.explicit_class(), std::optional<std::size_t>(2));
  EXPECT_FALSE(cls.bandwidth_mbps().has_value());
  EXPECT_EQ(cls.priority, QueryPriority::kNormal);  // default
}

// ------------------------------------------------------------ QueryService

TEST(QueryService, BatchAnswersMatchDirectQueries) {
  auto sys = make_system(30, 8, 10);
  QueryServiceOptions options;
  options.threads = 4;
  QueryService service(sys, options);

  std::vector<QueryRequest> batch;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    batch.push_back(QueryRequest::at_class(
        static_cast<NodeId>(rng.below(30)), 2 + rng.below(8),
        rng.below(sys.classes().size())));
  }
  const auto results = service.submit_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto direct = sys.query(batch[i]);
    EXPECT_EQ(results[i].status, direct.status) << "i=" << i;
    EXPECT_EQ(results[i].cluster, direct.cluster) << "i=" << i;
    EXPECT_EQ(results[i].snapshot_version, 1u);
  }
}

TEST(QueryService, EmptyBatch) {
  auto sys = make_system(10, 4, 12);
  QueryService service(sys, {});
  EXPECT_TRUE(service.submit_batch({}).empty());
}

TEST(QueryService, CacheHitsAreCountedAndConsistent) {
  auto sys = make_system(20, 8, 13);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);

  const auto req = QueryRequest::at_class(5, 4, 0);
  const auto first = service.submit(req);
  const auto second = service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(first.status, second.status);
  EXPECT_EQ(first.cluster, second.cluster);
  EXPECT_EQ(first.route, second.route);
}

TEST(QueryService, CacheCanBeDisabled) {
  auto sys = make_system(20, 8, 14);
  QueryServiceOptions options;
  options.threads = 2;
  options.cache_enabled = false;
  QueryService service(sys, options);
  const auto req = QueryRequest::at_class(5, 4, 0);
  service.submit(req);
  service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(QueryService, RefreshSwapsSnapshotAndInvalidatesCache) {
  auto sys = make_system(20, 8, 15);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);
  EXPECT_EQ(service.snapshot_version(), 1u);

  const auto req = QueryRequest::at_class(2, 3, 1);
  service.submit(req);
  service.submit(req);
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // Restructure: scale the predicted metric (still a tree metric) and
  // re-converge, then publish the new state to the service.
  DistanceMatrix scaled = sys.predicted();
  for (NodeId u = 0; u < scaled.size(); ++u) {
    for (NodeId v = u + 1; v < scaled.size(); ++v) {
      scaled.set(u, v, scaled.at(u, v) * 1.1);
    }
  }
  sys.refresh(std::move(scaled));
  service.refresh(sys);
  EXPECT_EQ(service.snapshot_version(), 2u);

  const auto after = service.submit(req);
  EXPECT_EQ(after.snapshot_version, 2u);
  EXPECT_EQ(service.stats().cache_hits, 1u);  // no hit across the swap
}

TEST(QueryService, UnconvergedSnapshotServesDegradedResults) {
  auto sys = make_system(20, 100, 42);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);
  const auto req = QueryRequest::at_class(0, 4, 0);
  EXPECT_FALSE(service.submit(req).degraded);  // converged system

  // Install a snapshot captured mid-disruption (converged = false): every
  // result served from it — found, not-found, or argument error — carries
  // the degraded flag.
  SystemSnapshot disrupted = *snapshot_of(sys);
  disrupted.converged = false;
  service.refresh(std::move(disrupted));
  const auto degraded = service.submit(req);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.found());  // still a well-formed answer
  EXPECT_TRUE(service.submit(QueryRequest::at_class(0, 1, 0)).degraded);
  for (const auto& r :
       service.submit_batch(std::vector<QueryRequest>{req, req})) {
    EXPECT_TRUE(r.degraded);
  }

  // A healthy refresh clears the flag.
  service.refresh(sys);
  EXPECT_FALSE(service.submit(req).degraded);
}

TEST(QueryService, StatsCountStatusesHopsAndLatency) {
  auto sys = make_system(20, 100, 16);
  QueryServiceOptions options;
  options.threads = 2;
  options.cache_enabled = false;
  QueryService service(sys, options);

  std::vector<QueryRequest> batch = {
      QueryRequest::at_class(0, 2, 0),      // found
      QueryRequest::at_class(1, 2, 0),      // found
      QueryRequest::at_class(0, 21, 0),     // not found (k > n)
      QueryRequest::at_class(0, 1, 0),      // invalid k
      QueryRequest::at_class(0, 2, 99),     // unsatisfiable
      QueryRequest::at_class(99, 2, 0),     // unknown start
  };
  service.submit_batch(batch);

  const auto stats = service.stats();
  EXPECT_EQ(stats.count(QueryStatus::kFound), 2u);
  EXPECT_EQ(stats.count(QueryStatus::kNotFound), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kInvalidK), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kBandwidthUnsatisfiable), 1u);
  EXPECT_EQ(stats.count(QueryStatus::kUnknownStart), 1u);
  EXPECT_EQ(stats.total(), batch.size());

  // Hop histogram only counts routed queries (found / not-found).
  EXPECT_EQ(stats.hops.count, 3u);

  // Latency histogram counts every query; percentile is monotone in p.
  EXPECT_EQ(stats.latency_micros.count, batch.size());
  EXPECT_LE(stats.latency_micros.quantile(50.0),
            stats.latency_micros.quantile(99.0));
  EXPECT_LE(stats.latency_micros.quantile(99.0), stats.latency_micros.max);

  service.reset_stats();
  const auto reset = service.stats();
  EXPECT_EQ(reset.total(), 0u);
  EXPECT_EQ(reset.hops.count, 0u);
  EXPECT_EQ(reset.latency_micros.count, 0u);
}

TEST(QueryService, ToStringCoversEveryStatus) {
  EXPECT_STREQ(to_string(QueryStatus::kFound), "found");
  EXPECT_STREQ(to_string(QueryStatus::kNotFound), "not_found");
  EXPECT_STREQ(to_string(QueryStatus::kInvalidK), "invalid_k");
  EXPECT_STREQ(to_string(QueryStatus::kBandwidthUnsatisfiable),
               "bandwidth_unsatisfiable");
  EXPECT_STREQ(to_string(QueryStatus::kUnknownStart), "unknown_start");
  EXPECT_STREQ(to_string(QueryStatus::kShed), "shed");
  EXPECT_STREQ(to_string(QueryPriority::kLow), "low");
  EXPECT_STREQ(to_string(QueryPriority::kNormal), "normal");
  EXPECT_STREQ(to_string(QueryPriority::kHigh), "high");
}

// ------------------------------------------------------------- concurrency

// N submitter threads fire mixed batches while the main thread restructures
// the system and swaps service snapshots. Every result must be
// status-consistent with the exact snapshot version it reports, and no route
// may cycle. (tools/sanitize.sh runs this under ThreadSanitizer.)
TEST(QueryService, ConcurrentBatchesRaceSnapshotSwaps) {
  const std::size_t n = 30;
  auto sys = make_system(n, 8, 17);
  QueryServiceOptions options;
  options.threads = 4;
  options.shards = 4;
  QueryService service(sys, options);

  // Retain every snapshot ever published so results can be re-validated
  // against the exact state that served them.
  std::map<std::uint64_t, std::shared_ptr<const SystemSnapshot>> published;
  auto retain = [&] {
    const auto snap = service.snapshot();
    published[snap->version] = snap;
  };
  retain();

  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kBatchesPerThread = 6;
  constexpr std::size_t kBatchSize = 120;
  std::atomic<bool> failed{false};
  std::vector<std::vector<QueryResult>> collected(kSubmitters);
  std::vector<std::vector<QueryRequest>> sent(kSubmitters);

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(100 + t);
      for (std::size_t round = 0; round < kBatchesPerThread; ++round) {
        std::vector<QueryRequest> batch;
        batch.reserve(kBatchSize);
        for (std::size_t i = 0; i < kBatchSize; ++i) {
          switch (rng.below(5)) {
            case 0:  // plausible class query
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), 2 + rng.below(10),
                  rng.below(4)));
              break;
            case 1:  // bandwidth query
              batch.push_back(QueryRequest::bandwidth(
                  static_cast<NodeId>(rng.below(n)), 2 + rng.below(10),
                  1.0 + static_cast<double>(rng.below(100))));
              break;
            case 2:  // invalid k
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), rng.below(2), 0));
              break;
            case 3:  // bad class
              batch.push_back(QueryRequest::at_class(
                  static_cast<NodeId>(rng.below(n)), 3, 50 + rng.below(10)));
              break;
            default:  // unknown start
              batch.push_back(
                  QueryRequest::at_class(n + rng.below(10), 3, 0));
              break;
          }
        }
        auto results = service.submit_batch(batch);
        if (results.size() != batch.size()) {
          failed = true;
          return;
        }
        sent[t].insert(sent[t].end(), batch.begin(), batch.end());
        collected[t].insert(collected[t].end(), results.begin(),
                            results.end());
      }
    });
  }

  // Meanwhile: restructure + swap snapshots, racing the batches above.
  Rng refresh_rng(999);
  for (int swap = 0; swap < 3; ++swap) {
    DistanceMatrix scaled = sys.predicted();
    const double factor = 0.9 + 0.1 * static_cast<double>(swap);
    for (NodeId u = 0; u < scaled.size(); ++u) {
      for (NodeId v = u + 1; v < scaled.size(); ++v) {
        scaled.set(u, v, scaled.at(u, v) * factor);
      }
    }
    sys.refresh(std::move(scaled));
    service.refresh(sys);
    retain();
  }

  for (auto& thread : submitters) thread.join();
  ASSERT_FALSE(failed.load());

  std::size_t checked = 0;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    ASSERT_EQ(collected[t].size(), sent[t].size());
    for (std::size_t i = 0; i < collected[t].size(); ++i) {
      const QueryRequest& req = sent[t][i];
      const QueryResult& r = collected[t][i];
      ASSERT_TRUE(published.count(r.snapshot_version))
          << "result served by an unpublished snapshot";
      const SystemSnapshot& snap = *published.at(r.snapshot_version);
      expect_route_acyclic(r);
      switch (r.status) {
        case QueryStatus::kFound: {
          ASSERT_EQ(r.cluster.size(), req.k);
          ASSERT_TRUE(r.class_idx.has_value());
          const double l = snap.classes.distance_at(*r.class_idx);
          EXPECT_TRUE(
              cluster_satisfies(snap.predicted, r.cluster, req.k, l))
              << "cluster violates the class it was served at";
          EXPECT_EQ(r.route.size(), r.hops + 1);
          EXPECT_EQ(r.route.front(), req.start);
          break;
        }
        case QueryStatus::kNotFound:
          EXPECT_TRUE(r.cluster.empty());
          EXPECT_EQ(r.route.front(), req.start);
          break;
        case QueryStatus::kInvalidK:
          EXPECT_LT(req.k, 2u);
          break;
        case QueryStatus::kBandwidthUnsatisfiable:
          EXPECT_TRUE(!resolve_class(req, snap.classes).has_value());
          break;
        case QueryStatus::kUnknownStart:
          EXPECT_GE(req.start, n);
          break;
        case QueryStatus::kShed:
          ADD_FAILURE() << "shed response with admission control disabled";
          break;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, kSubmitters * kBatchesPerThread * kBatchSize);
  EXPECT_EQ(service.stats().total(), checked);
}

// Submitters (direct and batched) race a reader calling stats(). Every read
// must be monotone and never show a subset count above its total; once the
// writers are quiescent every count must be exact, checked against the
// paths the results' explain profiles report. Every key is warm before the
// race, so routed answers are all cache hits and hit or hop counts that ran
// ahead of their statuses would show at once. (tools/sanitize.sh runs this
// under ThreadSanitizer.)
TEST(QueryServiceStats, ReadsStayMonotoneAndExactUnderConcurrentSubmits) {
  auto sys = make_system(20, 8, 31);
  QueryServiceOptions options;
  options.threads = 2;
  options.shards = 4;
  // A tight budget so some queries shed mid-run; the burst admits warm-up.
  options.admission.rate_qps = 20000.0;
  options.admission.burst = 96.0;
  options.admission.queue_limit = 2;
  QueryService service(sys, options);
  for (NodeId start = 0; start < 8; ++start) {
    for (std::size_t k = 2; k <= 4; ++k) {
      for (std::size_t cls = 0; cls < 3; ++cls) {
        service.submit(QueryRequest::at_class(start, k, cls));
      }
    }
  }
  service.reset_stats();

  constexpr std::size_t kDirectThreads = 2;
  constexpr std::size_t kDirectQueries = 4000;
  constexpr std::size_t kBatches = 80;
  constexpr std::size_t kBatchSize = 50;
  // Few distinct keys, so the memo cache hits; k == 1 is an argument error
  // that bypasses admission and is never routed.
  auto request_at = [](Rng& rng) {
    return QueryRequest::at_class(static_cast<NodeId>(rng.below(8)),
                                  1 + rng.below(4), rng.below(3))
        .with_profile();
  };

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::size_t reads = 0;
  std::thread reader([&] {
    QueryServiceStats prev;
    do {
      const QueryServiceStats s = service.stats();
      ++reads;
      bool ok = s.total() >= prev.total() && s.cache_hits >= prev.cache_hits &&
                s.hops.count >= prev.hops.count &&
                s.latency_micros.count >= prev.latency_micros.count &&
                s.shed_total() >= prev.shed_total() &&
                s.admitted >= prev.admitted &&
                s.shed_with_answer >= prev.shed_with_answer;
      for (std::size_t i = 0; i < kQueryStatusCount; ++i) {
        ok = ok && s.by_status[i] >= prev.by_status[i];
      }
      const std::uint64_t routed = s.count(QueryStatus::kFound) +
                                   s.count(QueryStatus::kNotFound);
      ok = ok && s.cache_hits <= s.total() && s.hops.count <= s.total() &&
           s.cache_hits <= routed && s.hops.count <= routed &&
           s.shed_with_answer <= s.count(QueryStatus::kShed);
      if (!ok) failed.store(true);
      prev = s;
    } while (!done.load(std::memory_order_acquire));
  });

  std::vector<std::vector<QueryResult>> results(kDirectThreads + 1);
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kDirectThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(500 + t);
      for (std::size_t i = 0; i < kDirectQueries; ++i) {
        results[t].push_back(service.submit(request_at(rng)));
      }
    });
  }
  writers.emplace_back([&] {
    Rng rng(600);
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<QueryRequest> batch;
      for (std::size_t i = 0; i < kBatchSize; ++i) {
        batch.push_back(request_at(rng));
      }
      for (QueryResult& r : service.submit_batch(batch)) {
        results.back().push_back(std::move(r));
      }
    }
  });
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load()) << "a stats() read regressed or tore";
  EXPECT_GT(reads, 0u);

  // Quiescent: every count is exact.
  std::array<std::uint64_t, kQueryStatusCount> by_status{};
  std::uint64_t cache_hits = 0, stale = 0, routed = 0, admitted = 0;
  std::uint64_t total = 0;
  for (const auto& rs : results) {
    for (const QueryResult& r : rs) {
      ++total;
      ++by_status[static_cast<std::size_t>(r.status)];
      ASSERT_TRUE(r.profile.has_value());
      const QueryPath path = r.profile->path;
      if (path == QueryPath::kCacheHit) ++cache_hits;
      if (path == QueryPath::kStaleFallback) ++stale;
      if (path == QueryPath::kCacheHit || path == QueryPath::kCompute) {
        ++admitted;
        ++routed;
      }
    }
  }
  const QueryServiceStats s = service.stats();
  EXPECT_EQ(total, kDirectThreads * kDirectQueries + kBatches * kBatchSize);
  EXPECT_EQ(s.total(), total);
  EXPECT_EQ(s.by_status, by_status);
  EXPECT_EQ(s.latency_micros.count, total);
  EXPECT_EQ(s.hops.count, routed);
  EXPECT_EQ(s.cache_hits, cache_hits);
  EXPECT_EQ(s.admitted, admitted);
  EXPECT_EQ(s.shed_total(), s.count(QueryStatus::kShed));
  EXPECT_EQ(s.deadline_expired, 0u);
  EXPECT_EQ(s.shed_with_answer, stale);
  EXPECT_LE(s.peak_shard_inflight, options.admission.queue_limit);
}

/// Every accounting field a served query can move: the service's own
/// stats() and the global bcc.serve.* / bcc.serve.shard.* instruments.
std::map<std::string, std::uint64_t> accounting_fields(
    const QueryService& service) {
  const QueryServiceStats s = service.stats();
  std::map<std::string, std::uint64_t> f;
  for (std::size_t i = 0; i < kQueryStatusCount; ++i) {
    f[std::string("status.") + to_string(static_cast<QueryStatus>(i))] =
        s.by_status[i];
  }
  f["cache_hits"] = s.cache_hits;
  f["latency_micros.count"] = s.latency_micros.count;
  f["hops.count"] = s.hops.count;
  f["admitted"] = s.admitted;
  f["shed_queue_full"] = s.shed_queue_full;
  f["shed_no_tokens"] = s.shed_no_tokens;
  f["deadline_expired"] = s.deadline_expired;
  f["shed_with_answer"] = s.shed_with_answer;
  const obs::RegistrySnapshot g = obs::Registry::global().snapshot();
  for (const char* name :
       {"bcc.serve.queries", "bcc.serve.cache_hits",
        "bcc.serve.shard.admitted", "bcc.serve.shard.shed",
        "bcc.serve.shard.shed_with_answer",
        "bcc.serve.shard.deadline_expired"}) {
    f[name] = g.counter_value(name);
  }
  const obs::Histogram::Snapshot* micros =
      g.histogram("bcc.serve.query_micros");
  f["bcc.serve.query_micros.count"] = micros != nullptr ? micros->count : 0;
  return f;
}

// One row per serving outcome: the query is accounted once, so each field
// moves by exactly the listed amount and every other field stays still.
TEST(QueryServiceStats, EachOutcomeMovesExactlyItsFields) {
  auto sys = make_system(20, 100, 22);
  const QueryRequest warm = QueryRequest::at_class(3, 4, 0);
  const QueryRequest cold = QueryRequest::at_class(5, 3, 1);

  QueryServiceOptions admit_all;
  admit_all.threads = 1;
  admit_all.admission.queue_limit = 64;  // on, but never refuses one caller
  QueryServiceOptions strangled;
  strangled.threads = 1;
  strangled.shards = 1;  // one bucket: the warm-up takes its only token
  strangled.admission.rate_qps = 1e-9;
  strangled.admission.burst = 1.0;
  QueryServiceOptions uncached;  // no stale answers for the deadline row
  uncached.threads = 1;
  uncached.cache_enabled = false;

  struct Row {
    const char* name;
    QueryServiceOptions options;
    std::vector<QueryRequest> warmup;
    QueryRequest request;
    QueryPath path;
    QueryStatus status;
    std::map<std::string, std::uint64_t> moves;
  };
  const std::uint64_t one = 1;
  const std::vector<Row> rows = {
      {"compute", admit_all, {}, warm, QueryPath::kCompute,
       QueryStatus::kFound,
       {{"status.found", one}, {"latency_micros.count", one},
        {"hops.count", one}, {"admitted", one},
        {"bcc.serve.queries", one}, {"bcc.serve.query_micros.count", one},
        {"bcc.serve.shard.admitted", one}}},
      {"cache_hit", admit_all, {warm}, warm, QueryPath::kCacheHit,
       QueryStatus::kFound,
       {{"status.found", one}, {"cache_hits", one},
        {"latency_micros.count", one}, {"hops.count", one},
        {"admitted", one}, {"bcc.serve.queries", one},
        {"bcc.serve.cache_hits", one}, {"bcc.serve.query_micros.count", one},
        {"bcc.serve.shard.admitted", one}}},
      {"stale_fallback", strangled, {warm}, warm, QueryPath::kStaleFallback,
       QueryStatus::kShed,
       {{"status.shed", one}, {"latency_micros.count", one},
        {"shed_no_tokens", one}, {"shed_with_answer", one},
        {"bcc.serve.queries", one}, {"bcc.serve.query_micros.count", one},
        {"bcc.serve.shard.shed", one},
        {"bcc.serve.shard.shed_with_answer", one}}},
      {"shed_empty", strangled, {warm}, cold, QueryPath::kShedEmpty,
       QueryStatus::kShed,
       {{"status.shed", one}, {"latency_micros.count", one},
        {"shed_no_tokens", one}, {"bcc.serve.queries", one},
        {"bcc.serve.query_micros.count", one},
        {"bcc.serve.shard.shed", one}}},
      {"deadline_expired", uncached, {},
       QueryRequest(warm).with_deadline(1), QueryPath::kShedEmpty,
       QueryStatus::kShed,
       {{"status.shed", one}, {"latency_micros.count", one},
        {"deadline_expired", one}, {"bcc.serve.queries", one},
        {"bcc.serve.query_micros.count", one},
        {"bcc.serve.shard.shed", one},
        {"bcc.serve.shard.deadline_expired", one}}},
      {"bypass", admit_all, {}, QueryRequest::at_class(0, 1, 0),
       QueryPath::kBypass, QueryStatus::kInvalidK,
       {{"status.invalid_k", one}, {"latency_micros.count", one},
        {"bcc.serve.queries", one}, {"bcc.serve.query_micros.count", one}}},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    QueryService service(sys, row.options);
    for (const QueryRequest& w : row.warmup) service.submit(w);
    QueryRequest request = row.request;
    request.with_profile();
    // Deadlines only bind on batch fanout, where a request waits for a
    // worker; a worker that wakes within the 1us deadline serves the query
    // instead, so retry until one is shed and check that attempt alone.
    const bool deadline = request.deadline_micros > 0;
    QueryResult r;
    std::map<std::string, std::uint64_t> before, after;
    for (int attempt = 0; attempt < (deadline ? 1000 : 1); ++attempt) {
      before = accounting_fields(service);
      r = deadline ? service.submit_batch(std::vector<QueryRequest>{request})
                         .front()
                   : service.submit(request);
      after = accounting_fields(service);
      if (r.status == row.status) break;
    }
    ASSERT_EQ(r.status, row.status);
    ASSERT_TRUE(r.profile.has_value());
    EXPECT_EQ(r.profile->path, row.path);
    for (const auto& [field, value] : after) {
      const auto it = row.moves.find(field);
      const std::uint64_t expected = it == row.moves.end() ? 0 : it->second;
      EXPECT_EQ(value - before.at(field), expected) << field;
    }
    for (const auto& [field, delta] : row.moves) {
      EXPECT_TRUE(after.count(field)) << "unknown field " << field;
    }
  }
}

}  // namespace
}  // namespace bcc

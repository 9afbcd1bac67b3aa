// The sharded query plane's moving parts: epoch-based snapshot reclamation
// (EpochDomain / EpochPtr), per-shard admission control, and QueryService's
// shedding behavior under synthetic overload. The Epoch* storm tests are the
// ones tools/sanitize.sh runs under ThreadSanitizer — they are the proof
// that a reader pinned on epoch E never touches a freed snapshot while
// refresh() swaps race it.
#include "serve/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/system.h"
#include "serve/query_service.h"
#include "test_util.h"
#include "tree/embedder.h"

namespace bcc {
namespace {

// ------------------------------------------------------------- EpochDomain

TEST(EpochDomain, PinAnnouncesCurrentEpochAndUnpinClears) {
  EpochDomain domain;
  const auto pin = domain.pin();
  EXPECT_EQ(pin.epoch, domain.epoch());
  EXPECT_EQ(domain.min_active(), pin.epoch);
  domain.unpin(pin);
  EXPECT_EQ(domain.min_active(), EpochDomain::kQuiescent);
}

TEST(EpochDomain, AdvanceRetiresTheOldEpoch) {
  EpochDomain domain;
  const std::uint64_t before = domain.epoch();
  EXPECT_EQ(domain.advance(), before);
  EXPECT_EQ(domain.epoch(), before + 1);
}

TEST(EpochDomain, MinActiveTracksTheOldestPinnedReader) {
  EpochDomain domain;
  const auto old_pin = domain.pin();  // pinned at epoch E
  domain.advance();
  const auto new_pin = domain.pin();  // pinned at E + 1
  EXPECT_EQ(domain.min_active(), old_pin.epoch);
  domain.unpin(old_pin);
  EXPECT_EQ(domain.min_active(), new_pin.epoch);
  domain.unpin(new_pin);
}

TEST(EpochDomain, ManyConcurrentPinsGetDistinctSlots) {
  EpochDomain domain;
  std::vector<EpochDomain::Pin> pins;
  for (std::size_t i = 0; i < EpochDomain::kSlots; ++i) {
    pins.push_back(domain.pin());
  }
  std::vector<bool> used(EpochDomain::kSlots, false);
  for (const auto& pin : pins) {
    EXPECT_FALSE(used[pin.slot]) << "slot " << pin.slot << " claimed twice";
    used[pin.slot] = true;
  }
  for (const auto& pin : pins) domain.unpin(pin);
}

// ---------------------------------------------------------------- EpochPtr

/// Counts live instances so reclamation (and nothing-but-reclamation) is
/// observable.
struct Counted {
  static std::atomic<int> live;
  int value;
  explicit Counted(int v) : value(v) { live.fetch_add(1); }
  ~Counted() { live.fetch_sub(1); }
};
std::atomic<int> Counted::live{0};

TEST(EpochPtr, ReadSeesTheLatestPublishedValue) {
  EpochPtr<Counted> ptr(std::make_shared<const Counted>(1));
  {
    const auto guard = ptr.read();
    EXPECT_EQ(guard->value, 1);
  }
  ptr.publish(std::make_shared<const Counted>(2));
  {
    const auto guard = ptr.read();
    EXPECT_EQ(guard->value, 2);
  }
  ptr.synchronize();
  EXPECT_EQ(Counted::live.load(), 1);  // only the current value survives
}

TEST(EpochPtr, PinnedReaderKeepsRetiredValueAlive) {
  EpochPtr<Counted> ptr(std::make_shared<const Counted>(1));
  {
    const auto guard = ptr.read();  // pins the epoch of value 1
    ptr.publish(std::make_shared<const Counted>(2));
    // The retired value must stay in limbo — this guard may still read it.
    EXPECT_EQ(ptr.limbo_size(), 1u);
    EXPECT_EQ(guard->value, 1);
    EXPECT_EQ(Counted::live.load(), 2);
  }
  ptr.synchronize();  // guard dropped: the grace period can end
  EXPECT_EQ(ptr.limbo_size(), 0u);
  EXPECT_EQ(Counted::live.load(), 1);
}

TEST(EpochPtr, CurrentSharedSurvivesLaterPublishes) {
  EpochPtr<Counted> ptr(std::make_shared<const Counted>(1));
  const auto retained = ptr.current_shared();
  ptr.publish(std::make_shared<const Counted>(2));
  ptr.synchronize();
  EXPECT_EQ(retained->value, 1);  // shared ownership outlives reclamation
  EXPECT_EQ(Counted::live.load(), 2);
}

// The TSan storm: readers continuously pin/deref/unpin while a writer
// publishes as fast as it can. Any use-after-reclaim is a data race on the
// Counted object (and usually a crash); TSan turns it into a hard failure.
// The value invariant — a reader never observes a value older than one it
// has already seen — checks publication ordering too.
TEST(EpochPtr, ReadersNeverSeeFreedSnapshotsDuringRefreshStorm) {
  EpochPtr<Counted> ptr(std::make_shared<const Counted>(0));
  constexpr int kPublishes = 400;
  constexpr std::size_t kReaders = 4;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      int last_seen = -1;
      while (!stop.load(std::memory_order_acquire)) {
        const auto guard = ptr.read();
        const int v = guard->value;  // the race TSan would flag
        if (v < last_seen || v > kPublishes) {
          failed.store(true);
          return;
        }
        last_seen = v;
      }
    });
  }

  for (int i = 1; i <= kPublishes; ++i) {
    ptr.publish(std::make_shared<const Counted>(i));
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(failed.load());

  ptr.synchronize();
  EXPECT_EQ(Counted::live.load(), 1);
  EXPECT_EQ(ptr.limbo_size(), 0u);
  const auto guard = ptr.read();
  EXPECT_EQ(guard->value, kPublishes);
}

// ------------------------------------------------------------- QueryShard

TEST(QueryShardAdmission, DisabledOptionsAdmitEverything) {
  QueryShard shard;
  const AdmissionOptions off;  // defaults: no rate, no ceiling
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(shard.admit(off, QueryPriority::kLow, 0),
              AdmitDecision::kAdmitted);
  }
}

TEST(QueryShardAdmission, QueueLimitBoundsInflight) {
  QueryShard shard;
  AdmissionOptions options;
  options.queue_limit = 3;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(shard.admit(options, QueryPriority::kHigh, 0),
              AdmitDecision::kAdmitted);
  }
  // Full: every priority is refused until someone finishes.
  EXPECT_EQ(shard.admit(options, QueryPriority::kHigh, 0),
            AdmitDecision::kShedQueueFull);
  EXPECT_EQ(shard.inflight(), 3u);
  shard.finish();
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 0),
            AdmitDecision::kAdmitted);
  EXPECT_EQ(shard.peak_inflight(), 3u);  // never exceeded the ceiling
}

TEST(QueryShardAdmission, TokenBucketRefillsAtRate) {
  QueryShard shard;
  AdmissionOptions options;
  options.rate_qps = 1000.0;  // 1 token per millisecond
  options.burst = 2.0;
  // Cold bucket holds `burst` tokens.
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 1000),
            AdmitDecision::kAdmitted);
  shard.finish();
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 1000),
            AdmitDecision::kAdmitted);
  shard.finish();
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 1000),
            AdmitDecision::kShedNoTokens);
  // 2ms later the bucket refilled back to burst.
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 3000),
            AdmitDecision::kAdmitted);
  shard.finish();
}

TEST(QueryShardAdmission, PriorityTiersShedLowFirst) {
  QueryShard shard;
  AdmissionOptions options;
  options.rate_qps = 1.0;  // effectively no refill within the test
  options.burst = 8.0;

  // kLow must leave a quarter-burst reserve: with 8 tokens it may take
  // 8 - (1 + 2) = 5-ish; drain with kLow until refused.
  int low_admitted = 0;
  while (shard.admit(options, QueryPriority::kLow, 0) ==
         AdmitDecision::kAdmitted) {
    shard.finish();
    ++low_admitted;
    ASSERT_LT(low_admitted, 100);
  }
  EXPECT_GT(low_admitted, 0);
  // kNormal still gets the reserve kLow had to leave behind.
  EXPECT_EQ(shard.admit(options, QueryPriority::kNormal, 0),
            AdmitDecision::kAdmitted);
  shard.finish();
  // Exhaust the bucket for kNormal too…
  while (shard.admit(options, QueryPriority::kNormal, 0) ==
         AdmitDecision::kAdmitted) {
    shard.finish();
  }
  // …kHigh may still run it into bounded debt, but not forever.
  int high_admitted = 0;
  while (shard.admit(options, QueryPriority::kHigh, 0) ==
         AdmitDecision::kAdmitted) {
    shard.finish();
    ++high_admitted;
    ASSERT_LT(high_admitted, 100);
  }
  EXPECT_GT(high_admitted, 0);
  EXPECT_LE(high_admitted, static_cast<int>(options.burst) + 1);
}

TEST(QueryShardCache, FreshEntriesInvalidatePerVersionStaleEntriesPersist) {
  QueryShard shard;
  const QueryKey key{3, 4, 0};
  QueryResult result;
  result.status = QueryStatus::kFound;
  result.cluster = {1, 2, 3, 4};
  result.snapshot_version = 1;

  shard.cache_store(key, 1, result, /*converged=*/true);
  QueryResult out;
  EXPECT_TRUE(shard.cache_lookup(key, 1, &out));
  EXPECT_EQ(out.cluster, result.cluster);
  // New snapshot version: the fresh entry is gone, the stale answer stays.
  EXPECT_FALSE(shard.cache_lookup(key, 2, &out));
  EXPECT_TRUE(shard.stale_lookup(key, &out));
  EXPECT_EQ(out.cluster, result.cluster);
  EXPECT_EQ(out.snapshot_version, 1u);
}

TEST(QueryShardCache, UnconvergedResultsNeverFeedTheStaleCache) {
  QueryShard shard;
  const QueryKey key{3, 4, 0};
  QueryResult result;
  result.status = QueryStatus::kFound;
  shard.cache_store(key, 1, result, /*converged=*/false);
  QueryResult out;
  EXPECT_TRUE(shard.cache_lookup(key, 1, &out));
  EXPECT_FALSE(shard.stale_lookup(key, &out));
}

// ----------------------------------------------- QueryService under overload

DecentralizedClusterSystem make_system(std::size_t n, std::size_t n_cut,
                                       std::uint64_t seed) {
  Rng rng(seed);
  const DistanceMatrix real = testutil::random_tree_metric(n, rng);
  Rng order_rng(seed + 77);
  Framework fw = build_framework(real, order_rng);
  DistanceMatrix predicted = fw.predicted_distances();
  const double c = kDefaultTransformC;
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

// Overload a single-shard service far past its token rate from several
// threads at once: every response must be kShed-or-valid, the shed ones
// well-formed degraded answers, and the shard's in-flight count must never
// exceed its bounded queue — the "no unbounded queue growth" guarantee.
TEST(QueryServiceOverload, ShedsInsteadOfQueueingUnboundedly) {
  auto sys = make_system(20, 8, 21);
  QueryServiceOptions options;
  options.threads = 2;
  options.shards = 1;  // every query contends on one admission controller
  options.admission.rate_qps = 2000.0;
  options.admission.burst = 16.0;
  options.admission.queue_limit = 4;
  QueryService service(sys, options);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kQueriesPerThread = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> hammers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      Rng rng(300 + t);
      for (std::size_t i = 0; i < kQueriesPerThread; ++i) {
        const auto r = service.submit(QueryRequest::at_class(
            static_cast<NodeId>(rng.below(20)), 2 + rng.below(6),
            rng.below(4)));
        const bool valid =
            r.status == QueryStatus::kFound ||
            r.status == QueryStatus::kNotFound ||
            r.status == QueryStatus::kShed;
        if (!valid) failed.store(true);
        // Shed responses are well-formed degraded answers: flagged, and any
        // payload cluster came from a real memoized answer.
        if (r.status == QueryStatus::kShed && !r.degraded) failed.store(true);
      }
    });
  }
  for (auto& h : hammers) h.join();
  ASSERT_FALSE(failed.load());

  const auto stats = service.stats();
  const std::uint64_t total = kThreads * kQueriesPerThread;
  EXPECT_EQ(stats.total(), total);
  EXPECT_EQ(stats.count(QueryStatus::kShed), stats.shed_total());
  // ~8k submissions race a 2k qps bucket: overload must actually shed…
  EXPECT_GT(stats.shed_total(), 0u);
  // …while the bounded queue held: in-flight never passed queue_limit.
  EXPECT_LE(stats.peak_shard_inflight, options.admission.queue_limit);
  EXPECT_EQ(service.shards_inflight_now(), 0u);
}

TEST(QueryServiceOverload, ShedAnswersComeFromTheLastConvergedSnapshot) {
  auto sys = make_system(20, 100, 22);
  QueryServiceOptions options;
  options.threads = 1;
  options.shards = 1;
  QueryService service(sys, options);

  // Warm the stale cache on the converged snapshot (admission off).
  const auto req = QueryRequest::at_class(3, 4, 0);
  const auto warm = service.submit(req);
  ASSERT_TRUE(warm.found());

  // Now drain the bucket so the same query is shed: its payload must be the
  // warm answer, flagged shed + degraded, reporting the snapshot it came
  // from.
  QueryServiceOptions strangled = options;
  // rate ~0: the bucket never refills within the test.
  strangled.admission.rate_qps = 1e-6;
  strangled.admission.burst = 1.0;
  QueryService tight(sys, strangled);
  ASSERT_TRUE(tight.submit(req).found());  // consumes the only burst token
  const auto shed = tight.submit(req);
  EXPECT_EQ(shed.status, QueryStatus::kShed);
  EXPECT_TRUE(shed.degraded);
  EXPECT_EQ(shed.cluster, warm.cluster);  // the stale best-effort payload
  EXPECT_EQ(shed.snapshot_version, 1u);
  EXPECT_EQ(tight.stats().shed_with_answer, 1u);

  // A key never memoized sheds with an empty (but well-formed) payload.
  const auto cold = tight.submit(QueryRequest::at_class(5, 3, 1));
  EXPECT_EQ(cold.status, QueryStatus::kShed);
  EXPECT_TRUE(cold.degraded);
  EXPECT_TRUE(cold.cluster.empty());
}

TEST(QueryServiceOverload, ExpiredDeadlinesAreShedNotServedLate) {
  auto sys = make_system(20, 100, 23);
  QueryServiceOptions options;
  options.threads = 2;
  QueryService service(sys, options);

  // An already-impossible deadline: by the time any batch worker picks the
  // request up, more than 0 microseconds have passed… but deadline 0 means
  // "none", so use 1us with an artificially slow path — a batch big enough
  // that later chunks observe queued time > 1us.
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 512; ++i) {
    batch.push_back(
        QueryRequest::at_class(static_cast<NodeId>(i % 20), 4, 0)
            .with_deadline(1));
  }
  const auto results = service.submit_batch(batch);
  std::size_t shed = 0;
  for (const auto& r : results) {
    if (r.status == QueryStatus::kShed) {
      EXPECT_TRUE(r.degraded);
      ++shed;
    } else {
      EXPECT_TRUE(r.status == QueryStatus::kFound ||
                  r.status == QueryStatus::kNotFound);
    }
  }
  EXPECT_EQ(service.stats().deadline_expired, shed);
  EXPECT_GT(shed, 0u);  // 512 queries cannot all start within 1us

  // Without a deadline nothing is shed (admission is off).
  for (auto& r : batch) r.deadline_micros = 0;
  for (const auto& r : service.submit_batch(batch)) {
    EXPECT_NE(r.status, QueryStatus::kShed);
  }
}

// Refresh storms against live batches, epoch edition: no snapshot a reader
// pinned may be reclaimed under it (TSan verifies), versions never roll
// back, and limbo drains once traffic stops.
TEST(QueryServiceEpoch, BatchesPinSnapshotsAcrossRefreshStorm) {
  auto sys = make_system(24, 8, 24);
  QueryServiceOptions options;
  options.threads = 2;
  options.shards = 4;
  QueryService service(sys, options);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(500 + t);
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<QueryRequest> batch;
        for (int i = 0; i < 64; ++i) {
          batch.push_back(QueryRequest::at_class(
              static_cast<NodeId>(rng.below(24)), 2 + rng.below(6),
              rng.below(4)));
        }
        const auto results = service.submit_batch(batch);
        // One batch = one snapshot; versions monotone across batches.
        const std::uint64_t v = results.front().snapshot_version;
        for (const auto& r : results) {
          if (r.snapshot_version != v) failed.store(true);
        }
        if (v < last_version) failed.store(true);
        last_version = v;
      }
    });
  }

  for (int swap = 0; swap < 20; ++swap) {
    SystemSnapshot next = *snapshot_of(sys);
    next.converged = (swap % 2 == 0);
    service.refresh(std::move(next));
  }
  stop.store(true, std::memory_order_release);
  for (auto& s : submitters) s.join();
  ASSERT_FALSE(failed.load());
  EXPECT_EQ(service.snapshot_version(), 21u);  // 1 + 20 refreshes

  // All readers gone: every retired snapshot's grace period can end.
  for (int i = 0; i < 1000 && service.snapshots_in_limbo() > 0; ++i) {
    service.submit(QueryRequest::at_class(0, 2, 0));  // reclaim piggybacks
    std::this_thread::yield();
  }
  service.refresh(sys);  // one more publish forces a reclaim pass
  EXPECT_LE(service.snapshots_in_limbo(), 1u);
}

}  // namespace
}  // namespace bcc

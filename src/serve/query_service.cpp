#include "serve/query_service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <latch>
#include <thread>

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bcc {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Only terminal routing outcomes are worth memoizing; argument errors are
/// answered in nanoseconds anyway.
bool cacheable(QueryStatus status) {
  return status == QueryStatus::kFound || status == QueryStatus::kNotFound;
}

/// The kShed payload: the stale answer memoized from the last converged
/// snapshot when the shard has one (kStaleFallback), else an empty
/// well-formed reply (kShedEmpty). Never any routing work.
QueryPath shed(QueryShard& shard, const QueryKey& key,
               const SystemSnapshot& snap, QueryResult* result) {
  // A stale payload (cluster/hops/route/class/snapshot_version) is kept as
  // memoized; either way the reply is marked shed + degraded.
  const bool stale = shard.stale_lookup(key, result);
  if (!stale) {
    result->snapshot_version = snap.version;
    result->class_idx = key.class_idx;
  }
  result->status = QueryStatus::kShed;
  result->degraded = true;
  return stale ? QueryPath::kStaleFallback : QueryPath::kShedEmpty;
}

std::uint64_t nanos(std::chrono::steady_clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Pairs QueryShard::admit's in-flight slot with its finish() when
/// serve_one returns.
struct FinishGuard {
  QueryShard* shard = nullptr;
  ~FinishGuard() {
    if (shard != nullptr) shard->finish();
  }
};

/// Stage-boundary clock for explain profiles. One steady_clock read per
/// boundary; each stage's end doubles as the next stage's begin, so the
/// stages telescope exactly to the measured total (what lets the explain
/// self-consistency test demand >= 95% coverage). Inert — no clock reads —
/// unless the request opted in.
struct StageClock {
  bool on = false;
  std::chrono::steady_clock::time_point mark;
  /// Nanoseconds since the previous boundary; advances the boundary.
  std::uint64_t lap() {
    if (!on) return 0;
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t ns = nanos(now - mark);
    mark = now;
    return ns;
  }
};

}  // namespace

QueryService::QueryService(const DecentralizedClusterSystem& system,
                           QueryServiceOptions options)
    : options_(options),
      pool_(resolve_threads(options.threads)),
      snapshot_(snapshot_of(system, /*version=*/1)) {
  options_.threads = pool_.size();
  const std::size_t shard_count = std::max<std::size_t>(1, options_.shards);
  options_.shards = shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<QueryShard>());
    histograms_.push_back(std::make_unique<ShardHistograms>());
  }
}

void QueryService::account(std::size_t shard_idx, const QueryResult& result,
                           QueryPath path, ShedReason reason) {
  ShardHistograms& histograms = *histograms_[shard_idx];
  const bool admitted = options_.admission.enabled() &&
                        path != QueryPath::kBypass &&
                        reason == ShedReason::kNone;
  const bool cache_hit = path == QueryPath::kCacheHit;
  const bool stale = path == QueryPath::kStaleFallback;

  // Totals first, then (past a release fence) the counts that are subsets of
  // them; stats() reads in the opposite order behind an acquire fence, so a
  // copy never shows more cache hits, hops or stale answers than queries.
  by_status_[static_cast<std::size_t>(result.status)].add();
  histograms.latency_micros.record(result.micros);
  if (admitted) admitted_.add();
  switch (reason) {
    case ShedReason::kNone: break;
    case ShedReason::kQueueFull: shed_queue_full_.add(); break;
    case ShedReason::kNoTokens: shed_no_tokens_.add(); break;
    case ShedReason::kDeadline: deadline_expired_.add(); break;
  }
  std::atomic_thread_fence(std::memory_order_release);
  if (cache_hit) cache_hits_.add();
  if (cacheable(result.status)) histograms.hops.record(result.hops);
  if (stale) shed_with_answer_.add();

  // The global instruments aggregate across services for export. Each one
  // registers where it is first needed, so an export lists only the serve
  // metrics this process has touched.
  static obs::Counter& queries =
      obs::Registry::global().counter("bcc.serve.queries");
  static obs::Counter& cache_hits =
      obs::Registry::global().counter("bcc.serve.cache_hits");
  static obs::Histogram& query_micros =
      obs::Registry::global().histogram("bcc.serve.query_micros");
  // kMean: a fleet-wide hit ratio is the average of the node ratios, not
  // their max (the old policy quietly reported the luckiest node).
  static obs::Gauge& cache_hit_ratio = obs::Registry::global().gauge(
      "bcc.serve.cache_hit_ratio", obs::GaugeAgg::kMean);
  queries.add(1);
  if (cache_hit) cache_hits.add(1);
  // The trace id rides the latency histogram as a per-bucket exemplar, so a
  // p99 spike in `bcc top` names a concrete query to pull the trace for.
  query_micros.record_with_exemplar(result.micros, result.trace_id);
  // Refreshing the ratio gauge sums every stripe of two counters (32 padded
  // cache lines); sample it rather than paying that on each query. The first
  // query still publishes so the gauge is live immediately.
  thread_local std::uint32_t tick = 0;
  if ((tick++ & 63u) == 0) {
    cache_hit_ratio.set(static_cast<double>(cache_hits.value()) /
                        static_cast<double>(queries.value()));
  }
  if (admitted) {
    static obs::Counter& shard_admitted =
        obs::Registry::global().counter("bcc.serve.shard.admitted");
    // kSum: in-flight queries add up across nodes; the fleet view wants the
    // total load, not one shard's.
    static obs::Gauge& shard_inflight = obs::Registry::global().gauge(
        "bcc.serve.shard.inflight", obs::GaugeAgg::kSum);
    shard_admitted.add(1);
    shard_inflight.set(static_cast<double>(shards_[shard_idx]->inflight()));
  }
  if (reason != ShedReason::kNone) {
    static obs::Counter& shard_shed =
        obs::Registry::global().counter("bcc.serve.shard.shed");
    shard_shed.add(1);
  }
  if (stale) {
    static obs::Counter& shard_shed_with_answer =
        obs::Registry::global().counter("bcc.serve.shard.shed_with_answer");
    shard_shed_with_answer.add(1);
  }
  if (reason == ShedReason::kDeadline) {
    static obs::Counter& shard_deadline_expired =
        obs::Registry::global().counter("bcc.serve.shard.deadline_expired");
    shard_deadline_expired.add(1);
  }
}

QueryResult QueryService::serve_one(const SystemSnapshot& snap,
                                    const QueryRequest& request,
                                    std::uint64_t queued_micros,
                                    std::uint64_t epoch_pin_ns) {
  obs::Span span(obs::SpanCategory::kServe, "serve_query");
  const auto t0 = std::chrono::steady_clock::now();
  StageClock clock{request.profile, t0};
  QueryProfile prof;  // copied into the result only when requested
  prof.queue_ns = queued_micros * 1000;
  prof.epoch_pin_ns = epoch_pin_ns;
  prof.snapshot_version = snap.version;

  // Validate up front (same precedence as QueryProcessor::run).
  QueryResult result;
  const auto cls = resolve_class(request, snap.classes);
  if (request.k < 2) {
    result.status = QueryStatus::kInvalidK;
  } else if (!cls) {
    result.status = QueryStatus::kBandwidthUnsatisfiable;
  } else if (!snap.nodes.count(request.start)) {
    result.status = QueryStatus::kUnknownStart;
  }
  const QueryKey key{request.start, request.k, cls.value_or(0)};
  const std::size_t shard_idx = QueryKeyHash{}(key) % shards_.size();
  QueryShard& shard = *shards_[shard_idx];
  prof.shard = static_cast<std::uint32_t>(shard_idx);

  QueryPath path = QueryPath::kCompute;
  ShedReason shed_reason = ShedReason::kNone;
  FinishGuard fin;
  if (result.status != QueryStatus::kNotFound) {
    // Argument errors bypass admission control entirely: they cost
    // nanoseconds, and shedding them would only mask caller bugs under load.
    result.snapshot_version = snap.version;
    result.degraded = !snap.converged;
    path = QueryPath::kBypass;
  } else {
    // A query that already waited past its deadline is shed, never served
    // late (only batch fanout introduces waiting; direct submit passes 0).
    if (request.deadline_micros > 0 &&
        queued_micros > request.deadline_micros) {
      shed_reason = ShedReason::kDeadline;
    }
    prof.validate_ns = clock.lap();
    if (shed_reason == ShedReason::kNone && options_.admission.enabled()) {
      const AdmitDecision decision =
          shard.admit(options_.admission, request.priority, now_micros());
      if (decision == AdmitDecision::kAdmitted) {
        fin.shard = &shard;
      } else {
        shed_reason = decision == AdmitDecision::kShedQueueFull
                          ? ShedReason::kQueueFull
                          : ShedReason::kNoTokens;
      }
    }
    prof.admission_ns = clock.lap();
    // The shed path's work is a stale-cache probe, so its lap lands in
    // cache_ns, like a cache hit's.
    if (shed_reason != ShedReason::kNone) {
      path = shed(shard, key, snap, &result);
    } else if (options_.cache_enabled &&
               shard.cache_lookup(key, snap.version, &result)) {
      path = QueryPath::kCacheHit;
    } else {
      prof.cache_ns = clock.lap();
      result = snap.run(request);
    }
  }

  // Stamped once, on the outcome: cached and stale results get the
  // *current* span's trace id, not the one they were computed under.
  const auto now = std::chrono::steady_clock::now();
  result.micros = nanos(now - t0) / 1000;
  result.trace_id = span.trace_id();
  if (request.profile) {
    // The stage this path ended in closes at the same clock read that
    // defines total_ns, so the stages telescope to the total exactly.
    (path == QueryPath::kCompute  ? prof.compute_ns
     : path == QueryPath::kBypass ? prof.validate_ns
                                  : prof.cache_ns) += nanos(now - clock.mark);
    prof.path = path;
    prof.total_ns = prof.queue_ns + prof.epoch_pin_ns + nanos(now - t0);
    result.profile = prof;
  }
  if (path == QueryPath::kCompute && options_.cache_enabled &&
      cacheable(result.status)) {
    shard.cache_store(key, snap.version, result, snap.converged);
  }
  account(shard_idx, result, path, shed_reason);
  return result;
}

QueryResult QueryService::submit(const QueryRequest& request) {
  // Lock-free snapshot pin; the guard spans exactly one query. A profiled
  // submit times the pin itself — the one serve stage that happens before
  // serve_one gets control.
  if (request.profile) {
    const auto pin_t0 = std::chrono::steady_clock::now();
    const auto guard = snapshot_.read();
    const std::uint64_t pin_ns =
        nanos(std::chrono::steady_clock::now() - pin_t0);
    return serve_one(*guard, request, /*queued_micros=*/0, pin_ns);
  }
  const auto guard = snapshot_.read();
  return serve_one(*guard, request, /*queued_micros=*/0);
}

std::vector<QueryResult> QueryService::submit_batch(
    std::span<const QueryRequest> requests) {
  std::vector<QueryResult> results(requests.size());
  if (requests.empty()) return results;
  // One read-side critical section held by the caller pins the whole
  // batch's snapshot: workers share the raw pointer, and the epoch domain
  // keeps it alive until this guard drops (after done.wait()).
  const auto guard = snapshot_.read();
  const SystemSnapshot& snap = *guard;
  const auto batch_t0 = std::chrono::steady_clock::now();

  const std::size_t tasks = std::min(pool_.size(), requests.size());
  // Coarse dynamic chunking: cheap queries amortize the atomic, slow ones
  // still balance across workers.
  const std::size_t block =
      std::max<std::size_t>(1, requests.size() / (tasks * 8));

  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  std::latch done(static_cast<std::ptrdiff_t>(tasks));
  std::mutex error_mutex;
  std::exception_ptr first_error;

  for (std::size_t t = 0; t < tasks; ++t) {
    pool_.post([&, next, block] {
      try {
        for (;;) {
          const std::size_t begin = next->fetch_add(block);
          if (begin >= requests.size()) break;
          const std::size_t end = std::min(begin + block, requests.size());
          // Time already spent queued behind earlier chunks — what a
          // request's deadline is checked against.
          const auto queued = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - batch_t0)
                  .count());
          for (std::size_t i = begin; i < end; ++i) {
            results[i] = serve_one(snap, requests[i], queued);
          }
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.count_down();
    });
  }
  done.wait();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

void QueryService::refresh(const DecentralizedClusterSystem& system) {
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    version = next_version_++;
  }
  // Deep copy outside the lock: serving keeps going while we copy.
  auto snap = snapshot_of(system, version);
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  // Concurrent refreshes may finish out of order; never roll back.
  if (snapshot_.current_shared()->version < version) {
    snapshot_.publish(std::move(snap));
  }
}

void QueryService::refresh(SystemSnapshot snapshot) {
  std::uint64_t version;
  {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    version = next_version_++;
  }
  snapshot.version = version;
  auto snap = std::make_shared<const SystemSnapshot>(std::move(snapshot));
  std::lock_guard<std::mutex> lock(refresh_mutex_);
  if (snapshot_.current_shared()->version < version) {
    snapshot_.publish(std::move(snap));
  }
}

std::shared_ptr<const SystemSnapshot> QueryService::snapshot() const {
  return snapshot_.current_shared();
}

QueryServiceStats QueryService::stats() const {
  // Subsets before the acquire fence, totals after it (see account()).
  QueryServiceStats s;
  for (const auto& h : histograms_) s.hops.merge_from(h->hops.snapshot());
  s.cache_hits = cache_hits_.value();
  s.shed_with_answer = shed_with_answer_.value();
  std::atomic_thread_fence(std::memory_order_acquire);
  for (std::size_t i = 0; i < kQueryStatusCount; ++i) {
    s.by_status[i] = by_status_[i].value();
  }
  for (const auto& h : histograms_) {
    s.latency_micros.merge_from(h->latency_micros.snapshot());
  }
  s.admitted = admitted_.value();
  s.shed_queue_full = shed_queue_full_.value();
  s.shed_no_tokens = shed_no_tokens_.value();
  s.deadline_expired = deadline_expired_.value();
  for (const auto& shard : shards_) {
    s.peak_shard_inflight =
        std::max(s.peak_shard_inflight, shard->peak_inflight());
  }
  return s;
}

void QueryService::reset_stats() {
  for (obs::Counter& c : by_status_) c.reset();
  for (obs::Counter* c : {&cache_hits_, &admitted_, &shed_queue_full_,
                          &shed_no_tokens_, &deadline_expired_,
                          &shed_with_answer_}) {
    c->reset();
  }
  for (const auto& h : histograms_) {
    h->latency_micros.reset();
    h->hops.reset();
  }
}

}  // namespace bcc

// One shard of the query plane: memo cache and admission control, both
// private to the shard so cores serving different shards never touch a
// shared cache line.
//
// QueryService hashes every request (start, k, resolved class) to a shard;
// that shard owns
//
//   * the fresh memo cache — results valid for the snapshot version they
//     were computed on, invalidated lazily on the first access after a
//     snapshot swap (so refresh() stays O(1) in cache size);
//   * the stale answer cache — the last answer memoized from a *converged*
//     snapshot, kept across swaps, consulted only by the load-shedding path
//     so a shed query can still get a well-formed degraded answer without
//     doing any routing work;
//   * the admission controller — a token bucket plus an in-flight ceiling
//     (the bounded per-shard "queue": submit() is synchronous, so in-flight
//     count is queue depth). Under overload the controller sheds instead of
//     queueing unboundedly; QueryPriority decides who is shed first.
//
// Thread-safety: every member function may be called concurrently; the
// shard mutex guards cache + token state, in-flight is a bare atomic so the
// hot path can bump it without the mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/query.h"

namespace bcc {

/// Admission-control knobs, enforced per shard. The defaults admit
/// everything (no token bucket, no in-flight ceiling).
struct AdmissionOptions {
  /// Sustained admitted-query rate per shard in queries/sec; 0 disables the
  /// token bucket.
  double rate_qps = 0.0;
  /// Token-bucket depth in queries: the burst admitted from a cold bucket,
  /// and the debt ceiling high-priority queries may run it into.
  double burst = 64.0;
  /// Max concurrently served queries per shard (the bounded queue);
  /// 0 = unlimited. Enforced for every priority.
  std::size_t queue_limit = 0;

  bool enabled() const { return rate_qps > 0.0 || queue_limit > 0; }
};

/// Identity of a memoizable query: entry node, k, and the *resolved* class.
struct QueryKey {
  NodeId start = 0;
  std::size_t k = 0;
  std::size_t class_idx = 0;
  bool operator==(const QueryKey&) const = default;
};

/// splitmix64-style mixing of the three fields; also QueryService's shard
/// selector, so one hash both places the query and indexes the cache.
/// Defined inline: this runs on every query, and keeping it visible to the
/// serving TU lets the cache-hit path inline both the shard selection and
/// the map probe.
struct QueryKeyHash {
  std::size_t operator()(const QueryKey& key) const {
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix(static_cast<std::uint64_t>(key.start));
    h = mix(h ^ static_cast<std::uint64_t>(key.k));
    h = mix(h ^ static_cast<std::uint64_t>(key.class_idx));
    return static_cast<std::size_t>(h);
  }
};

/// Why the admission controller let a query through (or did not).
enum class AdmitDecision : std::uint8_t {
  kAdmitted = 0,
  kShedQueueFull = 1,   ///< in-flight ceiling reached
  kShedNoTokens = 2,    ///< token bucket empty for this priority
};

/// See file comment.
class QueryShard {
 public:
  /// Stale-cache entries kept per shard; past this, new keys are not
  /// retained (existing keys still update in place).
  static constexpr std::size_t kStaleCapacity = 4096;

  // -- admission ----------------------------------------------------------
  /// Decides whether a query may be served now. `now_micros` is any
  /// monotonic microsecond clock (passed in for determinism in tests).
  /// Counts a token / in-flight slot on admission; pair every kAdmitted
  /// with a later finish().
  AdmitDecision admit(const AdmissionOptions& options, QueryPriority priority,
                      std::uint64_t now_micros);
  void finish() noexcept {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// High-water mark of concurrently served queries (bounded-queue proof).
  std::size_t peak_inflight() const noexcept {
    return peak_inflight_.load(std::memory_order_relaxed);
  }

  // -- fresh memo cache ---------------------------------------------------
  /// Looks up `key` among results computed on snapshot `version`; clears
  /// the shard lazily when the version moved on. True on hit. Inline: this
  /// is the memoized fast path every cached query takes.
  bool cache_lookup(const QueryKey& key, std::uint64_t version,
                    QueryResult* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_version_ != version) {
      fresh_.clear();
      cache_version_ = version;
      return false;
    }
    const auto it = fresh_.find(key);
    if (it == fresh_.end()) return false;
    *out = it->second;
    return true;
  }
  /// Files a result under `version` (dropped if the shard has already
  /// advanced past it). `converged` results also feed the stale cache.
  void cache_store(const QueryKey& key, std::uint64_t version,
                   const QueryResult& result, bool converged);

  // -- stale answers for the shedding path --------------------------------
  /// Best-effort answer from the last converged snapshot that memoized this
  /// key; no routing work. True on hit.
  bool stale_lookup(const QueryKey& key, QueryResult* out);

 private:
  // In-flight is atomic (hot path, no mutex); everything else under mutex_.
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> peak_inflight_{0};

  std::mutex mutex_;
  std::uint64_t cache_version_ = 0;  // guarded by mutex_
  std::unordered_map<QueryKey, QueryResult, QueryKeyHash>
      fresh_;  // guarded by mutex_
  std::unordered_map<QueryKey, QueryResult, QueryKeyHash>
      stale_;  // guarded by mutex_
  // Token bucket (guarded by mutex_): lazily refilled from rate_qps. The
  // first admit primes the bucket to a full burst; tokens_ itself may go
  // negative (kHigh debt), so a separate flag marks initialization.
  bool bucket_primed_ = false;
  double tokens_ = 0.0;
  std::uint64_t last_refill_micros_ = 0;
};

}  // namespace bcc

// QueryService — the sharded query plane: batched, thread-pooled serving of
// bandwidth-cluster queries (Algorithm 4) over epoch-protected immutable
// snapshots, with per-shard caches and admission control.
//
// The paper treats query processing as the cheap, read-only phase over a
// converged overlay; this layer exploits that three ways:
//
//   * queries are embarrassingly parallel, so a batch is fanned out across a
//     small fixed thread pool, and every query in the batch is served
//     against ONE pinned SystemSnapshot — results within a batch are
//     mutually consistent even if refresh() swaps in a newer snapshot
//     mid-flight;
//   * snapshots are published through an EpochPtr (src/serve/epoch.h):
//     readers pin an epoch on entry instead of taking a lock or bumping a
//     shared refcount, so snapshot access costs no contended cache line.
//     Restructuring never blocks serving and serving never blocks
//     restructuring; retired snapshots are reclaimed after a grace period;
//   * every request hashes to a QueryShard (src/serve/shard.h) owning its
//     own memo cache and admission state — cores serving different shards
//     share no cache map, and record into per-shard latency/hop histograms.
//
// Every served query is accounted exactly once, after its outcome is known:
// account() reads the QueryPath, the status and the shed reason, and records
// into this service's own obs instruments (read back through stats()) and
// into the global bcc.serve.* / bcc.serve.shard.* instruments.
//
// When admission control is on (options.admission) an overloaded shard
// sheds instead of queueing: the response comes back with
// QueryStatus::kShed and, when the shard has memoized this (start, k,
// class) from a previously *converged* snapshot, that stale answer as a
// well-formed degraded payload. Requests carrying a deadline are shed
// rather than served late. Argument-error requests (bad k/class/start)
// bypass admission entirely — they are answered in nanoseconds and rejecting
// them would only mask caller bugs under load.
//
// Thread-safety: submit / submit_batch / refresh / snapshot / stats may all
// be called concurrently from any thread. Refreshing from several threads
// at once is allowed (versions stay monotonic) but pointless.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/epoch.h"
#include "serve/shard.h"
#include "serve/snapshot.h"
#include "serve/thread_pool.h"

namespace bcc {

struct QueryServiceOptions {
  /// Worker threads; 0 = hardware concurrency (at least 1).
  std::size_t threads = 0;
  /// Memoize per-(start, k, class) results until the next snapshot swap.
  bool cache_enabled = true;
  /// Query-plane shard count: each shard owns a cache partition and its
  /// admission state.
  std::size_t shards = 16;
  /// Per-shard admission control; default-constructed = admit everything.
  AdmissionOptions admission;
};

/// Service-wide serving statistics: a plain-data copy of the instruments
/// QueryService::account() records every served query into.
struct QueryServiceStats {
  std::array<std::uint64_t, kQueryStatusCount> by_status{};
  std::uint64_t cache_hits = 0;             ///< answers from the memo cache
  obs::Histogram::Snapshot latency_micros;  ///< every query's serve time
  obs::Histogram::Snapshot hops;  ///< forwards of routed (found/not-found)
  // Admission control: all zero when it is off and no deadlines are set.
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_no_tokens = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t shed_with_answer = 0;   ///< shed replies with a stale payload
  std::size_t peak_shard_inflight = 0;  ///< max in flight on any one shard

  std::uint64_t count(QueryStatus status) const {
    return by_status[static_cast<std::size_t>(status)];
  }
  std::uint64_t total() const {
    return std::accumulate(by_status.begin(), by_status.end(),
                           std::uint64_t{0});
  }
  std::uint64_t shed_total() const {
    return shed_queue_full + shed_no_tokens + deadline_expired;
  }
};

/// See file comment.
class QueryService {
 public:
  /// Snapshots `system` (deep copy) as serving state version 1.
  explicit QueryService(const DecentralizedClusterSystem& system,
                        QueryServiceOptions options = {});

  /// Serves one request synchronously on the calling thread, against the
  /// current snapshot. Thread-safe; lock-free snapshot access.
  QueryResult submit(const QueryRequest& request);

  /// Serves a batch across the thread pool; blocks until every request is
  /// answered. results[i] answers requests[i], and the whole batch is served
  /// against the single snapshot pinned at entry. Thread-safe.
  std::vector<QueryResult> submit_batch(std::span<const QueryRequest> requests);

  /// Re-snapshots the (presumably restructured) system and atomically swaps
  /// it in. In-flight batches finish on the snapshot they pinned; subsequent
  /// submissions see the new state. Cached results from older snapshots are
  /// discarded lazily; the retired snapshot is reclaimed after its grace
  /// period.
  void refresh(const DecentralizedClusterSystem& system);

  /// Installs an externally built snapshot — e.g. snapshot_of(AsyncOverlay…)
  /// captured mid-churn, whose `converged` flag makes subsequent results
  /// degraded. The version field is assigned internally (monotonic); same
  /// swap/pinning semantics as refresh(system).
  void refresh(SystemSnapshot snapshot);

  /// The snapshot new submissions are currently served against (shared
  /// ownership: survives any number of later refreshes).
  std::shared_ptr<const SystemSnapshot> snapshot() const;
  std::uint64_t snapshot_version() const { return snapshot()->version; }

  const QueryServiceOptions& options() const { return options_; }
  /// Copy of the service's instruments. Safe against concurrent submits:
  /// totals never decrease between calls, and cache_hits, hops.count and
  /// shed_with_answer never exceed the totals they are subsets of.
  QueryServiceStats stats() const;
  /// Zeroes the service's instruments (the global registry is untouched).
  void reset_stats();

  /// Queries currently being served across all shards (0 once quiescent —
  /// the serving "queue" is bounded by shards * admission.queue_limit).
  std::size_t shards_inflight_now() const {
    std::size_t sum = 0;
    for (const auto& shard : shards_) sum += shard->inflight();
    return sum;
  }
  /// Retired-but-unreclaimed snapshots (0 once every grace period expired).
  std::size_t snapshots_in_limbo() const { return snapshot_.limbo_size(); }

 private:
  /// Why a query was shed; kNone when it was served (or bypassed admission).
  enum class ShedReason { kNone, kQueueFull, kNoTokens, kDeadline };

  /// epoch_pin_ns is what the caller already spent pinning the snapshot —
  /// nonzero only for profiled direct submits (a batch shares one pin, so
  /// per-query attribution would be a lie).
  QueryResult serve_one(const SystemSnapshot& snap,
                        const QueryRequest& request,
                        std::uint64_t queued_micros,
                        std::uint64_t epoch_pin_ns = 0);
  /// The one accounting call per served query, made once its outcome is
  /// known; records into the instance and the global instruments.
  void account(std::size_t shard_idx, const QueryResult& result,
               QueryPath path, ShedReason reason);

  QueryServiceOptions options_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<QueryShard>> shards_;

  EpochPtr<SystemSnapshot> snapshot_;
  std::mutex refresh_mutex_;        // serializes version allocation + publish
  std::uint64_t next_version_ = 2;  // guarded by refresh_mutex_

  // Instance instruments, written only by account(). Histograms are not
  // striped like counters, so each shard has its own pair; stats() merges.
  struct alignas(64) ShardHistograms {
    obs::Histogram latency_micros, hops;
  };
  std::array<obs::Counter, kQueryStatusCount> by_status_;
  obs::Counter cache_hits_, admitted_, shed_queue_full_, shed_no_tokens_,
      deadline_expired_, shed_with_answer_;
  std::vector<std::unique_ptr<ShardHistograms>> histograms_;  // per shard
};

}  // namespace bcc

#include "serve/shard.h"

#include <algorithm>

namespace bcc {

AdmitDecision QueryShard::admit(const AdmissionOptions& options,
                                QueryPriority priority,
                                std::uint64_t now_micros) {
  // In-flight ceiling first: it bounds memory/threads regardless of rate,
  // and applies to every priority. Optimistic increment, undone on refusal,
  // keeps the uncontended path off the mutex.
  const std::size_t in_flight =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options.queue_limit > 0 && in_flight > options.queue_limit) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return AdmitDecision::kShedQueueFull;
  }
  // Racy max update is fine: the peak is a diagnostic high-water mark.
  std::size_t peak = peak_inflight_.load(std::memory_order_relaxed);
  while (in_flight > peak &&
         !peak_inflight_.compare_exchange_weak(peak, in_flight,
                                               std::memory_order_relaxed)) {
  }

  if (options.rate_qps <= 0.0) return AdmitDecision::kAdmitted;

  std::lock_guard<std::mutex> lock(mutex_);
  if (!bucket_primed_) {
    bucket_primed_ = true;  // cold bucket starts full
    tokens_ = options.burst;
    last_refill_micros_ = now_micros;
  } else {
    const std::uint64_t elapsed =
        now_micros > last_refill_micros_ ? now_micros - last_refill_micros_
                                         : 0;
    tokens_ = std::min(options.burst,
                       tokens_ + options.rate_qps * 1e-6 *
                                     static_cast<double>(elapsed));
  }
  last_refill_micros_ = std::max(last_refill_micros_, now_micros);

  // Priority tiers: kHigh may run the bucket into bounded debt (one extra
  // burst), kNormal needs a whole token, kLow must leave a quarter-burst
  // reserve for the tiers above it.
  double floor = 1.0;
  switch (priority) {
    case QueryPriority::kHigh: floor = -options.burst; break;
    case QueryPriority::kNormal: floor = 1.0; break;
    case QueryPriority::kLow: floor = 1.0 + options.burst * 0.25; break;
  }
  if (tokens_ < floor) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return AdmitDecision::kShedNoTokens;
  }
  tokens_ -= 1.0;
  return AdmitDecision::kAdmitted;
}

void QueryShard::cache_store(const QueryKey& key, std::uint64_t version,
                             const QueryResult& result, bool converged) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A newer snapshot's first result advances the shard (same lazy
  // invalidation as cache_lookup); a result computed on an *older* snapshot
  // than the shard has seen is stale on arrival and dropped.
  if (version > cache_version_) {
    fresh_.clear();
    cache_version_ = version;
  }
  if (cache_version_ == version) fresh_.insert_or_assign(key, result);
  if (converged) {
    const auto it = stale_.find(key);
    if (it != stale_.end()) {
      it->second = result;
    } else if (stale_.size() < kStaleCapacity) {
      stale_.emplace(key, result);
    }
  }
}

bool QueryShard::stale_lookup(const QueryKey& key, QueryResult* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = stale_.find(key);
  if (it == stale_.end()) return false;
  *out = it->second;
  return true;
}

}  // namespace bcc

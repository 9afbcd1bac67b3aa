// Shared plumbing of the end-to-end benchmark: run configuration, the result
// every workload returns, the benchmark's own span recorder, and the output
// checks the workloads share. Library tracing (src/obs) stays off; every span
// here wraps a call into one layer of the library from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/bandwidth_classes.h"
#include "core/overlay_node.h"
#include "core/query.h"

namespace bcc::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::uint64_t seed = 1;
  /// Length of the fixed op sequence.
  std::size_t ops = 0;
  bool trace = false;
};

/// In-memory span log (name, start, end, parent, op id), written out at exit.
/// Disabled, a Span costs one branch: untraced runs record nothing. Enabled,
/// it records set-up, checks and the odd-numbered ops; the even-numbered ops
/// run untraced in the same process, which gives the tracing overhead.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Whether op `op` records spans (and, on query-cold, explain profiles).
  bool traces(std::int64_t op) const {
    return enabled_ && (op < 0 || op % 2 == 1);
  }
  /// Op id stamped on spans opened from now on (-1 = set-up / checks).
  void set_op(std::int64_t op) { op_ = op; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time covered by child spans
    std::size_t count = 0;
  };
  /// Per span name, in name order.
  std::map<std::string, Totals> totals() const;
  /// Mean duration of the spans called `name`, in milliseconds (0 if none):
  /// per set-up for set-up spans, per traced op for op spans.
  double mean_ms(const std::string& name) const;

  /// One JSON object per span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;
    std::int64_t op;
  };
  bool enabled_;
  std::int64_t open_ = -1;
  std::int64_t op_ = -1;
  std::vector<Record> spans_;
};

/// What one workload run hands back to main for reporting.
struct RunResult {
  std::vector<double> setup_s;  ///< one per set-up
  /// One per op, in op order. Output checks between ops are not timed.
  std::vector<double> op_ms;
  std::size_t failed = 0;       ///< ops whose output check failed
  std::size_t queries = 0;      ///< answer checks behind found_ratio
  std::size_t found = 0;
  /// Peak resident set of the measured set-ups and ops, in MB: read before
  /// the end-of-run checks allocate, with check-only state built and freed
  /// before the peak is reset (reset_peak_rss).
  double peak_rss_mb = 0.0;
  /// Named whole-run correctness checks (set-up state, final state).
  std::vector<std::pair<std::string, bool>> checks;
  /// Per-layer metrics; filled on traced runs only.
  std::map<std::string, double> layers;
};

/// Per-layer metric names (units live in BENCHMARK.json). Every traced run
/// reports all of them, 0 where the workload never calls into that layer.
const std::vector<std::string>& layer_metrics();

/// A query answer is well-formed: found or not found, and a found cluster
/// satisfies the class limit in `predicted` (cluster_satisfies).
bool answer_ok(const QueryResult& result, std::size_t k,
               const DistanceMatrix& predicted,
               const BandwidthClasses& classes);

/// Clustering-space sizes over all nodes (`OverlayNode::clustering_space()`).
struct SpaceStats {
  double max = 0.0;
  double mean = 0.0;
};
SpaceStats space_stats(const OverlayNodeMap& nodes);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// Returns freed heap to the kernel and resets VmHWM to the current resident
/// set, so that the next peak_rss_mb() covers only what runs from here on.
void reset_peak_rss();

RunResult run_query_cold(const RunConfig& config, Tracer& tracer);
RunResult run_stream_repair(const RunConfig& config, Tracer& tracer);
RunResult run_async_gossip(const RunConfig& config, Tracer& tracer);

}  // namespace bcc::perfbench

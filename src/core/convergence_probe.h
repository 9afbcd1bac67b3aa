// Binds the layer-neutral obs::ConvergenceMonitor to a live AsyncOverlay:
// produces ConvergenceSamples by comparing every node's aggregate tables
// against the exact synchronous fixpoint over the overlay's *current*
// membership (the same ground truth the chaos suite asserts against).
//
// A node matches when its canonical_node_state equals the reference's, so
// a stray table entry counts as drift. The reference is computed lazily and
// cached: it is rebuilt only when membership changes (the anchor tree's BFS
// order differs from the one the cache was built for), so steady-state
// sampling costs one string comparison per node, and a churn event costs
// one synchronous run_to_convergence over the new membership.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/async_overlay.h"
#include "obs/convergence.h"

namespace bcc {

/// See file comment. All pointers are non-owning and must outlive the probe;
/// `overlay`/`tree`/`predicted`/`classes` are the same objects the
/// AsyncOverlay runs over (the tree may mutate through churn between
/// samples).
class ConvergenceProbe {
 public:
  ConvergenceProbe(const AsyncOverlay* overlay, const AnchorTree* tree,
                   const DistanceMatrix* predicted,
                   const BandwidthClasses* classes, std::size_t n_cut,
                   const EventEngine* engine);

  /// One pull: per-node staleness + fixpoint match, suspicion and outage
  /// counts, stamped with the engine's current simulated time.
  obs::ConvergenceSample sample();

  /// The same, bound for a ConvergenceMonitor.
  obs::ConvergenceMonitor::Sampler sampler();

  /// Schedules monitor.sample() every `period` simulated seconds, starting
  /// at now + period, until `until`. The monitor must outlive the engine
  /// run.
  static void schedule_sampling(EventEngine& engine,
                                obs::ConvergenceMonitor& monitor,
                                double period, double until);

 private:
  void refresh_reference_if_stale();

  const AsyncOverlay* overlay_;
  const AnchorTree* tree_;
  const DistanceMatrix* predicted_;
  const BandwidthClasses* classes_;
  std::size_t n_cut_;
  const EventEngine* engine_;

  std::vector<NodeId> ref_members_;  ///< membership the cache was built for
  /// canonical_node_state of every member at the exact fixpoint.
  std::unordered_map<NodeId, std::string> reference_;
};

}  // namespace bcc

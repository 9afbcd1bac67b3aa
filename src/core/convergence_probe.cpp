#include "core/convergence_probe.h"

#include "core/system.h"

namespace bcc {

namespace {

/// Self-rescheduling sampling tick. Copy semantics on purpose: each firing
/// copies itself into the next timer closure, so no shared_ptr cycle keeps
/// the engine's queue alive and cancellation is never needed — the chain
/// simply stops re-arming past `until`.
struct SamplingTick {
  EventEngine* engine;
  obs::ConvergenceMonitor* monitor;
  double period;
  double until;

  void operator()() const {
    monitor->sample();
    if (engine->now() + period <= until + 1e-9) {
      engine->schedule_after(period, *this);
    }
  }
};

}  // namespace

ConvergenceProbe::ConvergenceProbe(const AsyncOverlay* overlay,
                                   const AnchorTree* tree,
                                   const DistanceMatrix* predicted,
                                   const BandwidthClasses* classes,
                                   std::size_t n_cut,
                                   const EventEngine* engine)
    : overlay_(overlay),
      tree_(tree),
      predicted_(predicted),
      classes_(classes),
      n_cut_(n_cut),
      engine_(engine) {
  BCC_REQUIRE(overlay_ != nullptr);
  BCC_REQUIRE(tree_ != nullptr);
  BCC_REQUIRE(predicted_ != nullptr);
  BCC_REQUIRE(classes_ != nullptr);
  BCC_REQUIRE(engine_ != nullptr);
}

void ConvergenceProbe::refresh_reference_if_stale() {
  std::vector<NodeId> members = tree_->bfs_order();
  if (!reference_.empty() && members == ref_members_) return;
  SystemOptions options;
  options.n_cut = n_cut_;
  DecentralizedClusterSystem sync(*tree_, *predicted_, *classes_, options);
  sync.run_to_convergence();
  reference_.clear();
  for (const auto& [id, node] : sync.nodes()) {
    reference_.emplace(id, canonical_node_state(id, node));
  }
  ref_members_ = std::move(members);
}

obs::ConvergenceSample ConvergenceProbe::sample() {
  refresh_reference_if_stale();
  obs::ConvergenceSample s;
  s.now = engine_->now();
  s.suspected_links = overlay_->suspected_count();
  s.down_nodes = overlay_->down_count();
  for (NodeId x : ref_members_) {
    obs::NodeHealth h;
    h.id = static_cast<std::uint64_t>(x);
    // last_update == 0 means "never applied anything": stale since t=0.
    h.staleness = s.now - overlay_->last_update(x);
    auto it = overlay_->nodes().find(x);
    h.matches_reference = !overlay_->is_down(x) &&
                          it != overlay_->nodes().end() &&
                          canonical_node_state(x, it->second) ==
                              reference_.at(x);
    s.nodes.push_back(h);
  }
  return s;
}

obs::ConvergenceMonitor::Sampler ConvergenceProbe::sampler() {
  return [this] { return sample(); };
}

void ConvergenceProbe::schedule_sampling(EventEngine& engine,
                                         obs::ConvergenceMonitor& monitor,
                                         double period, double until) {
  BCC_REQUIRE(period > 0.0);
  engine.schedule_after(period, SamplingTick{&engine, &monitor, period, until});
}

}  // namespace bcc

#include "core/async_overlay.h"

#include <algorithm>
#include <cmath>

#include "net/sim_transport.h"
#include "obs/trace.h"

namespace bcc {

AsyncOverlay::~AsyncOverlay() = default;

AsyncOverlay::AsyncOverlay(const AnchorTree* overlay,
                           const DistanceMatrix* predicted,
                           const BandwidthClasses* classes,
                           AsyncOverlayOptions options, std::uint64_t seed)
    : overlay_(overlay), predicted_(predicted), classes_(classes),
      options_(options), rng_(seed), self_crt_memo_(classes) {
  BCC_REQUIRE(overlay_ != nullptr && predicted_ != nullptr);
  // The matrix is the id universe, the tree the current membership: every
  // host must be addressable, but the tree may cover a subset (churn).
  BCC_REQUIRE(overlay_->size() >= 1);
  BCC_REQUIRE(overlay_->size() <= predicted_->size());
  for (NodeId h : overlay_->bfs_order()) {
    BCC_REQUIRE(h < predicted_->size());
  }
  BCC_REQUIRE(options_.n_cut >= 1);
  BCC_REQUIRE(options_.gossip_period > 0.0);
  BCC_REQUIRE(options_.period_jitter >= 0.0 && options_.period_jitter < 1.0);
  BCC_REQUIRE(options_.message_latency >= 0.0);
  BCC_REQUIRE(options_.ack_timeout > 0.0);
  BCC_REQUIRE(options_.backoff_factor >= 1.0);
  BCC_REQUIRE(options_.suspect_after >= 1);
  if (options_.rtt_ms) {
    BCC_REQUIRE(options_.rtt_ms->size() == predicted_->size());
  }
  nodes_ = make_overlay_nodes(*overlay_);
  if (options_.local_node) {
    // Process-per-node deployment: host only the local node's state. The
    // compute_prop_* kernels read only the sender's map entry, so a
    // single-entry map yields byte-identical payloads.
    auto it = nodes_.find(*options_.local_node);
    BCC_REQUIRE(it != nodes_.end());
    OverlayNode local = std::move(it->second);
    nodes_.clear();
    nodes_.emplace(local.id, std::move(local));
  }
}

double AsyncOverlay::latency(NodeId from, NodeId to) const {
  if (options_.rtt_ms) return options_.rtt_ms->at(from, to) / 2.0 / 1000.0;
  return options_.message_latency;
}

double AsyncOverlay::ack_timeout_for(NodeId x, NodeId v) const {
  // Never time out faster than the link can physically ack: round trip plus
  // the worst-case injected jitter on both legs, with 50% headroom.
  const double rtt = latency(x, v) + latency(v, x);
  const double jitter =
      options_.faults ? 2.0 * options_.faults->faults_on(x, v).jitter_max : 0.0;
  return std::max(options_.ack_timeout, 1.5 * (rtt + jitter));
}

bool AsyncOverlay::is_neighbor(NodeId x, NodeId v) const {
  const std::vector<NodeId>& neighbors = nodes_.at(x).neighbors;
  return std::find(neighbors.begin(), neighbors.end(), v) != neighbors.end();
}

void AsyncOverlay::arm_timer(NodeId x, double delay) {
  gossip_timer_[x] = engine_->schedule_after(delay, [this, x] { gossip(x); });
}

void AsyncOverlay::cancel_timer(NodeId x) {
  auto it = gossip_timer_.find(x);
  if (it == gossip_timer_.end()) return;
  engine_->cancel(it->second);
  gossip_timer_.erase(it);
}

void AsyncOverlay::gossip(NodeId x) {
  gossip_timer_.erase(x);  // this firing consumed the timer
  if (down_.count(x) || !nodes_.count(x)) return;
  obs::Span span(obs::SpanCategory::kGossip, "gossip_round");
  span.set_node(static_cast<std::uint32_t>(x));
  ++rounds_;
  // Refresh the node's own CRT entry from its current clustering space
  // (Algorithm 3 line 8).
  OverlayNode& node = nodes_.at(x);
  node.aggr_crt[x] =
      self_crt_memo_.lookup(x, node.clustering_space(), *predicted_);
  for (NodeId v : node.neighbors) {
    start_exchange(x, v, /*attempt=*/0);
  }
  const double factor =
      rng_.uniform(1.0 - options_.period_jitter, 1.0 + options_.period_jitter);
  arm_timer(x, options_.gossip_period * factor);
}

void AsyncOverlay::start_exchange(NodeId x, NodeId v, std::size_t attempt) {
  if (down_.count(x) || !nodes_.count(x)) return;
  // A retry may fire after the sender crash-recovered (tables wiped): the
  // self CRT entry compute_prop_crt requires is then rebuilt lazily.
  OverlayNode& sender = nodes_.at(x);
  if (!sender.aggr_crt.count(x)) {
    sender.aggr_crt[x] =
        self_crt_memo_.lookup(x, sender.clustering_space(), *predicted_);
  }
  // Snapshot the payloads now (sender state at send time), deliver later.
  // Retries recompute, so a resend carries the sender's newest state.
  auto prop_node = compute_prop_node(nodes_, *predicted_, options_.n_cut,
                                     /*m=*/x, /*x=*/v);
  auto prop_crt = compute_prop_crt(nodes_, classes_->size(), /*m=*/x,
                                   /*x=*/v);
  // The send span covers snapshotting + serializing + handing the frame to
  // the transport; its context rides inside the frame so the receive span on
  // v links back here causally. When gossip tracing is off the span is inert
  // and the context invalid — an all-zero trace field crosses the wire.
  obs::Span send_span(obs::SpanCategory::kGossip, "send_exchange");
  send_span.set_node(static_cast<std::uint32_t>(x));
  const obs::TraceContext ctx = send_span.context();
  net::ExchangePayload payload;
  payload.exchange = next_exchange_++;
  payload.prop_node = std::move(prop_node);
  payload.prop_crt = std::move(prop_crt);
  const std::uint64_t exchange = payload.exchange;
  transport_->send(x, v, net::FrameType::kExchange,
                   net::encode_exchange(payload), ctx);
  // Capped exponential backoff on the ack timeout.
  const double scale = std::min(
      std::pow(options_.backoff_factor, static_cast<double>(attempt)), 8.0);
  pending_ack_[exchange] = engine_->schedule_after(
      ack_timeout_for(x, v) * scale,
      [this, x, v, exchange, attempt] { on_ack_timeout(x, v, exchange,
                                                       attempt); });
}

void AsyncOverlay::on_delivery(const net::Delivery& d) {
  switch (d.type) {
    case net::FrameType::kExchange: on_exchange(d); return;
    case net::FrameType::kAck: on_ack_frame(d); return;
    default: return;  // heartbeats are transport-internal, never surfaced
  }
}

void AsyncOverlay::on_exchange(const net::Delivery& d) {
  const NodeId x = d.from;  // sender
  const NodeId v = d.to;    // receiver (must be hosted here)
  auto it = nodes_.find(v);
  if (it == nodes_.end()) return;  // receiver left the overlay
  // Crashed outside the fault plan, or the sender stopped being a neighbor
  // while the exchange was in flight (churn; see file comment).
  if (down_.count(v) || !is_neighbor(v, x)) {
    engine_->metrics().count_dropped();
    return;
  }
  net::ExchangePayload payload;
  if (!net::decode_exchange(d.body.data(), d.body.size(), payload)) {
    net::NetMetrics::global().frames_corrupt.add();
    return;
  }
  // Receive span: remote-parented on the sender's send span (each duplicate
  // delivery constructs its own span — distinct ids).
  obs::Span recv_span(obs::SpanCategory::kGossip, "recv_exchange", d.trace,
                      static_cast<std::uint32_t>(v));
  OverlayNode& receiver = it->second;
  bool changed = false;
  {
    obs::Span apply_span(obs::SpanCategory::kGossip, "apply_exchange");
    apply_span.set_node(static_cast<std::uint32_t>(v));
    auto node_it = receiver.aggr_node.find(x);
    if (node_it == receiver.aggr_node.end() ||
        node_it->second != payload.prop_node) {
      receiver.aggr_node[x] = std::move(payload.prop_node);
      changed = true;
    }
    auto crt_it = receiver.aggr_crt.find(x);
    if (crt_it == receiver.aggr_crt.end() ||
        crt_it->second != payload.prop_crt) {
      receiver.aggr_crt[x] = std::move(payload.prop_crt);
      changed = true;
    }
  }
  if (changed) {
    last_change_ = engine_->now();
    last_update_[v] = engine_->now();
  }
  // Acknowledge the exchange (the ack crosses the same lossy network,
  // carrying the receive span's context so the chain survives the round
  // trip).
  const obs::TraceContext ack_ctx = recv_span.context();
  transport_->send(v, x, net::FrameType::kAck,
                   net::encode_u64(payload.exchange), ack_ctx);
}

void AsyncOverlay::on_ack_frame(const net::Delivery& d) {
  const NodeId x = d.to;    // the original exchange sender
  const NodeId v = d.from;  // the acking neighbor
  std::uint64_t exchange = 0;
  if (!net::decode_u64(d.body.data(), d.body.size(), exchange)) {
    net::NetMetrics::global().frames_corrupt.add();
    return;
  }
  obs::Span ack_span(obs::SpanCategory::kGossip, "recv_ack", d.trace,
                     static_cast<std::uint32_t>(x));
  on_ack(x, v, exchange);
}

void AsyncOverlay::on_ack(NodeId x, NodeId v, std::uint64_t exchange) {
  auto it = pending_ack_.find(exchange);
  if (it != pending_ack_.end()) {
    engine_->cancel(it->second);
    pending_ack_.erase(it);
  }
  // Even a late ack (after the timeout already fired) proves the link and
  // the peer work: clear the failure streak and any suspicion.
  if (!nodes_.count(x)) return;
  LinkState& link = links_[x][v];
  link.consecutive_failures = 0;
  link.suspected = false;
}

void AsyncOverlay::on_ack_timeout(NodeId x, NodeId v, std::uint64_t exchange,
                                  std::size_t attempt) {
  pending_ack_.erase(exchange);
  if (down_.count(x) || !nodes_.count(x)) return;
  // v left or stopped being a neighbor since the send (churn): it would drop
  // a retry, so stop here.
  if (!is_neighbor(x, v)) return;
  if (attempt < options_.max_retries) {
    // Covers recomputing the payload and re-sending with backed-off timeout.
    obs::Span span(obs::SpanCategory::kGossip, "retry_exchange");
    engine_->metrics().count_retried();
    start_exchange(x, v, attempt + 1);
    return;
  }
  LinkState& link = links_[x][v];
  ++link.consecutive_failures;
  if (!link.suspected &&
      link.consecutive_failures >= options_.suspect_after) {
    obs::Span span(obs::SpanCategory::kGossip, "suspect_peer");
    link.suspected = true;
    engine_->metrics().count_suspected();
  }
}

void AsyncOverlay::crash(NodeId x) {
  BCC_REQUIRE(started_);
  if (!nodes_.count(x) || down_.count(x)) return;
  down_.insert(x);
  cancel_timer(x);
  // Cold crash: volatile protocol state is gone; gossip refills it after
  // recovery.
  nodes_.at(x).aggr_node.clear();
  nodes_.at(x).aggr_crt.clear();
  self_crt_memo_.forget(x);
  links_.erase(x);
  last_update_.erase(x);  // cold restart: staleness restarts from scratch
}

void AsyncOverlay::recover(NodeId x) {
  BCC_REQUIRE(started_);
  if (down_.erase(x) == 0) return;
  if (!nodes_.count(x)) return;  // left the overlay while down
  arm_timer(x, rng_.uniform(0.0, options_.gossip_period));
}

bool AsyncOverlay::suspects(NodeId x, NodeId peer) const {
  auto it = links_.find(x);
  if (it == links_.end()) return false;
  auto lt = it->second.find(peer);
  return lt != it->second.end() && lt->second.suspected;
}

std::size_t AsyncOverlay::suspected_count() const {
  std::size_t count = 0;
  for (const auto& [x, peers] : links_) {
    for (const auto& [v, link] : peers) {
      if (link.suspected) ++count;
    }
  }
  return count;
}

std::size_t AsyncOverlay::trigger_gossip(std::span<const NodeId> hosts) {
  BCC_REQUIRE(started_ && engine_ != nullptr);
  std::size_t scheduled = 0;
  for (NodeId h : hosts) {
    if (!nodes_.count(h) || down_.count(h)) continue;
    // Cancelling inside the handler (not here) keeps the chain single even
    // when the same host is triggered twice before the engine runs: each
    // firing cancels whatever timer the previous one armed.
    engine_->schedule_after(0.0, [this, h] {
      if (!nodes_.count(h) || down_.count(h)) return;
      cancel_timer(h);
      gossip(h);
    });
    ++scheduled;
  }
  return scheduled;
}

void AsyncOverlay::resync_membership() {
  BCC_REQUIRE(started_);
  const std::vector<NodeId> members = overlay_->bfs_order();
  std::unordered_set<NodeId> member_set(members.begin(), members.end());
  for (NodeId h : members) BCC_REQUIRE(h < predicted_->size());

  // Departed nodes: cancel timers, drop every trace of their local state.
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    if (member_set.count(it->first)) {
      ++it;
      continue;
    }
    cancel_timer(it->first);
    self_crt_memo_.forget(it->first);
    down_.erase(it->first);
    links_.erase(it->first);
    last_update_.erase(it->first);
    it = nodes_.erase(it);
  }

  // Survivors: refresh neighbor lists from the repaired tree, drop table
  // entries keyed by ex-neighbors, and purge departed ids from the
  // aggregate contents (the obituary idealization, see file comment) —
  // without the purge, departed ids would recirculate in gossip forever.
  for (auto& [id, node] : nodes_) {
    node.resync_neighbors(overlay_->neighbors_of(id));
    std::unordered_set<NodeId> neighbor_set(node.neighbors.begin(),
                                            node.neighbors.end());
    for (auto& [m, aggregate] : node.aggr_node) {
      std::erase_if(aggregate,
                    [&](NodeId d) { return !member_set.count(d); });
    }
    auto lit = links_.find(id);
    if (lit != links_.end()) {
      std::erase_if(lit->second, [&](const auto& e) {
        return !neighbor_set.count(e.first);
      });
    }
  }

  // New and rejoined members: fresh state, staggered first gossip. A local-
  // mode overlay hosts only its own node — remote joiners are other
  // processes' problem (if the local node itself departed, the loop above
  // already emptied nodes_ and this instance goes quiet).
  if (!local_mode()) {
    for (NodeId h : members) {
      if (nodes_.count(h)) continue;
      OverlayNode n;
      n.id = h;
      n.neighbors = overlay_->neighbors_of(h);
      nodes_.emplace(h, std::move(n));
      arm_timer(h, rng_.uniform(0.0, options_.gossip_period));
    }
  }
  last_change_ = engine_->now();
}

void AsyncOverlay::start(EventEngine& engine) {
  BCC_REQUIRE(!started_);
  started_ = true;
  engine_ = &engine;
  transport_ = options_.transport;
  if (transport_ == nullptr) {
    // Deterministic default: frames ride the FaultyChannel, consulting the
    // fault plan's rng in exactly the per-send order the pre-Transport
    // overlay used (seeded chaos runs replay bit-for-bit).
    owned_transport_ = std::make_unique<net::SimTransport>(
        &engine, options_.faults,
        [this](NodeId from, NodeId to) { return latency(from, to); });
    transport_ = owned_transport_.get();
  }
  transport_->set_handler([this](const net::Delivery& d) { on_delivery(d); });
  // Stagger initial firings uniformly across one period (BFS order for
  // cross-platform determinism; only hosted nodes get timers).
  for (NodeId host : overlay_->bfs_order()) {
    if (!nodes_.count(host)) continue;
    arm_timer(host, rng_.uniform(0.0, options_.gossip_period));
  }
  // Wire the fault plan's crash/recover schedule into the engine so a
  // crashed node's timers actually stop firing.
  if (options_.faults) {
    for (const auto& [node, window] : options_.faults->crashes()) {
      if (!nodes_.count(node)) continue;
      const NodeId host = node;
      engine.schedule_at(std::max(engine.now(), window.down_at),
                         [this, host] { crash(host); });
      if (window.up_at != FaultPlan::kNever) {
        engine.schedule_at(std::max(engine.now(), window.up_at),
                           [this, host] { recover(host); });
      }
    }
  }
}

void AsyncOverlay::run_for(EventEngine& engine, double duration) {
  BCC_REQUIRE(duration >= 0.0);
  if (!started_) start(engine);
  BCC_REQUIRE(engine_ == &engine);
  // While gossip tracing is on, stamp spans with simulated time too. The
  // clock is installed only for the duration of this run so the global
  // tracer never keeps a dangling engine reference.
  obs::Tracer& tracer = obs::Tracer::global();
  const bool traced = tracer.enabled(obs::SpanCategory::kGossip);
  if (traced) tracer.set_sim_clock([&engine] { return engine.now(); });
  engine.run_until(engine.now() + duration);
  if (traced) tracer.clear_sim_clock();
}

}  // namespace bcc

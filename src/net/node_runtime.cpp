#include "net/node_runtime.h"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/shutdown.h"
#include "data/latency_synth.h"
#include "metric/bandwidth.h"
#include "obs/collect.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "serve/snapshot.h"

namespace bcc::net {

namespace {

double mono_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TcpTransportOptions make_tcp_options(const ProcessNodeOptions& o) {
  TcpTransportOptions t;
  t.local = o.id;
  t.peers.resize(o.n_nodes);
  for (std::size_t i = 0; i < o.n_nodes; ++i) {
    t.peers[i].host = o.host;
    t.peers[i].port = static_cast<std::uint16_t>(o.base_port + i);
  }
  // Harness-scale timing: fast enough that a chaos test converges in
  // seconds, slow enough that a loaded 1-cpu CI box is not declared dead.
  t.heartbeat_period = 0.2;
  t.heartbeat_timeout = 1.0;
  t.connect_timeout = 0.5;
  t.backoff_initial = 0.05;
  t.backoff_max = 1.0;
  t.seed = o.world_seed * 7919 + o.id;
  return t;
}

AsyncOverlayOptions make_overlay_options(const ProcessNodeOptions& o,
                                         Transport* transport) {
  AsyncOverlayOptions a;
  a.n_cut = o.n_cut;
  a.gossip_period = o.gossip_period;
  a.period_jitter = 0.2;
  // latency() only feeds ack_timeout_for here (the transport owns real
  // timing); keep it small so the ack timeout is ack_timeout-dominated.
  a.message_latency = 0.01;
  a.ack_timeout = 0.5;
  a.max_retries = 3;
  a.backoff_factor = 2.0;
  a.suspect_after = 2;
  a.transport = transport;
  a.local_node = o.id;
  return a;
}

}  // namespace

NodeWorld make_node_world(std::size_t n, std::uint64_t seed) {
  BCC_REQUIRE(n >= 2);
  Rng rng(seed);
  LatencyOptions lo;
  lo.hosts = n;
  const DistanceMatrix real = synthesize_latency(lo, rng);
  Rng order(seed + 5);
  NodeWorld w{build_framework(real, order), {}, BandwidthClasses({1.0})};
  w.predicted = w.fw.predicted_distances();
  const double dmax = w.predicted.max_distance();
  const double c = kDefaultTransformC;
  w.classes =
      BandwidthClasses({c / dmax, c / (dmax * 0.5), c / (dmax * 0.2)}, c);
  return w;
}

ProcessNode::ProcessNode(ProcessNodeOptions options)
    : options_(std::move(options)),
      world_(make_node_world(options_.n_nodes, options_.world_seed)),
      tcp_(make_tcp_options(options_)),
      overlay_options_(make_overlay_options(options_, &tcp_)),
      overlay_(&world_.fw.anchors, &world_.predicted, &world_.classes,
               overlay_options_, options_.world_seed * 131 + options_.id) {
  BCC_REQUIRE(options_.id < options_.n_nodes);
  BCC_REQUIRE(options_.base_port != 0);
}

bool ProcessNode::bind() { return tcp_.listen(); }

void ProcessNode::dump_state(std::ostream& out) const {
  out << canonical_node_state(options_.id, overlay_.nodes().at(options_.id));
}

bool ProcessNode::handle_control_line(const std::string& line,
                                      std::ostream& out) {
  if (line == "quit") {
    quit_ = true;
    out << "ok quit\n";
  } else if (line == "dump") {
    dump_state(out);
  } else if (line.rfind("query ", 0) == 0) {
    std::istringstream in(line.substr(6));
    std::size_t k = 0, class_idx = 0;
    if (in >> k >> class_idx) {
      serve_query(k, class_idx, out);
    } else {
      out << "err " << line << "\n";
    }
  } else if (line == "close-listener") {
    tcp_.close_listener();
    out << "ok close-listener\n";
  } else if (line == "open-listener") {
    tcp_.open_listener();
    out << "ok open-listener\n";
  } else if (line == "isolate") {
    tcp_.set_isolated(true);
    out << "ok isolate\n";
  } else if (line == "deisolate") {
    tcp_.set_isolated(false);
    out << "ok deisolate\n";
  } else if (!line.empty()) {
    out << "err " << line << "\n";
  }
  out.flush();
  return quit_;
}

void ProcessNode::serve_query(std::size_t k, std::size_t class_idx,
                              std::ostream& out) {
  // Snapshot only holds this process's tables; routing that wants a peer's
  // tables stops gracefully and the serving plane flags the answer degraded.
  // A snapshot taken while peers are suspected/down is degraded throughout.
  const auto snap =
      make_snapshot(overlay_.nodes(), world_.predicted, world_.classes, {},
                    ++query_version_, overlay_.healthy());
  const QueryResult r =
      snap->run(QueryRequest::at_class(options_.id, k, class_idx));
  out << "query-result " << to_string(r.status)
      << " degraded=" << (r.degraded ? 1 : 0) << " hops=" << r.hops
      << " size=" << r.cluster.size();
  for (NodeId id : r.cluster) out << ' ' << id;
  out << "\n";
}

int ProcessNode::run(int control_fd, std::ostream& out) {
  if (control_fd >= 0) {
    const int flags = ::fcntl(control_fd, F_GETFL, 0);
    if (flags >= 0) ::fcntl(control_fd, F_SETFL, flags | O_NONBLOCK);
  }

  // Telemetry plumbing. Register the spans-dropped counter up front so the
  // collector's merged output always carries it, even at 0.
  obs::spans_dropped_counter();
  if (!options_.flight_recorder.empty()) {
    obs::FlightRecorder::Options fo;
    fo.node = static_cast<std::uint32_t>(options_.id);
    flight_ = obs::FlightRecorder::open(options_.flight_recorder, fo);
    if (flight_ != nullptr) {
      obs::FlightRecorder* fr = flight_.get();
      obs::Tracer::global().set_sink(
          [fr](const obs::SpanRecord& r) { fr->record_span(r); });
    }
  }
  if (options_.trace_gossip || flight_ != nullptr) {
    // Disjoint per-process id ranges make fleet-wide re-parenting exact.
    obs::Tracer::global().seed_ids(
        (static_cast<std::uint64_t>(options_.id) + 1) << 40);
    obs::Tracer::global().enable(obs::SpanCategory::kGossip, true);
  }
  if (options_.profile_hz > 0) {
    obs::SamplingProfiler::Options po;
    po.hz = options_.profile_hz;
    obs::SamplingProfiler::global().start(po);
  }
  tcp_.set_telemetry_provider([this] {
    obs::NodeTelemetry t;
    t.node = static_cast<std::uint32_t>(options_.id);
    t.pid = static_cast<std::uint32_t>(::getpid());
    t.wall_now_us = static_cast<std::uint64_t>(mono_seconds() * 1e6);
    obs::SamplingProfiler& profiler = obs::SamplingProfiler::global();
    if (profiler.running() || profiler.samples() > 0) {
      // Publish bcc.profile.* BEFORE the registry snapshot so the scrape
      // sees counters consistent with the stacks it carries. Truncation to
      // the hottest 32 keeps the TELEMETRY frame small; `bcc collect`
      // re-merges by stack across the fleet.
      profiler.publish_metrics();
      t.profile = profiler.top_stacks(32);
    }
    t.metrics = obs::Registry::global().snapshot();
    // drain(), not snapshot(): successive scrapes stream the ring instead
    // of re-sending (and re-merging) the same spans.
    t.spans = obs::Tracer::global().drain();
    return obs::encode_node_telemetry(t);
  });

  overlay_.start(engine_);
  out << "ready\n";
  out.flush();

  const double t0 = mono_seconds();
  double next_flight_flush = 0.0;
  std::string ctl;
  char buf[4096];
  while (!quit_ && !shutdown_requested()) {
    const double now = mono_seconds() - t0;
    engine_.run_until(now);
    if (options_.run_for > 0.0 && now >= options_.run_for) break;
    if (flight_ != nullptr && now >= next_flight_flush) {
      // Quarter-second cadence: cheap (one registry snapshot + memcpy into
      // the mapped region) and fresh enough that a kill -9 loses at most
      // ~250ms of counter movement.
      const std::vector<std::uint8_t> blob =
          obs::encode_node_metrics(obs::Registry::global().snapshot());
      flight_->record_metrics(blob.data(), blob.size());
      next_flight_flush = now + 0.25;
    }
    // Sleep in poll until the next engine timer (capped so control lines
    // and heartbeats stay responsive on an otherwise-idle node).
    double timeout = 0.02;
    const SimTime next = engine_.next_event_time();
    if (next != kNoNextEvent) {
      timeout = std::clamp(next - (mono_seconds() - t0), 0.0, 0.02);
    }
    tcp_.poll_once(timeout);
    if (control_fd >= 0) {
      while (true) {
        const ssize_t n = ::read(control_fd, buf, sizeof(buf));
        if (n <= 0) break;
        ctl.append(buf, static_cast<std::size_t>(n));
      }
      std::size_t nl;
      while ((nl = ctl.find('\n')) != std::string::npos) {
        const std::string line = ctl.substr(0, nl);
        ctl.erase(0, nl + 1);
        handle_control_line(line, out);
      }
    }
  }

  // Orderly drain: final state + metrics flush, then exit 0 — SIGTERM'd
  // nodes look exactly like quit nodes to the supervisor.
  if (options_.profile_hz > 0) {
    obs::SamplingProfiler::global().stop();
    obs::SamplingProfiler::global().publish_metrics();
  }
  if (flight_ != nullptr) {
    obs::Tracer::global().clear_sink();  // before the recorder unmaps
    const std::vector<std::uint8_t> blob =
        obs::encode_node_metrics(obs::Registry::global().snapshot());
    flight_->record_metrics(blob.data(), blob.size());
  }
  if (!options_.state_out.empty()) {
    std::ostringstream state;
    dump_state(state);
    obs::write_text_file(options_.state_out, state.str());
  }
  if (!options_.metrics_out.empty()) {
    obs::write_text_file(options_.metrics_out,
                         obs::json_object(obs::Registry::global().snapshot()) +
                             "\n");
  }
  return 0;
}

}  // namespace bcc::net

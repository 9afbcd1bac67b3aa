#include "net/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "common/assert.h"
#include "core/system.h"
#include "net/node_runtime.h"
#include "net/telemetry_client.h"
#include "obs/export.h"

namespace bcc::net {

namespace {

double mono_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double seconds) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  ::nanosleep(&ts, nullptr);
}

}  // namespace

ProcessSupervisor::ProcessSupervisor(SupervisorOptions options)
    : options_(std::move(options)) {
  BCC_REQUIRE(options_.n >= 2);
  BCC_REQUIRE(!options_.bcc_bin.empty());
  children_.resize(options_.n);
  // A child dying mid-write must surface as EPIPE, not kill the supervisor.
  ::signal(SIGPIPE, SIG_IGN);
}

ProcessSupervisor::~ProcessSupervisor() { kill_all(); }

bool ProcessSupervisor::fail(const std::string& message) {
  last_error_ = message;
  if (options_.verbose) std::fprintf(stderr, "[sup] %s\n", message.c_str());
  return false;
}

void ProcessSupervisor::close_child(Child& c) {
  if (c.in >= 0) ::close(c.in);
  if (c.out >= 0) ::close(c.out);
  c.in = c.out = -1;
  c.rbuf.clear();
}

void ProcessSupervisor::kill_all() {
  for (Child& c : children_) {
    if (c.pid > 0) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
    close_child(c);
  }
}

std::string ProcessSupervisor::metrics_path(NodeId id) const {
  if (options_.metrics_dir.empty()) return "";
  return options_.metrics_dir + "/node" + std::to_string(id) +
         ".metrics.json";
}

std::string ProcessSupervisor::flight_path(NodeId id) const {
  if (options_.flight_dir.empty()) return "";
  return options_.flight_dir + "/node" + std::to_string(id) + ".flight";
}

bool ProcessSupervisor::spawn(NodeId id) {
  BCC_REQUIRE(id < children_.size());
  BCC_REQUIRE(base_port_ != 0);
  Child& c = children_[id];
  BCC_REQUIRE(c.pid <= 0);
  int to_child[2];   // supervisor writes control -> child stdin
  int from_child[2]; // child stdout -> supervisor reads
  BCC_REQUIRE(::pipe(to_child) == 0 && ::pipe(from_child) == 0);
  const pid_t pid = ::fork();
  BCC_REQUIRE(pid >= 0);
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<std::string> args = {
        options_.bcc_bin, "node",
        "--id", std::to_string(id),
        "--nodes", std::to_string(options_.n),
        "--base-port", std::to_string(base_port_),
        "--seed", std::to_string(options_.world_seed),
        "--n-cut", std::to_string(options_.n_cut),
        "--period", std::to_string(options_.gossip_period)};
    const std::string mpath = metrics_path(id);
    if (!mpath.empty()) {
      args.push_back("--metrics-out");
      args.push_back(mpath);
    }
    const std::string fpath = flight_path(id);
    if (!fpath.empty()) {
      args.push_back("--flight-recorder");
      args.push_back(fpath);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(options_.bcc_bin.c_str(), argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  c.pid = pid;
  c.in = to_child[1];
  c.out = from_child[0];
  c.rbuf.clear();
  if (options_.verbose) {
    std::fprintf(stderr, "[sup] node %zu pid %d port %u\n",
                 static_cast<std::size_t>(id), static_cast<int>(pid),
                 static_cast<unsigned>(base_port_ + id));
  }
  // First line decides: "ready" (listening) or "bind-failed" (exit 3).
  std::string line;
  if (!read_line(c, line, mono_seconds() + 15.0)) {
    return fail("node " + std::to_string(id) + ": no ready line");
  }
  if (line != "ready") {
    return fail("node " + std::to_string(id) + ": " + line);
  }
  return true;
}

bool ProcessSupervisor::start_cluster() {
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    // Pid-derived base so parallel harnesses on one host rarely collide —
    // and when they do, the bind-failed child report triggers a re-roll.
    const std::uint32_t mix = static_cast<std::uint32_t>(::getpid()) * 31u +
                              static_cast<std::uint32_t>(attempt) * 977u;
    base_port_ = static_cast<std::uint16_t>(20000u + mix % 30000u);
    bool collided = false;
    for (NodeId id = 0; id < options_.n; ++id) {
      if (spawn(id)) continue;
      if (last_error_.find("bind-failed") != std::string::npos) {
        collided = true;
        break;
      }
      kill_all();
      return false;
    }
    if (!collided) return true;
    kill_all();
  }
  return fail("no free port base after 10 attempts");
}

bool ProcessSupervisor::alive(NodeId id) const {
  const Child& c = children_[id];
  if (c.pid <= 0) return false;
  return ::waitpid(c.pid, nullptr, WNOHANG) == 0;
}

void ProcessSupervisor::kill_hard(NodeId id) {
  Child& c = children_[id];
  if (c.pid > 0) {
    ::kill(c.pid, SIGKILL);
    ::waitpid(c.pid, nullptr, 0);
    c.pid = -1;
  }
  close_child(c);
}

void ProcessSupervisor::sigstop(NodeId id) {
  if (children_[id].pid > 0) ::kill(children_[id].pid, SIGSTOP);
}

void ProcessSupervisor::sigcont(NodeId id) {
  if (children_[id].pid > 0) ::kill(children_[id].pid, SIGCONT);
}

int ProcessSupervisor::sigterm_wait(NodeId id, double deadline) {
  Child& c = children_[id];
  if (c.pid <= 0) return -1;
  ::kill(c.pid, SIGTERM);
  const double until = mono_seconds() + deadline;
  while (mono_seconds() < until) {
    int status = 0;
    const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
    if (r == c.pid) {
      c.pid = -1;
      close_child(c);
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      return -2;
    }
    sleep_s(0.02);
  }
  return -1;
}

bool ProcessSupervisor::read_line(Child& c, std::string& line,
                                  double deadline) {
  while (true) {
    const std::size_t nl = c.rbuf.find('\n');
    if (nl != std::string::npos) {
      line = c.rbuf.substr(0, nl);
      c.rbuf.erase(0, nl + 1);
      return true;
    }
    const double remain = deadline - mono_seconds();
    if (remain <= 0.0 || c.out < 0) return false;
    pollfd p{c.out, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(remain * 1000.0) + 1);
    if (rc <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(c.out, buf, sizeof(buf));
    if (n <= 0) return false;  // EOF: child died
    c.rbuf.append(buf, static_cast<std::size_t>(n));
  }
}

bool ProcessSupervisor::send_cmd(NodeId id, const std::string& verb,
                                 double deadline) {
  Child& c = children_[id];
  if (c.pid <= 0 || c.in < 0) return fail("send_cmd: node down");
  const std::string line = verb + "\n";
  if (::write(c.in, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    return fail("send_cmd: write failed");
  }
  const double until = mono_seconds() + deadline;
  std::string reply;
  while (read_line(c, reply, until)) {
    if (reply == "ok " + verb) return true;
  }
  return fail("send_cmd: no ok for " + verb);
}

bool ProcessSupervisor::dump(NodeId id, std::string& state, double deadline) {
  Child& c = children_[id];
  if (c.pid <= 0 || c.in < 0) return fail("dump: node down");
  const char cmd[] = "dump\n";
  if (::write(c.in, cmd, sizeof(cmd) - 1) !=
      static_cast<ssize_t>(sizeof(cmd) - 1)) {
    return fail("dump: write failed");
  }
  const double until = mono_seconds() + deadline;
  std::string line;
  std::ostringstream out;
  bool in_state = false;
  while (read_line(c, line, until)) {
    if (!in_state) {
      if (line.rfind("state-begin", 0) == 0) {
        in_state = true;
        out << line << "\n";
      }
      continue;  // skip unrelated replies
    }
    out << line << "\n";
    if (line == "state-end") {
      state = out.str();
      return true;
    }
  }
  return fail("dump: incomplete state from node " + std::to_string(id));
}

bool ProcessSupervisor::query(NodeId id, std::size_t k, std::size_t class_idx,
                              std::string& reply, double deadline) {
  Child& c = children_[id];
  if (c.pid <= 0 || c.in < 0) return fail("query: node down");
  const std::string cmd =
      "query " + std::to_string(k) + " " + std::to_string(class_idx) + "\n";
  if (::write(c.in, cmd.data(), cmd.size()) !=
      static_cast<ssize_t>(cmd.size())) {
    return fail("query: write failed");
  }
  const double until = mono_seconds() + deadline;
  std::string line;
  while (read_line(c, line, until)) {
    if (line.rfind("query-result", 0) == 0) {
      reply = line;
      return true;
    }
  }
  return fail("query: no reply from node " + std::to_string(id));
}

const std::string& ProcessSupervisor::ground_truth(NodeId id) {
  if (truth_.empty()) {
    NodeWorld w = make_node_world(options_.n, options_.world_seed);
    SystemOptions so;
    so.n_cut = options_.n_cut;
    DecentralizedClusterSystem sync(w.fw.anchors, w.predicted, w.classes, so);
    sync.run_to_convergence();
    BCC_REQUIRE(sync.converged());
    truth_.resize(options_.n);
    for (NodeId x : w.fw.anchors.bfs_order()) {
      truth_[x] = canonical_node_state(x, sync.node(x));
    }
  }
  return truth_[id];
}

bool ProcessSupervisor::wait_converged(const std::vector<NodeId>& ids,
                                       double deadline) {
  const double until = mono_seconds() + deadline;
  std::string mismatch;
  while (mono_seconds() < until) {
    bool all = true;
    for (NodeId id : ids) {
      std::string state;
      if (!dump(id, state, 5.0) || state != ground_truth(id)) {
        all = false;
        mismatch = "node " + std::to_string(id) +
                   (state.empty() ? " unresponsive" : " not at fixpoint");
        break;
      }
    }
    if (all) return true;
    sleep_s(0.1);
  }
  return fail("wait_converged timeout: " + mismatch);
}

long long ProcessSupervisor::metrics_counter(NodeId id,
                                             const std::string& name) const {
  const std::string path = metrics_path(id);
  if (path.empty()) return -1;
  std::ifstream in(path);
  if (!in) return -1;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"" + name + "\": ";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + key.size(), nullptr, 10);
}

std::size_t ProcessSupervisor::collect(double per_node_timeout,
                                       std::vector<obs::NodeTelemetry>* fleet) {
  const std::size_t before = fleet->size();
  std::vector<Endpoint> endpoints;
  for (NodeId id = 0; id < options_.n; ++id) {
    if (!alive(id)) continue;  // a corpse's port refuses instantly anyway
    Endpoint ep;
    ep.port = static_cast<std::uint16_t>(base_port_ + id);
    endpoints.push_back(ep);
  }
  scrape_fleet(endpoints, per_node_timeout, fleet);
  if (!options_.flight_dir.empty()) {
    obs::augment_missing_from_flight(options_.flight_dir, fleet);
  }
  if (options_.verbose) {
    std::fprintf(stderr, "[sup] collected %zu/%zu nodes\n",
                 fleet->size() - before, options_.n);
  }
  return fleet->size() - before;
}

bool ProcessSupervisor::write_fleet_artifacts(
    const std::vector<obs::NodeTelemetry>& fleet, const std::string& dir) {
  const std::vector<double> offsets = obs::estimate_clock_offsets(fleet);
  return obs::write_text_file(dir + "/fleet_trace.json",
                              obs::fleet_chrome_trace_json(fleet, offsets)) &&
         obs::write_text_file(
             dir + "/fleet_metrics.json",
             obs::json_object(obs::merge_fleet_metrics(fleet)));
}

std::string run_scenario(const std::string& name, SupervisorOptions options) {
  const std::size_t n = options.n;
  const double deadline = options.converge_deadline;
  const bool check_metrics = !options.metrics_dir.empty();
  ProcessSupervisor sup(options);
  std::vector<NodeId> all;
  for (NodeId id = 0; id < n; ++id) all.push_back(id);
  auto err = [&](const std::string& stage) {
    return name + "/" + stage + ": " + sup.last_error();
  };

  if (!sup.start_cluster()) return err("start");

  if (name == "converge") {
    if (!sup.wait_converged(all, deadline)) return err("converge");
    return "";
  }

  if (name == "kill-rejoin") {
    if (n < 5) return "kill-rejoin needs n >= 5";
    // Kill a 2-node minority mid-convergence: no cleanup, no goodbye.
    sleep_s(0.2);
    sup.kill_hard(1);
    sup.kill_hard(3);
    // Survivors must still answer (degraded, not dead): dumps stay live and
    // the serving plane returns a well-formed query-result line.
    for (NodeId id : {NodeId{0}, NodeId{2}, NodeId{4}}) {
      std::string state;
      if (!sup.dump(id, state, 5.0)) return err("survivor-dump");
      std::string reply;
      if (!sup.query(id, 2, 0, reply, 5.0)) return err("survivor-query");
      if (reply.find(" degraded=") == std::string::npos) {
        return name + "/survivor-query: malformed reply: " + reply;
      }
    }
    sleep_s(0.5);
    // Cold rejoin: fresh processes, empty tables, same ports.
    if (!sup.spawn(1)) return err("respawn-1");
    if (!sup.spawn(3)) return err("respawn-3");
    if (!sup.wait_converged(all, deadline)) return err("rejoin-converge");
    return "";
  }

  if (name == "partition-heal") {
    if (!sup.wait_converged(all, deadline)) return err("pre-converge");
    // Listener-close partition, then full isolation: peers' live conns go
    // silent and must be declared half-open by the heartbeat watchdog.
    if (!sup.send_cmd(2, "close-listener", 5.0)) return err("close-listener");
    if (!sup.send_cmd(2, "isolate", 5.0)) return err("isolate");
    sleep_s(1.6);  // > heartbeat_timeout (1.0s): half-open detection fires
    if (!sup.send_cmd(2, "deisolate", 5.0)) return err("deisolate");
    if (!sup.send_cmd(2, "open-listener", 5.0)) return err("open-listener");
    if (!sup.wait_converged(all, deadline)) return err("heal-converge");
    if (check_metrics) {
      // Drain everyone and verify the cluster re-established connections
      // (only the isolated node's tree neighbors dial it, so sum over all).
      long long reconnects = 0;
      for (NodeId id = 0; id < n; ++id) {
        const int code = sup.sigterm_wait(id, 10.0);
        if (code != 0) {
          return name + "/drain-node" + std::to_string(id) +
                 ": exit code " + std::to_string(code);
        }
        reconnects +=
            std::max(0ll, sup.metrics_counter(id, "bcc.net.reconnects"));
      }
      if (reconnects <= 0) {
        return name + "/metrics: cluster bcc.net.reconnects = " +
               std::to_string(reconnects);
      }
    }
    return "";
  }

  if (name == "stall-resume") {
    if (n < 2) return "stall-resume needs n >= 2";
    if (!sup.wait_converged(all, deadline)) return err("pre-converge");
    sup.sigstop(1);
    sleep_s(1.6);  // frozen past the heartbeat timeout
    sup.sigcont(1);
    if (!sup.wait_converged(all, deadline)) return err("resume-converge");
    return "";
  }

  if (name == "drain") {
    if (!sup.wait_converged(all, deadline)) return err("pre-converge");
    for (NodeId id = 0; id < n; ++id) {
      const int code = sup.sigterm_wait(id, 10.0);
      if (code != 0) {
        return name + "/node" + std::to_string(id) + ": exit code " +
               std::to_string(code);
      }
    }
    if (check_metrics) {
      const long long sent = sup.metrics_counter(0, "bcc.net.frames_sent");
      if (sent <= 0) {
        return name + "/metrics: bcc.net.frames_sent = " +
               std::to_string(sent);
      }
    }
    return "";
  }

  if (name == "kill-collect") {
    if (n < 4) return "kill-collect needs n >= 4";
    if (options.flight_dir.empty()) return "kill-collect needs flight_dir";
    // Let gossip run so cross-process exchanges (and their spans) pile up
    // on both sides of every link — then kill a node mid-conversation.
    sleep_s(1.2);
    const NodeId victim = 1;
    sup.kill_hard(victim);

    std::vector<obs::NodeTelemetry> fleet;
    sup.collect(2.0, &fleet);
    if (fleet.size() < n) {
      return name + "/collect: " + std::to_string(fleet.size()) + "/" +
             std::to_string(n) + " nodes (victim flight ring missing?)";
    }
    const obs::NodeTelemetry* dead = nullptr;
    std::size_t live_spans = 0;
    for (const obs::NodeTelemetry& t : fleet) {
      if (t.node == victim) dead = &t;
      else live_spans += t.spans.size();
    }
    if (dead == nullptr || !dead->recovered) {
      return name + "/flight: victim not recovered from disk";
    }
    if (dead->spans.empty()) return name + "/flight: victim ring empty";
    if (live_spans == 0) return name + "/scrape: no live spans";

    // The acceptance chain: a receive span on one process causally linked
    // (remote parent id) to a send span on another, with the flight-
    // recovered victim on one end — either as the sender whose spans only
    // survive on disk, or as the receiver recovered from disk.
    std::set<std::uint64_t> victim_ids;
    for (const obs::SpanRecord& s : dead->spans) victim_ids.insert(s.id);
    bool linked = false;
    for (const obs::NodeTelemetry& t : fleet) {
      if (t.node == victim) continue;
      for (const obs::SpanRecord& s : t.spans) {
        if (s.remote_parent && victim_ids.count(s.parent) > 0) linked = true;
      }
    }
    if (!linked) {
      std::set<std::uint64_t> live_ids;
      for (const obs::NodeTelemetry& t : fleet) {
        if (t.node == victim) continue;
        for (const obs::SpanRecord& s : t.spans) live_ids.insert(s.id);
      }
      for (const obs::SpanRecord& s : dead->spans) {
        if (s.remote_parent && live_ids.count(s.parent) > 0) linked = true;
      }
    }
    if (!linked) {
      return name + "/causal: no cross-process span chain touches the victim";
    }

    // The merged timeline must carry the victim's flight lane and at least
    // one cross-process flow arrow.
    const std::string trace = obs::fleet_chrome_trace_json(
        fleet, obs::estimate_clock_offsets(fleet));
    if (trace.find("[flight]") == std::string::npos) {
      return name + "/export: no flight lane in merged trace";
    }
    if (trace.find("\"ph\":\"s\"") == std::string::npos) {
      return name + "/export: no flow arrows in merged trace";
    }
    if (!options.telemetry_out.empty() &&
        !ProcessSupervisor::write_fleet_artifacts(fleet,
                                                  options.telemetry_out)) {
      return name + "/export: artifact write failed";
    }
    return "";
  }

  if (name == "overhead") {
    // Collector-overhead A/B on a live cluster: same wall window, same
    // world, gossip throughput (sum of bcc.net.frames_sent per second)
    // without vs with a 0.5s-period collector. Needs metrics_dir for the
    // drained counter files. Reported, not asserted — EXPERIMENTS.md
    // records the number against the <2% budget (a hard assert here would
    // be noise-limited on a loaded 1-cpu CI box).
    if (options.metrics_dir.empty()) return "overhead needs metrics_dir";
    const double window = 6.0;
    double rate[2] = {0.0, 0.0};
    for (int scraped = 0; scraped < 2; ++scraped) {
      ProcessSupervisor ab(options);
      if (!ab.start_cluster()) {
        return name + "/start: " + ab.last_error();
      }
      const double t_end = mono_seconds() + window;
      while (mono_seconds() < t_end) {
        if (scraped == 1) {
          std::vector<obs::NodeTelemetry> fleet;
          ab.collect(0.5, &fleet);
        }
        sleep_s(0.5);
      }
      long long frames = 0;
      for (NodeId id = 0; id < n; ++id) {
        const int code = ab.sigterm_wait(id, 10.0);
        if (code != 0) {
          return name + "/drain-node" + std::to_string(id) + ": exit code " +
                 std::to_string(code);
        }
        frames +=
            std::max(0ll, ab.metrics_counter(id, "bcc.net.frames_sent"));
      }
      rate[scraped] = static_cast<double>(frames) / window;
    }
    const double delta_pct =
        rate[0] > 0.0 ? (rate[0] - rate[1]) / rate[0] * 100.0 : 0.0;
    std::fprintf(stderr,
                 "[overhead] frames/s unscraped=%.1f scraped=%.1f "
                 "delta=%.2f%%\n",
                 rate[0], rate[1], delta_pct);
    if (!options.telemetry_out.empty()) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"frames_per_s_unscraped\":%.1f,"
                    "\"frames_per_s_scraped\":%.1f,\"delta_pct\":%.2f}\n",
                    rate[0], rate[1], delta_pct);
      obs::write_text_file(options.telemetry_out + "/overhead.json", buf);
    }
    return "";
  }

  return "unknown scenario: " + name;
}

}  // namespace bcc::net

// bcc_perfbench — runs one benchmark workload as a fixed, seeded sequence of
// ops and prints one JSON object with its raw measurements (set-up times,
// per-op latencies, checks, per-layer metrics). run.py turns that into the
// benchmark's metrics; see README.md.
//
//   bcc_perfbench --workload query-cold --seed 7 --ops 1500 [--trace 0|1]
//
// A traced run also writes its spans, one JSON object a line, to
// .bench_build/traces/<workload>-seed<seed>.spans.jsonl under the working
// directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <malloc.h>

#include "bench.h"
#include "core/find_cluster.h"

namespace bcc::perfbench {

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.traces(tracer_.op_)) return;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back({name, now_ns(), 0, tracer_.open_, tracer_.op_});
  tracer_.open_ = index_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Record& r = tracer_.spans_[static_cast<std::size_t>(index_)];
  r.end_ns = now_ns();
  tracer_.open_ = r.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      child_ms[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double ms =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    Totals& t = out[spans_[i].name];
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
    ++t.count;
  }
  return out;
}

double Tracer::mean_ms(const std::string& name) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const Record& r : spans_) {
    if (name != r.name) continue;
    sum += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"op\":" << r.op << "}\n";
  }
  return static_cast<bool>(out);
}

const std::vector<std::string>& layer_metrics() {
  static const std::vector<std::string> kNames = {
      "metric.transform_ms", "data.dirty_ms",       "tree.embed_ms",
      "tree.predict_ms",     "tree.join_ms",        "tree.max_degree",
      "tree.repair_ms",      "tree.delta_write_ms", "tree.repaired_hosts",
      "tree.full_rebuild_ratio", "core.converge_ms", "core.converge_cycles",
      "core.space_max",      "core.space_mean",     "core.hops_mean",
      "core.apply_delta_ms", "core.regossip_ms",    "core.regossip_cycles",
      "core.reused_ratio",   "core.rounds_per_op",  "core.fixpoint_sim_s",
      "sim.messages",        "sim.bytes",           "sim.messages_per_op",
      "sim.bytes_per_op",    "sim.dropped",         "sim.retried",
      "net.frames_sent",     "serve.compute_share", "serve.local_ratio",
      "serve.cache_hit_ratio", "serve.publish_ms",  "serve.fresh_query_ms",
      "bench.ops_per_s_traced", "bench.trace_overhead_pct",
  };
  return kNames;
}

bool answer_ok(const QueryResult& result, std::size_t k,
               const DistanceMatrix& predicted,
               const BandwidthClasses& classes) {
  if (result.status == QueryStatus::kNotFound) return true;
  if (result.status != QueryStatus::kFound || !result.class_idx) return false;
  return cluster_satisfies(predicted, result.cluster, k,
                           classes.distance_at(*result.class_idx));
}

SpaceStats space_stats(const OverlayNodeMap& nodes) {
  SpaceStats stats;
  for (const auto& [id, node] : nodes) {
    const auto size = static_cast<double>(node.clustering_space().size());
    stats.max = std::max(stats.max, size);
    stats.mean += size / static_cast<double>(nodes.size());
  }
  return stats;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

void print_doubles(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", values[i]);
  }
  std::printf("]");
}

int usage() {
  std::fprintf(stderr,
               "usage: bcc_perfbench --workload query-cold|stream-repair|"
               "async-gossip --seed N --ops N [--trace 0|1]\n");
  return 2;
}

}  // namespace
}  // namespace bcc::perfbench

int main(int argc, char** argv) {
  using namespace bcc::perfbench;
  std::string workload;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--ops") {
      config.ops = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      config.trace = std::string(value) == "1";
    } else {
      return usage();
    }
  }
  // A traced run needs one traced and one untraced op for its overhead.
  if (argc % 2 == 0 || config.ops < (config.trace ? 2u : 1u)) {
    return usage();
  }

  Tracer tracer(config.trace);
  RunResult result;
  if (workload == "query-cold") {
    result = run_query_cold(config, tracer);
  } else if (workload == "stream-repair") {
    result = run_stream_repair(config, tracer);
  } else if (workload == "async-gossip") {
    result = run_async_gossip(config, tracer);
  } else {
    return usage();
  }
  if (config.trace) {
    // Odd ops ran traced, even ops untraced (Tracer::traces).
    double ms[2] = {0.0, 0.0};
    double count[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < result.op_ms.size(); ++i) {
      ms[i % 2] += result.op_ms[i];
      count[i % 2] += 1.0;
    }
    const double traced_per_s = 1e3 * count[1] / ms[1];
    const double untraced_per_s = 1e3 * count[0] / ms[0];
    result.layers["bench.ops_per_s_traced"] = traced_per_s;
    result.layers["bench.trace_overhead_pct"] =
        100.0 * (1.0 - traced_per_s / untraced_per_s);
    for (const std::string& name : layer_metrics()) {
      result.layers.try_emplace(name, 0.0);
    }
    if (result.layers.size() != layer_metrics().size()) {
      std::fprintf(stderr, "bcc_perfbench: unknown layer metric\n");
      return 1;
    }
  }
  if (config.trace) {
    const std::filesystem::path dir = ".bench_build/traces";
    const std::filesystem::path spans =
        dir / (workload + "-seed" + std::to_string(config.seed) +
               ".spans.jsonl");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec || !tracer.write_jsonl(spans.string())) {
      std::fprintf(stderr, "bcc_perfbench: cannot write %s\n",
                   spans.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans written to %s\n", spans.c_str());
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"setup_s\":",
              workload.c_str(), static_cast<unsigned long long>(config.seed));
  print_doubles(result.setup_s);
  std::printf(",\"op_ms\":");
  print_doubles(result.op_ms);
  std::printf(
      ",\"failed\":%zu,\"queries\":%zu,\"found\":%zu,"
      "\"peak_rss_mb\":%.9g,\"checks\":{",
      result.failed, result.queries, result.found, result.peak_rss_mb);
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    std::printf("%s\"%s\":%s", i ? "," : "", result.checks[i].first.c_str(),
                result.checks[i].second ? "true" : "false");
  }
  std::printf("},\"layers\":{");
  bool first = true;
  for (const auto& [name, value] : result.layers) {
    std::printf("%s\"%s\":%.9g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("},\"spans\":{");
  first = true;
  for (const auto& [name, t] : tracer.totals()) {
    std::printf("%s\"%s\":{\"total_ms\":%.9g,\"self_ms\":%.9g,\"count\":%zu}",
                first ? "" : ",", name.c_str(), t.total_ms, t.self_ms, t.count);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

// Machine-readable benchmark/experiment telemetry: every bench/ binary owns
// a BenchReport, registers its headline numbers as `bcc.bench.<...>` gauges
// (or histograms) in the report's private registry, and write() emits
// `BENCH_<name>.json` through the JSON exporter — the per-PR performance
// trajectory the ROADMAP asks for, generated (never hand-written) by
// actually running the binary.
//
// Output path: `$BCC_BENCH_OUT/BENCH_<name>.json` when the env var is set,
// else `./BENCH_<name>.json`.
#pragma once

#include <string>
#include <string_view>

#include "common/table.h"
#include "obs/metrics.h"

namespace bcc::obs {

/// See file comment.
class BenchReport {
 public:
  /// `bench_name` tags the output file (BENCH_<bench_name>.json); it must be
  /// a single lowercase [a-z0-9_] token.
  explicit BenchReport(std::string bench_name);

  /// The report's own registry (separate from Registry::global(), so a
  /// bench file holds exactly what the harness registered).
  Registry& registry() { return registry_; }

  /// Convenience: sets gauge `name` (full `bcc.bench....` name required).
  void set(std::string_view name, double value);

  /// Sanitizes an arbitrary token (e.g. "BM_GossipUnderLoss/30") into a
  /// metric-name segment: lowercased, every other character becomes '_'.
  static std::string sanitize_segment(std::string_view token);

  /// Where write() puts the file.
  std::string path() const;

  /// Writes {"bench":"<name>","metrics":<json_object(registry snapshot)>}.
  /// First sets gauge `bcc.bench.host.nproc`, the CPU count the run was
  /// allowed to use. Returns false on I/O failure.
  bool write();

 private:
  std::string name_;
  Registry registry_;
};

/// Exports every numeric cell of `table` into `report` as gauges named
/// `bcc.bench.<series>.<column>_r<row>` (column headers sanitized, rows
/// indexed in insertion order). Non-numeric cells are skipped — the fig*/
/// ablation harnesses print mixed tables and only the numbers matter.
void export_table(BenchReport& report, std::string_view series,
                  const TablePrinter& table);

}  // namespace bcc::obs

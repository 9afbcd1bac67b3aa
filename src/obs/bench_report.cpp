#include "obs/bench_report.h"

#include <sched.h>

#include <cstdlib>

#include "common/assert.h"
#include "obs/export.h"

namespace bcc::obs {

BenchReport::BenchReport(std::string bench_name) : name_(std::move(bench_name)) {
  BCC_REQUIRE(!name_.empty());
  for (char c : name_) {
    BCC_REQUIRE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_');
  }
}

void BenchReport::set(std::string_view name, double value) {
  registry_.gauge(name).set(value);
}

std::string BenchReport::sanitize_segment(std::string_view token) {
  std::string out;
  out.reserve(token.size());
  for (char c : token) {
    if (c >= 'A' && c <= 'Z') {
      out += static_cast<char>(c - 'A' + 'a');
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      out += c;
    } else {
      out += '_';
    }
  }
  return out.empty() ? "_" : out;
}

std::string BenchReport::path() const {
  const char* dir = std::getenv("BCC_BENCH_OUT");
  const std::string prefix = (dir && *dir) ? std::string(dir) + "/" : "";
  return prefix + "BENCH_" + name_ + ".json";
}

bool BenchReport::write() {
  // The CPUs this process may use (what `nproc` prints).
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof(cpus), &cpus);
  set("bcc.bench.host.nproc", CPU_COUNT(&cpus));
  std::string out = "{\"bench\":\"" + name_ + "\",\n\"metrics\":";
  out += json_object(registry_.snapshot());
  out += "}\n";
  return write_text_file(path(), out);
}

void export_table(BenchReport& report, std::string_view series,
                  const TablePrinter& table) {
  const std::string prefix =
      "bcc.bench." + BenchReport::sanitize_segment(series) + ".";
  const auto& header = table.header();
  const auto& rows = table.rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size() && c < header.size(); ++c) {
      const std::string& cell = rows[r][c];
      char* end = nullptr;
      const double value = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || end == nullptr || *end != '\0') continue;
      report.set(prefix + BenchReport::sanitize_segment(header[c]) + "_r" +
                     std::to_string(r),
                 value);
    }
  }
}

}  // namespace bcc::obs

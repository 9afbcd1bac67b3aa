// Tests for the observability substrate (src/obs): metric naming, the
// striped counter and log-bucketed histogram (including the quantile
// contract against a reference sort), registry concurrency, the span
// tracer's ring/nesting/sim-clock behavior, the exporters (golden strings +
// a Prometheus mini-parser), and BenchReport file output.
//
// Built as its own binary (bcc_obs_tests, `ctest -L obs`) so the sanitizer
// script can run exactly this suite under TSan/ASan.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/table.h"
#include "obs/bench_report.h"
#include "obs/convergence.h"
#include "obs/export.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "test_util.h"

namespace bcc::obs {
namespace {

// ----------------------------------------------------------------- naming

TEST(ObsNaming, ValidatesTheConvention) {
  EXPECT_TRUE(valid_metric_name("bcc.sim.messages"));
  EXPECT_TRUE(valid_metric_name("bcc.serve.query_micros"));
  EXPECT_TRUE(valid_metric_name("bcc.bench.a.b.c_0"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("bcc"));
  EXPECT_FALSE(valid_metric_name("bcc.sim"));          // needs >= 3 segments
  EXPECT_FALSE(valid_metric_name("sim.bcc.messages"));  // must start with bcc
  EXPECT_FALSE(valid_metric_name("bcc.Sim.messages"));  // lowercase only
  EXPECT_FALSE(valid_metric_name("bcc.sim.messages "));
  EXPECT_FALSE(valid_metric_name("bcc..messages"));
  EXPECT_FALSE(valid_metric_name("bcc.sim.mes-sages"));
}

TEST(ObsNaming, RegistryRejectsBadNamesAndKindConflicts) {
  Registry registry;
  EXPECT_THROW(registry.counter("not.a.bcc.name"), ContractViolation);
  EXPECT_THROW(registry.gauge("bcc.two_segments"), ContractViolation);
  registry.counter("bcc.test.value");
  EXPECT_THROW(registry.gauge("bcc.test.value"), ContractViolation);
  EXPECT_THROW(registry.histogram("bcc.test.value"), ContractViolation);
  // Same name, same kind: the same instrument back.
  EXPECT_EQ(&registry.counter("bcc.test.value"),
            &registry.counter("bcc.test.value"));
}

// ---------------------------------------------------------------- counter

TEST(ObsCounter, ConcurrentAddsSumExactly) {
  Registry registry;
  Counter& counter = registry.counter("bcc.test.adds");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(ObsCounter, CopyCarriesTheValue) {
  Counter a;
  a.add(41);
  a.add(1);
  Counter b(a);
  EXPECT_EQ(b.value(), 42u);
  b = b;  // self-assign collapses stripes, value unchanged
  EXPECT_EQ(b.value(), 42u);
}

// -------------------------------------------------------------- histogram

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  Histogram h;
  // v = 0 -> bucket 0; v in [2^(i-1), 2^i - 1] -> bucket i.
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(7);
  h.record(8);
  const auto s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 1u);  // {0}
  EXPECT_EQ(s.buckets[1], 1u);  // {1}
  EXPECT_EQ(s.buckets[2], 2u);  // {2,3}
  EXPECT_EQ(s.buckets[3], 2u);  // {4..7}
  EXPECT_EQ(s.buckets[4], 1u);  // {8..15}
  EXPECT_EQ(s.count, 7u);
  EXPECT_EQ(s.sum, 0u + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(s.max, 8u);
  EXPECT_EQ(Histogram::Snapshot::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::Snapshot::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::Snapshot::bucket_upper(4), 15u);
}

TEST(ObsHistogram, QuantileWithinFactorTwoOfReferenceSort) {
  // The documented contract: exact <= quantile(p) <= 2 * exact (and both
  // sides capped by the observed max). Checked against a reference sort
  // over a deterministic-but-irregular sample set.
  Histogram h;
  std::vector<std::uint64_t> samples;
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = (x >> 33) % 100000;
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  const auto s = h.snapshot();
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    const std::uint64_t exact = samples[std::min(rank, samples.size()) - 1];
    const std::uint64_t est = s.quantile(p);
    EXPECT_GE(est, exact) << "p=" << p;
    EXPECT_LE(est, std::max<std::uint64_t>(2 * exact, 1)) << "p=" << p;
    EXPECT_LE(est, s.max) << "p=" << p;
  }
  EXPECT_EQ(s.quantile(100.0), s.max);
}

TEST(ObsHistogram, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.snapshot().quantile(50.0), 0u);
  EXPECT_EQ(h.snapshot().mean(), 0.0);
  h.record(100);
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(ObsHistogram, ConcurrentRecordsCountExactly) {
  Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(t * 1000 + (i & 255));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.snapshot().count, kThreads * kPerThread);
}

// The fleet collector fuses per-process histograms with Snapshot::
// merge_from; these property tests pin the documented exactness claim:
// because buckets are value-range-aligned, merging snapshots of split
// streams is indistinguishable from recording the concatenated stream.

std::vector<std::uint64_t> irregular_samples(std::uint64_t seed, int n) {
  std::vector<std::uint64_t> samples;
  std::uint64_t x = seed;
  for (int i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    // Mix magnitudes: mostly small, a heavy tail, some zeros.
    const std::uint64_t v = (x >> 33) % ((i % 7 == 0) ? 3u : 1000000u);
    samples.push_back(v);
  }
  return samples;
}

Histogram::Snapshot snapshot_of(const std::vector<std::uint64_t>& samples) {
  Histogram h;
  for (std::uint64_t v : samples) h.record(v);
  return h.snapshot();
}

TEST(ObsHistogram, MergeEqualsRecordingTheConcatenatedStream) {
  const auto all = irregular_samples(99, 4000);
  // Any split point: merge(prefix, suffix) == record(all).
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{1300},
                          std::size_t{3999}, std::size_t{4000}}) {
    Histogram::Snapshot merged = snapshot_of(
        {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(cut)});
    merged.merge_from(snapshot_of(
        {all.begin() + static_cast<std::ptrdiff_t>(cut), all.end()}));
    const Histogram::Snapshot whole = snapshot_of(all);
    EXPECT_EQ(merged.buckets, whole.buckets) << "cut=" << cut;
    EXPECT_EQ(merged.count, whole.count);
    EXPECT_EQ(merged.sum, whole.sum);
    EXPECT_EQ(merged.max, whole.max);
  }
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  const Histogram::Snapshot a = snapshot_of(irregular_samples(1, 700));
  const Histogram::Snapshot b = snapshot_of(irregular_samples(2, 1300));
  const Histogram::Snapshot c = snapshot_of(irregular_samples(3, 50));

  Histogram::Snapshot ab_c = a;   // (a + b) + c
  ab_c.merge_from(b);
  ab_c.merge_from(c);
  Histogram::Snapshot bc = b;     // a + (b + c)
  bc.merge_from(c);
  Histogram::Snapshot a_bc = a;
  a_bc.merge_from(bc);
  Histogram::Snapshot cba = c;    // c + b + a
  cba.merge_from(b);
  cba.merge_from(a);

  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab_c.buckets, cba.buckets);
  EXPECT_EQ(ab_c.count, cba.count);
  EXPECT_EQ(ab_c.sum, cba.sum);
  EXPECT_EQ(ab_c.max, cba.max);
}

TEST(ObsHistogram, MergedQuantilesKeepTheFactorTwoContract) {
  // Merge three "process" shards, then check every quantile of the merged
  // snapshot against a reference sort of the union — the same
  // exact <= est <= min(2 * exact, max) contract the single-histogram test
  // pins, surviving the merge.
  std::vector<std::uint64_t> all;
  Histogram::Snapshot merged;
  for (int shard : {7, 8, 9}) {
    const auto samples = irregular_samples(static_cast<std::uint64_t>(shard),
                                           2000 + 500 * shard);
    all.insert(all.end(), samples.begin(), samples.end());
    merged.merge_from(snapshot_of(samples));
  }
  std::sort(all.begin(), all.end());
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(all.size())));
    const std::uint64_t exact = all[std::min(rank, all.size()) - 1];
    const std::uint64_t est = merged.quantile(p);
    EXPECT_GE(est, exact) << "p=" << p;
    EXPECT_LE(est, std::max<std::uint64_t>(2 * exact, 1)) << "p=" << p;
    EXPECT_LE(est, merged.max) << "p=" << p;
  }
  EXPECT_EQ(merged.quantile(100.0), merged.max);
}

// --------------------------------------------------------------- registry

TEST(ObsRegistry, ConcurrentGetOrCreateAndSnapshot) {
  Registry registry;
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string mine =
          "bcc.test.private_" + std::to_string(t);
      for (int i = 0; i < kRounds; ++i) {
        registry.counter("bcc.test.shared").add(1);
        registry.counter(mine).add(1);
        registry.gauge("bcc.test.gauge").set(static_cast<double>(i));
        registry.histogram("bcc.test.hist").record(static_cast<std::uint64_t>(i));
        if (i % 64 == 0) (void)registry.snapshot();
      }
    });
  }
  for (auto& t : threads) t.join();
  const RegistrySnapshot s = registry.snapshot();
  EXPECT_EQ(s.counter_value("bcc.test.shared"), kThreads * kRounds);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(s.counter_value("bcc.test.private_" + std::to_string(t)),
              static_cast<std::uint64_t>(kRounds));
  }
  ASSERT_NE(s.histogram("bcc.test.hist"), nullptr);
  EXPECT_EQ(s.histogram("bcc.test.hist")->count, kThreads * kRounds);
  EXPECT_EQ(s.histogram("bcc.test.missing"), nullptr);
}

TEST(ObsRegistry, ResetKeepsRegistrationsAndReferences) {
  Registry registry;
  Counter& c = registry.counter("bcc.test.keep");
  c.add(7);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(1);  // old reference still valid and live
  EXPECT_EQ(registry.snapshot().counter_value("bcc.test.keep"), 1u);
}

// ----------------------------------------------------------------- tracer

TEST(ObsTracer, DisabledCategoryIsInert) {
  Tracer tracer;  // all categories disabled
  {
    Span span(tracer, SpanCategory::kBench, "never");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.started(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(ObsTracer, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer tracer;
  tracer.set_capacity(8);
  tracer.enable(SpanCategory::kBench);
  for (int i = 0; i < 20; ++i) {
    Span span(tracer, SpanCategory::kBench, "s");
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(tracer.started(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // Oldest-first snapshot of the newest 8 spans: ids 13..20.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, 13 + i);
  }
  tracer.clear();
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, RingOverwriteBumpsTheGlobalSpansDroppedCounter) {
  // Silent overwrites become observable fleet-wide: every ring overwrite
  // counts into bcc.trace.spans_dropped in the global registry, which the
  // telemetry collector merges and `bcc metrics` prints. Delta-based so it
  // coexists with other tests that overflow rings.
  const std::uint64_t before =
      Registry::global().snapshot().counter_value("bcc.trace.spans_dropped");
  Tracer tracer;
  tracer.set_capacity(4);
  tracer.enable(SpanCategory::kBench);
  for (int i = 0; i < 10; ++i) {
    Span span(tracer, SpanCategory::kBench, "s");
  }
  const std::uint64_t after =
      Registry::global().snapshot().counter_value("bcc.trace.spans_dropped");
  EXPECT_EQ(after - before, 6u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(ObsTracer, DrainReturnsOldestFirstAndEmptiesTheRing) {
  Tracer tracer;
  tracer.enable(SpanCategory::kBench);
  { Span a(tracer, SpanCategory::kBench, "a"); }
  { Span b(tracer, SpanCategory::kBench, "b"); }
  const auto first = tracer.drain();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_STREQ(first[0].name, "a");
  EXPECT_STREQ(first[1].name, "b");
  // The ring is now empty: a second drain only sees what came after — the
  // property that lets successive telemetry scrapes stream the ring
  // without re-sending (and double-merging) spans.
  { Span c(tracer, SpanCategory::kBench, "c"); }
  const auto second = tracer.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_STREQ(second[0].name, "c");
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(ObsTracer, SinkSeesEveryCompletedSpanIncludingOverwrittenOnes) {
  Tracer tracer;
  tracer.set_capacity(2);  // the ring forgets, the sink must not
  tracer.enable(SpanCategory::kBench);
  std::vector<std::string> seen;
  tracer.set_sink([&seen](const SpanRecord& r) { seen.push_back(r.name); });
  for (int i = 0; i < 5; ++i) {
    Span span(tracer, SpanCategory::kBench, "s");
  }
  tracer.clear_sink();
  { Span span(tracer, SpanCategory::kBench, "after"); }
  EXPECT_EQ(seen.size(), 5u) << "sink fires per completion, ring size "
                                "notwithstanding (flight-recorder contract)";
  EXPECT_EQ(tracer.snapshot().size(), 2u) << "ring still capacity-bounded";
}

TEST(ObsTracer, SeededIdRangesAreDisjointAcrossProcessSeeds) {
  // Fleet processes seed (id + 1) << 40, so span ids never collide and the
  // collector's id-keyed re-parenting is exact across the whole fleet.
  Tracer first, second;
  first.seed_ids(std::uint64_t{1} << 40);
  second.seed_ids(std::uint64_t{2} << 40);
  first.enable(SpanCategory::kGossip);
  second.enable(SpanCategory::kGossip);
  for (int i = 0; i < 3; ++i) {
    Span a(first, SpanCategory::kGossip, "a");
    Span b(second, SpanCategory::kGossip, "b");
  }
  for (const SpanRecord& r : first.snapshot()) {
    EXPECT_GE(r.id, std::uint64_t{1} << 40);
    EXPECT_LT(r.id, std::uint64_t{2} << 40);
  }
  for (const SpanRecord& r : second.snapshot()) {
    EXPECT_GE(r.id, std::uint64_t{2} << 40);
  }
  // seed_ids(0) still yields valid (nonzero) ids — 0 means "no parent".
  Tracer zero;
  zero.seed_ids(0);
  zero.enable(SpanCategory::kBench);
  { Span s(zero, SpanCategory::kBench, "z"); }
  EXPECT_GE(zero.snapshot().at(0).id, 1u);
}

TEST(ObsTracer, NestedSpansRecordParentIds) {
  Tracer tracer;
  tracer.enable(SpanCategory::kSim);
  tracer.enable(SpanCategory::kServe);
  std::uint64_t outer_id = 0;
  {
    Span outer(tracer, SpanCategory::kSim, "outer");
    outer_id = outer.id();
    Span inner(tracer, SpanCategory::kServe, "inner");
    Span innermost(tracer, SpanCategory::kSim, "innermost");
  }
  {
    Span sibling(tracer, SpanCategory::kSim, "sibling");
  }
  const auto spans = tracer.snapshot();  // completion order
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "innermost");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "outer");
  EXPECT_STREQ(spans[3].name, "sibling");
  EXPECT_EQ(spans[2].parent, 0u) << "outer is a root span";
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[3].parent, 0u) << "nesting must unwind after a span ends";
  EXPECT_LE(spans[2].wall_begin_us, spans[2].wall_end_us);
}

TEST(ObsTracer, SimClockStampsSpanEdges) {
  Tracer tracer;
  tracer.enable(SpanCategory::kGossip);
  double now = 3.5;
  tracer.set_sim_clock([&now] { return now; });
  {
    Span span(tracer, SpanCategory::kGossip, "timed");
    now = 4.25;
  }
  tracer.clear_sim_clock();
  {
    Span span(tracer, SpanCategory::kGossip, "untimed");
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0].sim_begin, 3.5);
  EXPECT_DOUBLE_EQ(spans[0].sim_end, 4.25);
  EXPECT_DOUBLE_EQ(spans[1].sim_begin, -1.0);
  EXPECT_DOUBLE_EQ(spans[1].sim_end, -1.0);
}

TEST(ObsTracer, ConcurrentSpansAllRecorded) {
  Tracer tracer;
  tracer.set_capacity(100000);
  tracer.enable_all();
  constexpr std::size_t kThreads = 4;
  constexpr int kSpansPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span outer(tracer, SpanCategory::kBench, "outer");
        Span inner(tracer, SpanCategory::kBench, "inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.started(), 2 * kThreads * kSpansPerThread);
  EXPECT_EQ(tracer.snapshot().size(), 2 * kThreads * kSpansPerThread);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// -------------------------------------------------------------- exporters

RegistrySnapshot golden_registry() {
  Registry registry;
  registry.counter("bcc.test.count").add(3);
  registry.gauge("bcc.test.ratio").set(0.5);
  Histogram& h = registry.histogram("bcc.test.lat");
  h.record(0);
  h.record(3);
  h.record(3);
  h.record(9);
  return registry.snapshot();
}

TEST(ObsExport, PrometheusGolden) {
  const std::string expected =
      "# TYPE bcc_test_count counter\n"
      "bcc_test_count 3\n"
      "# TYPE bcc_test_ratio gauge\n"
      "bcc_test_ratio 0.5\n"
      "# TYPE bcc_test_lat histogram\n"
      "bcc_test_lat_bucket{le=\"0\"} 1\n"
      "bcc_test_lat_bucket{le=\"1\"} 1\n"
      "bcc_test_lat_bucket{le=\"3\"} 3\n"
      "bcc_test_lat_bucket{le=\"7\"} 3\n"
      "bcc_test_lat_bucket{le=\"15\"} 4\n"
      "bcc_test_lat_bucket{le=\"+Inf\"} 4\n"
      "bcc_test_lat_sum 15\n"
      "bcc_test_lat_count 4\n"
      "bcc_test_lat_p50 3\n"
      "bcc_test_lat_p90 9\n"  // bucket upper is 15, capped by the max (9)
      "bcc_test_lat_p99 9\n";
  EXPECT_EQ(prometheus_text(golden_registry()), expected);
}

TEST(ObsExport, PrometheusParsesCleanly) {
  // Mini-parser for the exposition format: every non-comment line must be
  // `name{labels} value` or `name value`, names [a-zA-Z_:][a-zA-Z0-9_:]*,
  // values parseable as doubles, and `# TYPE` lines must precede samples.
  const std::string text = prometheus_text(golden_registry());
  std::size_t line_no = 0, samples = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "file must end with a newline";
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    ASSERT_FALSE(line.empty()) << "no blank lines, line " << line_no;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    ASSERT_FALSE(name.empty()) << line;
    for (char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << line;
    }
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    EXPECT_TRUE(parse_end && *parse_end == '\0') << line;
    EXPECT_TRUE(std::isfinite(v)) << line;
    ++samples;
  }
  EXPECT_EQ(samples, 13u);  // 1 counter + 1 gauge + 11 histogram series
}

TEST(ObsExport, JsonObjectGolden) {
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"bcc.test.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"bcc.test.ratio\": 0.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"bcc.test.lat\": {\"count\":4,\"sum\":15,\"max\":9,\"mean\":3.75,"
      "\"p50\":3,\"p90\":9,\"p99\":9,\"buckets\":[{\"le\":0,\"count\":1},"
      "{\"le\":3,\"count\":2},{\"le\":15,\"count\":1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(json_object(golden_registry()), expected);
}

TEST(ObsExport, JsonObjectOfEmptyRegistryIsValid) {
  Registry registry;
  EXPECT_EQ(json_object(registry.snapshot()),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(ObsExport, JsonLinesOneObjectPerInstrument) {
  const std::string text = json_lines(golden_registry());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("{\"type\":\"counter\",\"name\":\"bcc.test.count\","
                      "\"value\":3}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"gauge\",\"name\":\"bcc.test.ratio\","
                      "\"value\":0.5,\"agg\":\"max\"}\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"histogram\",\"name\":\"bcc.test.lat\""),
            std::string::npos);
}

TEST(ObsExport, TraceJsonLinesGolden) {
  SpanRecord rec;
  rec.id = 7;
  rec.parent = 3;
  rec.trace_id = 3;
  rec.category = SpanCategory::kGossip;
  rec.name = "retry_exchange";
  rec.wall_begin_us = 100;
  rec.wall_end_us = 250;
  rec.sim_begin = 1.5;
  rec.sim_end = 2.0;
  rec.hop = 1;
  rec.node = 4;
  rec.remote_parent = true;
  EXPECT_EQ(trace_json_lines({rec}),
            "{\"id\":7,\"parent\":3,\"trace\":3,\"category\":\"gossip\","
            "\"name\":\"retry_exchange\",\"wall_begin_us\":100,"
            "\"wall_end_us\":250,\"sim_begin\":1.5,\"sim_end\":2,"
            "\"hop\":1,\"remote\":true,\"node\":4}\n");
  // A plain local span (no trace, no node) omits the node field.
  SpanRecord local;
  local.id = 2;
  local.name = "local";
  local.category = SpanCategory::kBench;
  EXPECT_EQ(trace_json_lines({local}),
            "{\"id\":2,\"parent\":0,\"trace\":0,\"category\":\"bench\","
            "\"name\":\"local\",\"wall_begin_us\":0,\"wall_end_us\":0,"
            "\"sim_begin\":-1,\"sim_end\":-1,\"hop\":0,\"remote\":false}\n");
}

TEST(ObsExport, ChromeTraceGolden) {
  // One cross-node send -> receive pair, sim-stamped: the exporter must key
  // timestamps on sim time (seconds -> us), map node n to pid n + 1, and
  // bind one flow arrow (s at the sender, f at the receiver) by the
  // receiver's span id.
  SpanRecord send;
  send.id = 3;
  send.trace_id = 3;
  send.category = SpanCategory::kGossip;
  send.name = "send_exchange";
  send.sim_begin = 1.0;
  send.sim_end = 1.25;
  send.node = 0;
  SpanRecord recv;
  recv.id = 7;
  recv.parent = 3;
  recv.trace_id = 3;
  recv.category = SpanCategory::kGossip;
  recv.name = "recv_exchange";
  recv.sim_begin = 1.5;
  recv.sim_end = 2.0;
  recv.hop = 1;
  recv.node = 1;
  recv.remote_parent = true;
  EXPECT_EQ(
      chrome_trace_json({send, recv}),
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"node 0\"}},\n"
      "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"node 1\"}},\n"
      "{\"ph\":\"X\",\"name\":\"send_exchange\",\"cat\":\"gossip\","
      "\"ts\":1000000,\"dur\":250000,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":3,\"parent\":0,\"trace\":3,\"hop\":0}},\n"
      "{\"ph\":\"X\",\"name\":\"recv_exchange\",\"cat\":\"gossip\","
      "\"ts\":1500000,\"dur\":500000,\"pid\":2,\"tid\":1,"
      "\"args\":{\"span\":7,\"parent\":3,\"trace\":3,\"hop\":1}},\n"
      "{\"ph\":\"s\",\"name\":\"causal\",\"cat\":\"trace\",\"id\":7,"
      "\"ts\":1000000,\"pid\":1,\"tid\":1},\n"
      "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"causal\",\"cat\":\"trace\","
      "\"id\":7,\"ts\":1500000,\"pid\":2,\"tid\":1}\n"
      "]}\n");
}

TEST(ObsExport, ChromeTraceOfNoSpansIsValid) {
  EXPECT_EQ(chrome_trace_json({}),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
}

TEST(ObsExport, ChromeTraceFallsBackToWallClockAndHostPid) {
  // No sim stamps, no node: wall-clock microseconds and the pid-0 "host"
  // process. A remote receive whose sender was overwritten in the ring gets
  // no flow arrow (nothing dangling).
  SpanRecord rec;
  rec.id = 9;
  rec.parent = 4;  // not in the snapshot
  rec.trace_id = 4;
  rec.category = SpanCategory::kServe;
  rec.name = "serve_query";
  rec.wall_begin_us = 10;
  rec.wall_end_us = 35;
  rec.remote_parent = true;
  const std::string json = chrome_trace_json({rec});
  EXPECT_NE(json.find("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,"
                      "\"tid\":0,\"args\":{\"name\":\"host\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ts\":10,\"dur\":25,\"pid\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\":\"f\""), std::string::npos);
}

// -------------------------------------------- trace-context propagation

TEST(ObsTraceContext, InactiveSpanYieldsInvalidContext) {
  Tracer tracer;  // every category disabled
  Span span(tracer, SpanCategory::kGossip, "send");
  EXPECT_FALSE(span.active());
  EXPECT_FALSE(span.context().valid());
  EXPECT_FALSE(current_trace_context().valid());
  // A remote span built from an invalid context starts a fresh local trace.
  Tracer on;
  on.enable(SpanCategory::kGossip);
  Span fresh(on, SpanCategory::kGossip, "recv", span.context());
  EXPECT_TRUE(fresh.active());
  EXPECT_EQ(fresh.trace_id(), fresh.id());
}

TEST(ObsTraceContext, RemoteSpanLinksToSenderAndNestsLocally) {
  Tracer tracer;
  tracer.enable(SpanCategory::kGossip);
  std::uint64_t send_id = 0;
  {
    Span send(tracer, SpanCategory::kGossip, "send_exchange");
    send_id = send.id();
    const TraceContext ctx = send.context();
    EXPECT_TRUE(ctx.valid());
    EXPECT_EQ(ctx.trace_id, send.trace_id());
    EXPECT_EQ(ctx.parent_span, send.id());
    EXPECT_EQ(ctx.hop, 1u);  // pre-incremented for the network crossing
    {
      // The "other node": a remote-parented receive with a nested local
      // child, as AsyncOverlay's delivery handler opens them.
      Span recv(tracer, SpanCategory::kGossip, "recv_exchange", ctx, 5);
      Span apply(tracer, SpanCategory::kGossip, "apply_exchange");
      EXPECT_EQ(recv.trace_id(), send.trace_id());
      EXPECT_EQ(apply.trace_id(), send.trace_id());
    }
    // The remote span must restore the *thread's* previous top (the sender),
    // not its own remote parent.
    EXPECT_EQ(current_trace_context().parent_span, send.id());
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);  // completed innermost-first
  const SpanRecord& apply = spans[0];
  const SpanRecord& recv = spans[1];
  const SpanRecord& send = spans[2];
  EXPECT_EQ(send.id, send_id);
  EXPECT_EQ(send.parent, 0u);
  EXPECT_EQ(send.trace_id, send.id);
  EXPECT_FALSE(send.remote_parent);
  EXPECT_EQ(recv.parent, send.id);
  EXPECT_EQ(recv.trace_id, send.id);
  EXPECT_EQ(recv.hop, 1u);
  EXPECT_EQ(recv.node, 5u);
  EXPECT_TRUE(recv.remote_parent);
  EXPECT_EQ(apply.parent, recv.id);
  EXPECT_EQ(apply.trace_id, send.id);
  EXPECT_EQ(apply.hop, 1u);  // same node as recv: no extra hop
  EXPECT_FALSE(apply.remote_parent);
}

TEST(ObsTraceContext, DuplicatedMessageYieldsDistinctReceiveSpans) {
  EventEngine engine;
  FaultPlan plan(7);
  plan.set_default_faults({.drop_prob = 0.0, .duplicate_prob = 1.0,
                           .jitter_max = 0.0});
  FaultyChannel channel(&engine, &plan);
  Tracer tracer;
  tracer.enable(SpanCategory::kGossip);
  const RegistrySnapshot before = Registry::global().snapshot();
  std::uint64_t send_id = 0;
  {
    Span send(tracer, SpanCategory::kGossip, "send_exchange");
    send_id = send.id();
    channel.send(0, 1, 0.01, send.context(),
                 [&tracer](const TraceContext& ctx) {
                   Span recv(tracer, SpanCategory::kGossip, "recv_exchange",
                             ctx, 1);
                 });
  }
  engine.run_until(1.0);
  // Two deliveries of the SAME context -> two receive spans with distinct
  // ids, both remote-parented on the one sender span.
  std::vector<SpanRecord> recvs;
  for (const SpanRecord& s : tracer.snapshot()) {
    if (std::string(s.name) == "recv_exchange") recvs.push_back(s);
  }
  ASSERT_EQ(recvs.size(), 2u);
  EXPECT_NE(recvs[0].id, recvs[1].id);
  for (const SpanRecord& r : recvs) {
    EXPECT_EQ(r.parent, send_id);
    EXPECT_TRUE(r.remote_parent);
    EXPECT_EQ(r.hop, 1u);
  }
  const RegistrySnapshot after = Registry::global().snapshot();
  auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_EQ(delta("bcc.trace.contexts_injected"), 1u);
  EXPECT_EQ(delta("bcc.trace.contexts_duplicated"), 1u);
  EXPECT_EQ(delta("bcc.trace.contexts_delivered"), 2u);
  EXPECT_EQ(delta("bcc.trace.contexts_dropped"), 0u);
}

TEST(ObsTraceContext, DroppedMessageDiscardsContextWithoutLeaking) {
  EventEngine engine;
  FaultPlan plan(7);
  plan.set_default_faults({.drop_prob = 1.0});
  FaultyChannel channel(&engine, &plan);
  Tracer tracer;
  tracer.enable(SpanCategory::kGossip);
  const RegistrySnapshot before = Registry::global().snapshot();
  std::size_t deliveries = 0;
  {
    Span send(tracer, SpanCategory::kGossip, "send_exchange");
    channel.send(0, 1, 0.01, send.context(),
                 [&deliveries](const TraceContext&) { ++deliveries; });
  }
  engine.run_until(1.0);
  EXPECT_EQ(deliveries, 0u);
  const RegistrySnapshot after = Registry::global().snapshot();
  auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  // injected == dropped + delivered: the context died with the message.
  EXPECT_EQ(delta("bcc.trace.contexts_injected"), 1u);
  EXPECT_EQ(delta("bcc.trace.contexts_dropped"), 1u);
  EXPECT_EQ(delta("bcc.trace.contexts_delivered"), 0u);

  // An invalid context (tracing off at the sender) counts nothing at all.
  channel.send(0, 1, 0.01, TraceContext{},
               [&deliveries](const TraceContext&) { ++deliveries; });
  engine.run_until(2.0);
  const RegistrySnapshot final_snap = Registry::global().snapshot();
  EXPECT_EQ(final_snap.counter_value("bcc.trace.contexts_injected"),
            after.counter_value("bcc.trace.contexts_injected"));
  EXPECT_EQ(final_snap.counter_value("bcc.trace.contexts_dropped"),
            after.counter_value("bcc.trace.contexts_dropped"));
}

// ------------------------------------------------------------ convergence

TEST(ObsConvergence, TimeToConvergenceRecordedOncePerEpisode) {
  Registry registry;
  ConvergenceSample next;
  ConvergenceMonitor monitor(&registry, [&next] { return next; });
  auto node = [](std::uint64_t id, bool ok, double stale) {
    NodeHealth h;
    h.id = id;
    h.matches_reference = ok;
    h.staleness = stale;
    return h;
  };

  next.now = 1.0;
  next.nodes = {node(0, true, 0.5), node(1, false, 1.0)};
  next.suspected_links = 1;
  EXPECT_EQ(monitor.sample(), 1u);
  EXPECT_FALSE(monitor.converged());
  EXPECT_EQ(monitor.converged_at(), -1.0);

  next.now = 2.0;
  next.nodes = {node(0, true, 1.5), node(1, true, 0.0)};
  next.suspected_links = 0;
  EXPECT_EQ(monitor.sample(), 0u);
  EXPECT_TRUE(monitor.converged());
  EXPECT_EQ(monitor.converged_at(), 2.0);

  next.now = 3.0;  // still converged: not a new episode
  monitor.sample();
  EXPECT_EQ(monitor.converged_at(), 2.0);

  next.now = 4.0;  // churn: node 1 drifts again
  next.nodes = {node(0, true, 0.1), node(1, false, 2.0)};
  EXPECT_EQ(monitor.sample(), 1u);
  EXPECT_FALSE(monitor.converged());
  EXPECT_EQ(monitor.converged_at(), -1.0);

  next.now = 5.0;  // second episode converges
  next.nodes = {node(0, true, 0.2), node(1, true, 0.1)};
  monitor.sample();
  EXPECT_EQ(monitor.converged_at(), 5.0);

  const RegistrySnapshot snap = registry.snapshot();
  const Histogram::Snapshot* ttc =
      snap.histogram("bcc.conv.time_to_convergence_ms");
  ASSERT_NE(ttc, nullptr);
  EXPECT_EQ(ttc->count, 2u);  // one entry per convergence episode
  const Histogram::Snapshot* nc =
      snap.histogram("bcc.conv.node_convergence_ms");
  ASSERT_NE(nc, nullptr);
  EXPECT_EQ(nc->count, 3u);  // node 0 @1s, node 1 @2s, node 1 again @5s
  const Histogram::Snapshot* stale = snap.histogram("bcc.conv.staleness_ms");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->count, 10u);  // 2 nodes x 5 samples
  EXPECT_EQ(snap.counter_value("bcc.conv.samples"), 5u);
  EXPECT_EQ(snap.counter_value("bcc.conv.suspicion_churn"), 2u);  // 0->1->0
  EXPECT_EQ(snap.gauge_value("bcc.conv.converged"), 1.0);
  EXPECT_EQ(snap.gauge_value("bcc.conv.drift_fraction"), 0.0);
  EXPECT_EQ(snap.gauge_value("bcc.conv.nodes"), 2.0);
}

TEST(ObsConvergence, EmptySampleNeverCountsAsConverged) {
  Registry registry;
  ConvergenceMonitor monitor(&registry, [] { return ConvergenceSample{}; });
  EXPECT_EQ(monitor.sample(), 0u);
  EXPECT_FALSE(monitor.converged());
  EXPECT_EQ(registry.snapshot().gauge_value("bcc.conv.converged"), 0.0);
}

TEST(ObsExport, NonFiniteGaugesExportAsZero) {
  Registry registry;
  registry.gauge("bcc.test.bad").set(std::nan(""));
  registry.gauge("bcc.test.inf").set(INFINITY);
  const std::string json = json_object(registry.snapshot());
  EXPECT_NE(json.find("\"bcc.test.bad\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"bcc.test.inf\": 0"), std::string::npos);
}

// ------------------------------------------------------------ bench report

TEST(ObsBenchReport, WritesJsonFileToBenchOutDir) {
  const testutil::TempDir tmp;
  const auto& dir = tmp.path();
  ASSERT_EQ(setenv("BCC_BENCH_OUT", dir.c_str(), 1), 0);
  BenchReport report("unit");
  report.set("bcc.bench.unit.answer", 42.0);
  EXPECT_EQ(report.path(), (dir / "BENCH_unit.json").string());
  ASSERT_TRUE(report.write());
  std::FILE* f = std::fopen(report.path().c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[512] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  unsetenv("BCC_BENCH_OUT");
  const std::string content(buf, n);
  EXPECT_NE(content.find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(content.find("\"bcc.bench.unit.answer\": 42"), std::string::npos);
}

TEST(ObsBenchReport, RejectsBadNames) {
  EXPECT_THROW(BenchReport("Has Spaces"), ContractViolation);
  EXPECT_THROW(BenchReport(""), ContractViolation);
  EXPECT_EQ(BenchReport::sanitize_segment("BM_GossipUnderLoss/30"),
            "bm_gossipunderloss_30");
  EXPECT_EQ(BenchReport::sanitize_segment(""), "_");
}

TEST(ObsBenchReport, ExportTableSkipsNonNumericCells) {
  TablePrinter table({"k", "variant", "RR"});
  table.add_row({"2", "tree", "0.98"});
  table.add_row({"4", "euclidean", "0.75"});
  BenchReport report("tbl");
  export_table(report, "Main Series", table);
  const RegistrySnapshot s = report.registry().snapshot();
  EXPECT_DOUBLE_EQ(s.gauge_value("bcc.bench.main_series.k_r0"), 2.0);
  EXPECT_DOUBLE_EQ(s.gauge_value("bcc.bench.main_series.rr_r1"), 0.75);
  // "tree" / "euclidean" are not numbers: no gauge registered for them.
  EXPECT_EQ(s.gauges.size(), 4u);
}

// -------------------------------------------------------------- exemplars

TEST(ObsExemplar, OverwriteLatestPerBucketAndZeroIdIsFree) {
  Histogram h;
  h.record_with_exemplar(100, 0xaaa);
  h.record_with_exemplar(101, 0xbbb);  // same bit_width bucket: overwrites
  h.record_with_exemplar(5000, 0xccc);
  h.record_with_exemplar(102, 0);  // tracing off: counted, but no slot write
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  std::size_t live = 0;
  bool latest_won = false;
  for (const Exemplar& e : s.exemplars) {
    if (!e.valid()) continue;
    ++live;
    if (e.trace_id == 0xbbb) latest_won = true;
    EXPECT_NE(e.trace_id, 0xaaau) << "overwritten slot must not survive";
  }
  EXPECT_EQ(live, 2u);
  EXPECT_TRUE(latest_won);
}

TEST(ObsExemplar, ExemplarNearFindsTheQuantileBucketOrANeighbor) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    // Only the slowest 1% of samples carry a trace id — the realistic
    // shape: exemplar_near(99) must still surface a tail sample.
    h.record_with_exemplar(v, v > 990 ? v : 0);
  }
  const Histogram::Snapshot s = h.snapshot();
  const Exemplar* p99 = s.exemplar_near(99.0);
  ASSERT_NE(p99, nullptr);
  EXPECT_GT(p99->value, 900u);
  // An empty histogram has no exemplar at any quantile.
  EXPECT_EQ(Histogram().snapshot().exemplar_near(50.0), nullptr);
}

TEST(ObsExemplar, ResetClearsSlots) {
  Registry r;
  Histogram& h = r.histogram("bcc.test.lat");
  h.record_with_exemplar(64, 0x123);
  r.reset();
  const Histogram::Snapshot s = h.snapshot();
  for (const Exemplar& e : s.exemplars) EXPECT_FALSE(e.valid());
}

TEST(ObsExemplar, SnapshotMergeKeepsTheNewerStamp) {
  Histogram a, b;
  a.record_with_exemplar(100, 0x1);
  b.record_with_exemplar(100, 0x2);
  Histogram::Snapshot sa = a.snapshot();
  Histogram::Snapshot sb = b.snapshot();
  for (Exemplar& e : sa.exemplars) {
    if (e.valid()) e.wall_us = 10;
  }
  for (Exemplar& e : sb.exemplars) {
    if (e.valid()) e.wall_us = 20;
  }
  sa.merge_from(sb);
  bool found = false;
  for (const Exemplar& e : sa.exemplars) {
    if (!e.valid()) continue;
    found = true;
    EXPECT_EQ(e.trace_id, 0x2u);
  }
  EXPECT_TRUE(found);
}

TEST(ObsExport, PrometheusExemplarEscaping) {
  // A histogram with exemplars grows OpenMetrics-style ` # {...}` suffixes
  // on exactly the exemplared bucket lines, and the exposition stays
  // parseable: no quotes or braces leak outside the label block.
  Registry r;
  Histogram& h = r.histogram("bcc.test.lat");
  h.record_with_exemplar(3, 0xdeadbeef);
  h.record(9);  // exemplar-less bucket keeps the plain shape
  const std::string text = prometheus_text(r.snapshot());
  EXPECT_NE(text.find("bcc_test_lat_bucket{le=\"3\"} 1 # {trace_id=\""),
            std::string::npos);
  EXPECT_EQ(text.find("bcc_test_lat_bucket{le=\"15\"} 1 #"),
            std::string::npos)
      << "buckets without an exemplar must not grow a suffix";
  // The trace id renders as bare digits inside the quoted label: one quote
  // pair per exemplar, no stray escapes.
  const std::size_t suffix = text.find(" # {trace_id=\"");
  ASSERT_NE(suffix, std::string::npos);
  const std::size_t open = text.find('"', suffix);
  const std::size_t close = text.find('"', open + 1);
  ASSERT_NE(close, std::string::npos);
  for (std::size_t i = open + 1; i < close; ++i) {
    EXPECT_TRUE(text[i] >= '0' && text[i] <= '9') << text.substr(suffix, 40);
  }
  EXPECT_EQ(text.find("3735928559"), close - 10) << "id is decimal, in place";
}

TEST(ObsExport, JsonHistogramCarriesExemplarsOnlyWhenPresent) {
  Registry r;
  r.histogram("bcc.test.lat").record(3);
  EXPECT_EQ(json_lines(r.snapshot()).find("exemplars"), std::string::npos)
      << "exemplar-free histograms keep the pre-exemplar shape";
  r.histogram("bcc.test.lat").record_with_exemplar(3, 77);
  const std::string text = json_lines(r.snapshot());
  EXPECT_NE(text.find("\"exemplars\":[{\"le\":3,\"trace\":77,\"value\":3,"),
            std::string::npos);
}

TEST(ObsExport, FilterTraceSelectsOneCausalChain) {
  std::vector<SpanRecord> spans;
  auto make = [](std::uint64_t id, std::uint64_t trace, bool remote) {
    SpanRecord s;
    s.id = id;
    s.trace_id = trace;
    s.category = SpanCategory::kServe;
    s.name = "serve_query";
    s.remote_parent = remote;
    return s;
  };
  spans.push_back(make(1, 100, false));
  spans.push_back(make(2, 200, false));
  spans.push_back(make(3, 100, true));  // remote-parented hop, same trace
  spans.push_back(make(4, 0, false));   // untraced span never matches
  const std::vector<SpanRecord> chain = filter_trace(spans, 100);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].id, 1u);
  EXPECT_EQ(chain[1].id, 3u);
  EXPECT_TRUE(chain[1].remote_parent);
  EXPECT_TRUE(filter_trace(spans, 0).empty())
      << "trace id 0 means untraced, never 'match everything'";
  // A remote-parented span serializes with its trace id intact, so a
  // filtered chain can be fed straight to trace_json_lines.
  const std::string line = trace_json_lines({chain[1]});
  EXPECT_NE(line.find("\"trace\":100"), std::string::npos);
  EXPECT_NE(line.find("\"remote\":true"), std::string::npos);
}

TEST(ObsExport, PrometheusOfEmptyRegistryIsEmpty) {
  Registry r;
  EXPECT_EQ(prometheus_text(r.snapshot()), "");
  EXPECT_EQ(json_lines(r.snapshot()), "");
}

// ------------------------------------------------------ sampling profiler

TEST(ObsProfiler, StartStopFoldedAndPublish) {
  SamplingProfiler profiler;
  SamplingProfiler::Options options;
  options.hz = 500;  // dense sampling keeps the busy loop short
  ASSERT_TRUE(profiler.start(options));
  EXPECT_TRUE(profiler.running());
  // A second owner cannot share the process-wide timer.
  SamplingProfiler second;
  EXPECT_FALSE(second.start());
  // Burn CPU until samples arrive (bounded by wall time, not iterations).
  volatile double sink = 1.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.samples() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 100000; ++i) sink = sink * 1.0000001 + 0.5;
  }
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_GE(profiler.samples(), 5u) << "no SIGPROF samples in 10s of spin";

  const auto stacks = profiler.folded();
  ASSERT_FALSE(stacks.empty());
  std::uint64_t total = 0;
  for (const auto& [stack, n] : stacks) {
    EXPECT_FALSE(stack.empty());
    EXPECT_GT(n, 0u);
    total += n;
  }
  EXPECT_EQ(total + profiler.dropped(), profiler.samples());
  // folded_text is one "stack count\n" line per entry.
  const std::string text = profiler.folded_text();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            stacks.size());
  // top_stacks truncates but keeps the hottest-first order.
  const auto top = profiler.top_stacks(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, stacks[0].first);

  profiler.publish_metrics();
  const RegistrySnapshot s = Registry::global().snapshot();
  EXPECT_GE(s.gauge_value("bcc.profile.samples"), 5.0);
  EXPECT_EQ(s.gauge_value("bcc.profile.running"), 0.0);
  EXPECT_GE(s.gauge_value("bcc.profile.unique_stacks"), 1.0);

  profiler.clear();
  EXPECT_TRUE(profiler.folded().empty());
}

TEST(ObsProfiler, StopWithoutStartIsIdempotent) {
  SamplingProfiler profiler;
  profiler.stop();
  profiler.stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_EQ(profiler.samples(), 0u);
  EXPECT_TRUE(profiler.folded().empty());
}

// A synthetic folded profile shaped like a real one: every stack ends in the
// signal-return trampoline, which glibc may leave unnamed.
TEST(ObsProfiler, SummarySkipsSignalFramesAndTotalsInclusively) {
  const std::vector<std::pair<std::string, std::uint64_t>> folded = {
      {"main;bcc::gossip;bcc::self_crt;bcc::max_cluster;libc.so.6+0x3c050",
       60},
      {"main;bcc::gossip;bcc::max_cluster;libc.so.6+0x3c050", 30},
      {"main;bcc::query;bcc::walk;bcc::walk;__restore_rt", 8},
      {"main;bcc::query;bcc::SamplingProfiler::capture", 2},
      {"libc.so.6+0x3c050", 1},
  };
  EXPECT_EQ(stack_leaf(folded[0].first), "bcc::max_cluster");
  EXPECT_EQ(stack_leaf(folded[2].first), "bcc::walk");
  EXPECT_EQ(stack_leaf(folded[3].first), "bcc::query");
  EXPECT_EQ(stack_leaf(folded[4].first), "");
  EXPECT_EQ(stack_leaf("main"), "main");
  EXPECT_TRUE(is_signal_frame("libc.so.6+0x3c050"));
  EXPECT_TRUE(
      is_signal_frame("bcc::obs::SamplingProfiler::signal_handler(int)"));
  EXPECT_FALSE(is_signal_frame("malloc"));
  EXPECT_FALSE(is_signal_frame("bcc+0x1234"));

  const auto totals = inclusive_totals(folded);
  const std::vector<std::pair<std::string, std::uint64_t>> expected = {
      {"main", 100},        {"bcc::gossip", 90}, {"bcc::max_cluster", 90},
      {"bcc::self_crt", 60}, {"bcc::query", 10},  {"bcc::walk", 8},
  };
  // Recursion counts once per sample; no signal frame is ever totalled.
  EXPECT_EQ(totals, expected);
}

}  // namespace
}  // namespace bcc::obs

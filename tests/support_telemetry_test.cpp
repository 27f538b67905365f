#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ic/serve/wire.hpp"
#include "ic/support/telemetry.hpp"

namespace ic::telemetry {
namespace {

/// Swap in a MemorySink for the duration of a test; restores on exit.
class ScopedMemorySink {
 public:
  ScopedMemorySink()
      : previous_sink_(Logger::instance().sink()),
        previous_level_(Logger::instance().level()),
        sink_(std::make_shared<MemorySink>()) {
    Logger::instance().set_sink(sink_);
  }
  ~ScopedMemorySink() {
    Logger::instance().set_sink(previous_sink_);
    Logger::instance().set_level(previous_level_);
  }
  MemorySink& sink() { return *sink_; }

 private:
  std::shared_ptr<LogSink> previous_sink_;
  Level previous_level_;
  std::shared_ptr<MemorySink> sink_;
};

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  return std::any_of(lines.begin(), lines.end(), [&](const std::string& l) {
    return l.find(needle) != std::string::npos;
  });
}

TEST(Log, LevelFiltering) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::info);

  ICLOG(debug) << "below threshold";
  ICLOG(info) << "at threshold";
  ICLOG(error) << "above threshold";

  const auto lines = scoped.sink().lines();
  EXPECT_FALSE(any_line_contains(lines, "below threshold"));
  EXPECT_TRUE(any_line_contains(lines, "at threshold"));
  EXPECT_TRUE(any_line_contains(lines, "above threshold"));
}

TEST(Log, OffSilencesEverything) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::off);
  ICLOG(error) << "should not appear";
  EXPECT_TRUE(scoped.sink().lines().empty());
}

TEST(Log, KeyValuePairsAndPrefix) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::trace);
  ICLOG(warn) << "something happened" << kv("epoch", 12) << kv("mse", 0.25);

  const auto lines = scoped.sink().lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos);
  EXPECT_NE(lines[0].find("support_telemetry_test.cpp"), std::string::npos);
  EXPECT_NE(lines[0].find("something happened"), std::string::npos);
  EXPECT_NE(lines[0].find("epoch=12"), std::string::npos);
  EXPECT_NE(lines[0].find("mse=0.25"), std::string::npos);
}

TEST(Log, DirectRecordBypassesThreshold) {
  // The heartbeat's `always_log` path constructs LogRecord directly: it must
  // write even when the runtime level would suppress an equivalent ICLOG.
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::off);
  { LogRecord(Level::info, __FILE__, __LINE__) << "forced line"; }
  EXPECT_TRUE(any_line_contains(scoped.sink().lines(), "forced line"));
}

TEST(Log, ParseLevel) {
  EXPECT_EQ(parse_level("debug", Level::warn), Level::debug);
  EXPECT_EQ(parse_level("ERROR", Level::warn), Level::error);
  EXPECT_EQ(parse_level("off", Level::warn), Level::off);
  EXPECT_EQ(parse_level("bogus", Level::warn), Level::warn);
}

TEST(Log, ParseLevelReportsRecognition) {
  bool recognized = false;
  EXPECT_EQ(parse_level("info", Level::warn, &recognized), Level::info);
  EXPECT_TRUE(recognized);
  EXPECT_EQ(parse_level("verbose", Level::warn, &recognized), Level::warn);
  EXPECT_FALSE(recognized);
  EXPECT_EQ(parse_level("", Level::error, &recognized), Level::error);
  EXPECT_FALSE(recognized);
  // The one-time IC_LOG_LEVEL warning names the accepted set via this string.
  EXPECT_EQ(std::string(level_names()), "trace|debug|info|warn|error|off");
}

TEST(Metrics, CounterConcurrentIncrements) {
  auto& counter = MetricsRegistry::global().counter("test.concurrent_counter");
  counter.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, RegistryReturnsSameInstrument) {
  auto& a = MetricsRegistry::global().counter("test.same_instrument");
  auto& b = MetricsRegistry::global().counter("test.same_instrument");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, KindCollisionThrows) {
  MetricsRegistry::global().counter("test.kind_collision");
  EXPECT_THROW(MetricsRegistry::global().gauge("test.kind_collision"),
               std::runtime_error);
  EXPECT_THROW(MetricsRegistry::global().histogram("test.kind_collision"),
               std::runtime_error);
}

TEST(Metrics, HistogramBoundsConflictThrowsNamingTheMetric) {
  auto& registry = MetricsRegistry::global();
  auto& hist = registry.histogram("test.bounds_conflict", {1.0, 2.0});
  EXPECT_EQ(&registry.histogram("test.bounds_conflict", {1.0, 2.0}), &hist);
  EXPECT_EQ(&registry.histogram("test.bounds_conflict"), &hist);
  try {
    registry.histogram("test.bounds_conflict", {1.0, 3.0});
    ADD_FAILURE() << "conflicting bounds were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'test.bounds_conflict'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(hist.bounds(), (std::vector<double>{1.0, 2.0}));

  // A histogram made with the default bounds conflicts with any others.
  auto& plain = registry.histogram("test.bounds_default");
  EXPECT_EQ(&registry.histogram("test.bounds_default",
                                Histogram::exponential_bounds()),
            &plain);
  EXPECT_THROW(registry.histogram("test.bounds_default", {0.5}),
               std::runtime_error);
}

TEST(Metrics, RejectedHistogramBoundsLeaveTheRegistryDumpable) {
  auto& registry = MetricsRegistry::global();
  EXPECT_THROW(registry.histogram("test.bounds_unsorted", {2.0, 1.0}),
               std::logic_error);
  EXPECT_NE(registry.to_json().find("\"counters\""), std::string::npos);
  EXPECT_EQ(registry.to_json().find("test.bounds_unsorted"), std::string::npos);
  registry.histogram("test.bounds_unsorted", {1.0, 2.0}).observe(1.5);
}

TEST(Metrics, HistogramBucketsAndStats) {
  auto& hist = MetricsRegistry::global().histogram("test.hist_buckets",
                                                   {1.0, 2.0, 4.0});
  hist.reset();
  for (double x : {0.5, 1.0, 1.5, 3.0, 100.0}) hist.observe(x);

  // Buckets count observations ≤ bound: {0.5, 1.0} ≤ 1, {1.5} ≤ 2, {3.0} ≤ 4,
  // {100.0} overflows.
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 106.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
}

TEST(Metrics, HistogramConcurrentObserves) {
  auto& hist =
      MetricsRegistry::global().histogram("test.hist_concurrent", {10.0, 20.0});
  hist.reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(5.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.bucket_counts()[0],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0 * kThreads * kPerThread);
}

TEST(Metrics, ExponentialBounds) {
  const auto bounds = Histogram::exponential_bounds(1e-3, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
}

TEST(Metrics, JsonContainsRegisteredInstruments) {
  MetricsRegistry::global().counter("test.json_counter").add(3);
  MetricsRegistry::global().gauge("test.json_gauge").set(1.5);
  MetricsRegistry::global().histogram("test.json_hist", {1.0}).observe(0.5);

  const std::string json = MetricsRegistry::global().to_json();
  EXPECT_NE(json.find("\"test.json_counter\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+inf\""), std::string::npos);
  // Structurally sane: balanced braces and brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Metrics, QuantileEmptyHistogramIsZero) {
  auto& hist = MetricsRegistry::global().histogram("test.quantile_empty",
                                                   {1.0, 2.0});
  hist.reset();
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 0.0);
}

TEST(Metrics, QuantileSingleBucketInterpolates) {
  auto& hist = MetricsRegistry::global().histogram("test.quantile_single",
                                                   {10.0, 20.0});
  hist.reset();
  // Four observations, all in the first bucket: its edges tighten to the
  // exact [min, max] = [2, 8], so the median interpolates inside that range.
  for (double x : {2.0, 4.0, 6.0, 8.0}) hist.observe(x);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 8.0);
  const double median = hist.quantile(0.5);
  EXPECT_GE(median, 2.0);
  EXPECT_LE(median, 8.0);
}

TEST(Metrics, QuantileOverflowBucketClampsToMax) {
  auto& hist = MetricsRegistry::global().histogram("test.quantile_overflow",
                                                   {1.0});
  hist.reset();
  // Everything lands in the overflow bucket, whose upper edge is unbounded:
  // the tracked max must cap every estimate.
  for (double x : {5.0, 50.0, 500.0}) hist.observe(x);
  EXPECT_LE(hist.quantile(0.99), 500.0);
  EXPECT_GE(hist.quantile(0.01), 5.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 500.0);
}

TEST(Metrics, QuantileAcrossBuckets) {
  auto& hist = MetricsRegistry::global().histogram("test.quantile_multi",
                                                   {1.0, 2.0, 4.0, 8.0});
  hist.reset();
  for (int i = 0; i < 100; ++i) hist.observe(0.5);   // bucket ≤ 1
  for (int i = 0; i < 100; ++i) hist.observe(1.5);   // bucket ≤ 2
  // p25 falls inside the first bucket, p75 inside the second.
  EXPECT_LE(hist.quantile(0.25), 1.0);
  EXPECT_GT(hist.quantile(0.75), 1.0);
  EXPECT_LE(hist.quantile(0.75), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1.5);
}

TEST(Metrics, PrometheusName) {
  EXPECT_EQ(prometheus_name("serve.request_seconds"), "serve_request_seconds");
  EXPECT_EQ(prometheus_name("a.b-c d"), "a_b_c_d");
  EXPECT_EQ(prometheus_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_name("already_fine:x"), "already_fine:x");
}

TEST(Metrics, PrometheusExpositionRoundTrip) {
  MetricsRegistry::global().counter("test.prom_counter").reset();
  MetricsRegistry::global().counter("test.prom_counter").add(7);
  MetricsRegistry::global().gauge("test.prom_gauge").set(2.5);
  auto& hist =
      MetricsRegistry::global().histogram("test.prom_hist", {1.0, 2.0});
  hist.reset();
  for (double x : {0.5, 1.5, 3.0}) hist.observe(x);

  const std::string text = MetricsRegistry::global().to_prometheus();
  std::istringstream in(text);
  std::string line;
  bool saw_counter = false, saw_gauge = false, saw_type_histogram = false;
  std::uint64_t inf_bucket = 0, count = 0;
  double sum = 0.0;
  std::vector<std::uint64_t> cumulative;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition output";
    if (line[0] == '#') {
      // Comment lines are "# TYPE <name> <kind>" only.
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      if (line == "# TYPE test_prom_hist histogram") saw_type_histogram = true;
      continue;
    }
    // Every sample line is "<name>[{labels}] <value>".
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (name == "test_prom_counter") {
      saw_counter = true;
      EXPECT_EQ(value, "7");
    } else if (name == "test_prom_gauge") {
      saw_gauge = true;
      EXPECT_EQ(std::stod(value), 2.5);
    } else if (name.rfind("test_prom_hist_bucket{le=", 0) == 0) {
      cumulative.push_back(std::stoull(value));
      if (name.find("+Inf") != std::string::npos) {
        inf_bucket = std::stoull(value);
      }
    } else if (name == "test_prom_hist_sum") {
      sum = std::stod(value);
    } else if (name == "test_prom_hist_count") {
      count = std::stoull(value);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_type_histogram);
  // Cumulative buckets: 1, 2, 3 — monotone, +Inf equals _count, sum exact.
  ASSERT_EQ(cumulative.size(), 3u);
  EXPECT_TRUE(std::is_sorted(cumulative.begin(), cumulative.end()));
  EXPECT_EQ(cumulative.back(), 3u);
  EXPECT_EQ(inf_bucket, 3u);
  EXPECT_EQ(count, 3u);
  EXPECT_DOUBLE_EQ(sum, 5.0);
}

TEST(Metrics, GaugeGuardIsExceptionSafe) {
  auto& gauge = MetricsRegistry::global().gauge("test.gauge_guard");
  gauge.reset();
  try {
    GaugeGuard guard(gauge);
    EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(Trace, DisabledSpansRecordNothing) {
  TraceCollector::global().set_enabled(false);
  TraceCollector::global().clear();
  { TraceSpan span("test/never_recorded"); }
  EXPECT_EQ(TraceCollector::global().size(), 0u);
}

TEST(Trace, ChromeJsonWellFormed) {
  auto& collector = TraceCollector::global();
  collector.set_enabled(true);
  collector.clear();
  {
    TraceSpan outer("test/outer");
    { TraceSpan inner("test/inner"); }
    TraceSpan early("test/early_end");
    early.end();
    early.end();  // idempotent
  }
  collector.set_enabled(false);

  EXPECT_EQ(collector.size(), 3u);
  const std::string json = collector.to_chrome_json();

  // A plain JSON array of complete ("ph":"X") events.
  const auto first = json.find_first_not_of(" \n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json[first], '[');
  const auto last = json.find_last_not_of(" \n");
  EXPECT_EQ(json[last], ']');

  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 3);
  EXPECT_EQ(std::count(json.begin(), json.end(), '}'), 3);
  std::size_t ph_count = 0;
  for (std::size_t pos = json.find("\"ph\": \"X\""); pos != std::string::npos;
       pos = json.find("\"ph\": \"X\"", pos + 1)) {
    ++ph_count;
  }
  EXPECT_EQ(ph_count, 3u);
  EXPECT_NE(json.find("\"test/outer\""), std::string::npos);
  EXPECT_NE(json.find("\"test/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"test/early_end\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);

  // The inner span nests inside the outer one on the same timeline.
  collector.clear();
}

TEST(Trace, SpanTimestampsNest) {
  auto& collector = TraceCollector::global();
  collector.set_enabled(true);
  collector.clear();
  {
    TraceSpan outer("test/nest_outer");
    TraceSpan inner("test/nest_inner");
  }
  collector.set_enabled(false);
  ASSERT_EQ(collector.size(), 2u);

  // Destruction order records inner first; reconstruct from the JSON order.
  const std::string json = collector.to_chrome_json();
  const auto inner_pos = json.find("nest_inner");
  const auto outer_pos = json.find("nest_outer");
  EXPECT_LT(inner_pos, outer_pos);
  collector.clear();
}

TEST(Trace, CollectorKeepsTheFirstSpansAndCountsTheRest) {
  // A server under --trace-out records spans for as long as it runs; the
  // collector must hold a bounded buffer and say how much it dropped.
  TraceCollector collector;
  constexpr std::size_t kExtra = 5;
  for (std::size_t i = 0; i < TraceCollector::kMaxEvents + kExtra; ++i) {
    TraceEvent event;
    event.name = "test/capped";
    event.ts_us = static_cast<std::int64_t>(i);
    collector.record(std::move(event));
  }
  EXPECT_EQ(collector.size(), TraceCollector::kMaxEvents);
  EXPECT_EQ(collector.dropped(), kExtra);

  const auto json = serve::JsonValue::parse(collector.to_chrome_json());
  ASSERT_TRUE(json.is_array());
  ASSERT_EQ(json.items().size(), TraceCollector::kMaxEvents);
  // Oldest first: the kept spans are the first ones recorded.
  EXPECT_EQ(json.items().front().find("ts")->as_number(), 0.0);
  EXPECT_EQ(json.items().back().find("ts")->as_number(),
            static_cast<double>(TraceCollector::kMaxEvents - 1));

  collector.clear();
  EXPECT_EQ(collector.size(), 0u);
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(Trace, DumpTraceWarnsOnceWithTheDropCount) {
  auto& collector = TraceCollector::global();
  collector.clear();
  for (std::size_t i = 0; i < TraceCollector::kMaxEvents + 3; ++i) {
    collector.record({"test/dump_capped", 0, 0, 0});
  }
  ScopedMemorySink scoped;
  const std::string path = ::testing::TempDir() + "capped_trace.json";
  dump_trace(path);
  collector.clear();
  std::remove(path.c_str());

  const auto lines = scoped.sink().lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("WARN"), std::string::npos);
  EXPECT_NE(lines[0].find("dropped=3"), std::string::npos) << lines[0];
}

// ---- dump_metrics / MetricsFlusher -----------------------------------------

TEST(DumpMetrics, PromPathGetsExpositionTextAnyOtherPathJson) {
  MetricsRegistry::global().counter("dump.test.format").add(3);
  const auto dump = [](const std::string& name) {
    const std::string path = ::testing::TempDir() + name;
    dump_metrics(path);
    EXPECT_FALSE(std::ifstream(path + ".tmp").good())
        << "tmp staging file must be renamed away";
    std::stringstream buffer;
    buffer << std::ifstream(path).rdbuf();
    std::remove(path.c_str());
    return buffer.str();
  };
  const std::string prom = dump("dump_format.prom");
  EXPECT_NE(prom.find("# TYPE dump_test_format counter\ndump_test_format 3\n"),
            std::string::npos)
      << prom;
  for (const char* name : {"dump_format.json", "dump_format.txt"}) {
    const std::string json = dump(name);
    EXPECT_EQ(json.rfind("{\n  \"counters\": {", 0), 0u) << json;
    EXPECT_NE(json.find("\"dump.test.format\": 3"), std::string::npos) << json;
    EXPECT_EQ(json.find("# TYPE"), std::string::npos) << json;
  }
}

TEST(MetricsFlusher, StopWritesAFinalSnapshotAtomically) {
  const std::string path = ::testing::TempDir() + "flusher_final.json";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  MetricsRegistry::global().counter("flusher.test.final").add(7);
  {
    // Interval far beyond the test's lifetime: the only snapshot that can
    // appear is the final one stop() writes on graceful shutdown.
    MetricsFlusher flusher(path, std::chrono::milliseconds(60000));
    flusher.stop();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "stop() must leave a final snapshot at " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    EXPECT_NE(buffer.str().find("flusher.test.final"), std::string::npos);

    // Atomicity: the snapshot was staged at path + ".tmp" and renamed into
    // place, so no temp file may survive.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "tmp staging file must be renamed away";

    flusher.stop();  // idempotent: second stop is a no-op, not a crash
  }
  std::remove(path.c_str());
}

TEST(MetricsFlusher, DestructorFlushesWithoutExplicitStop) {
  const std::string path = ::testing::TempDir() + "flusher_dtor.prom";
  std::remove(path.c_str());

  MetricsRegistry::global().counter("flusher.test.dtor").add(1);
  {
    MetricsFlusher flusher(path, std::chrono::milliseconds(60000));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "destructor must write the final snapshot";
  std::stringstream buffer;
  buffer << in.rdbuf();
  // ".prom" selects Prometheus text exposition in the final snapshot too.
  EXPECT_NE(buffer.str().find("flusher_test_dtor"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ic::telemetry

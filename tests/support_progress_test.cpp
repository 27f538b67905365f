#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ic/support/telemetry.hpp"

namespace ic::telemetry {
namespace {

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

TEST(ProcessStats, ReadsLiveValuesOnLinux) {
  const ProcessStats stats = read_process_stats();
#if defined(__linux__)
  ASSERT_TRUE(stats.ok);
  EXPECT_GT(stats.rss_bytes, 0.0);
  EXPECT_GT(stats.vsize_bytes, 0.0);
  EXPECT_GE(stats.vsize_bytes, stats.rss_bytes);
  EXPECT_GE(stats.threads, 1.0);
  EXPECT_GT(stats.open_fds, 0.0);
  EXPECT_GE(stats.cpu_user_seconds + stats.cpu_system_seconds, 0.0);
#else
  EXPECT_FALSE(stats.ok);
#endif
}

TEST(ProcessStats, SamplePublishesGauges) {
#if defined(__linux__)
  sample_process_stats();
  auto& metrics = MetricsRegistry::global();
  EXPECT_GT(metrics.gauge("process.resident_memory_bytes").value(), 0.0);
  EXPECT_GT(metrics.gauge("process.virtual_memory_bytes").value(), 0.0);
  EXPECT_GE(metrics.gauge("process.threads").value(), 1.0);
  EXPECT_GT(metrics.gauge("process.open_fds").value(), 0.0);
  EXPECT_GT(metrics.gauge("process.uptime_seconds").value(), 0.0);
  // The gauges flow into the shared Prometheus exposition.
  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("process_resident_memory_bytes"), std::string::npos);
  EXPECT_NE(prom.find("process_open_fds"), std::string::npos);
#endif
}

TEST(ProgressBoard, RegisterTickSnapshotRelease) {
  ProgressBoard board;
  {
    ProgressJob job("unit.job", 100, board);
    ASSERT_TRUE(job.registered());
    job.set_phase("warmup");
    job.tick(25);
    job.set_counters("conflicts", 1234, "propagations", 56789);
    job.set_predicted_seconds(9.5);

    const auto jobs = board.snapshot();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].name, "unit.job");
    EXPECT_STREQ(jobs[0].phase, "warmup");
    EXPECT_EQ(jobs[0].done, 25u);
    EXPECT_EQ(jobs[0].total, 100u);
    EXPECT_STREQ(jobs[0].counter_names[0], "conflicts");
    EXPECT_EQ(jobs[0].counters[0], 1234u);
    EXPECT_STREQ(jobs[0].counter_names[1], "propagations");
    EXPECT_EQ(jobs[0].counters[1], 56789u);
    EXPECT_DOUBLE_EQ(jobs[0].predicted_seconds, 9.5);
    EXPECT_GE(jobs[0].last_tick_us, jobs[0].started_us);
    EXPECT_TRUE(jobs[0].watchdog);

    job.advance(5);
    EXPECT_EQ(board.snapshot()[0].done, 30u);
  }
  EXPECT_EQ(board.active_jobs(), 0u);  // RAII released the slot
}

TEST(ProgressBoard, FullBoardYieldsInertJobs) {
  ProgressBoard board;
  std::vector<std::unique_ptr<ProgressJob>> jobs;
  for (std::size_t i = 0; i < ProgressBoard::kMaxJobs; ++i) {
    jobs.push_back(std::make_unique<ProgressJob>("filler", 0, board));
    EXPECT_TRUE(jobs.back()->registered());
  }
  ProgressJob overflow("overflow", 10, board);
  EXPECT_FALSE(overflow.registered());
  overflow.tick(3);  // must be a harmless no-op
  EXPECT_EQ(board.active_jobs(), ProgressBoard::kMaxJobs);
  jobs.clear();
  EXPECT_EQ(board.active_jobs(), 0u);
}

TEST(ProgressBoard, GenerationsAreUniqueAcrossReuse) {
  ProgressBoard board;
  std::uint64_t first_generation = 0;
  {
    ProgressJob job("gen.a", 0, board);
    first_generation = board.snapshot()[0].generation;
  }
  ProgressJob job("gen.b", 0, board);
  EXPECT_NE(board.snapshot()[0].generation, first_generation);
}

TEST(Heartbeat, EmitsJobLinesWithProgressAndEta) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::off);  // always_log must bypass this

  ProgressJob job("hb.attack", 40);
  job.set_phase("dip_search");
  job.tick(10);
  job.set_counters("conflicts", 5000);
  job.set_predicted_seconds(123.0);

  HeartbeatOptions options;
  options.interval = std::chrono::milliseconds(3600 * 1000);  // manual beats
  options.stall_after = std::chrono::milliseconds(0);
  options.always_log = true;
  Heartbeat heartbeat(options);
  heartbeat.beat();
  heartbeat.stop();

  const auto lines = scoped.sink().lines();
  ASSERT_TRUE(any_line_contains(lines, "heartbeat"));
  std::string line;
  for (const auto& l : lines) {
    if (l.find("job=hb.attack") != std::string::npos) line = l;
  }
  ASSERT_FALSE(line.empty());
  EXPECT_NE(line.find("phase=dip_search"), std::string::npos);
  EXPECT_NE(line.find("done=10"), std::string::npos);
  EXPECT_NE(line.find("total=40"), std::string::npos);
  EXPECT_NE(line.find("rate_per_s="), std::string::npos);
  EXPECT_NE(line.find("eta_s="), std::string::npos);
  EXPECT_NE(line.find("conflicts=5000"), std::string::npos);
  EXPECT_NE(line.find("conflicts_per_s="), std::string::npos);
  EXPECT_NE(line.find("predicted_s=123"), std::string::npos);
  EXPECT_NE(line.find("predicted_remaining_s="), std::string::npos);
#if defined(__linux__)
  EXPECT_NE(line.find("rss_mb="), std::string::npos);
#endif
}

TEST(Heartbeat, BackgroundThreadBeatsOnItsOwn) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::off);
  ProgressJob job("hb.periodic", 0);
  HeartbeatOptions options;
  options.interval = std::chrono::milliseconds(10);
  options.stall_after = std::chrono::milliseconds(0);
  options.always_log = true;
  Heartbeat heartbeat(options);
  for (int i = 0; i < 100; ++i) {
    if (any_line_contains(scoped.sink().lines(), "job=hb.periodic")) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  heartbeat.stop();
  EXPECT_TRUE(any_line_contains(scoped.sink().lines(), "job=hb.periodic"));
}

TEST(Heartbeat, WatchdogWarnsOnceAndDumpsOnStall) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::warn);

  const std::string dump_path = ::testing::TempDir() + "stall_dump.txt";
  std::remove(dump_path.c_str());

  ProgressJob job("hb.stalled", 10);
  job.tick(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  HeartbeatOptions options;
  options.interval = std::chrono::milliseconds(3600 * 1000);
  options.stall_after = std::chrono::milliseconds(20);
  options.stall_dump_path = dump_path;
  Heartbeat heartbeat(options);
  heartbeat.beat();
  heartbeat.beat();  // same episode: no second warn
  heartbeat.stop();

  const auto lines = scoped.sink().lines();
  std::size_t warns = 0;
  for (const auto& l : lines) {
    if (l.find("job stalled") != std::string::npos &&
        l.find("job=hb.stalled") != std::string::npos) {
      ++warns;
    }
  }
  EXPECT_EQ(warns, 1u);
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good());
  std::string header;
  ASSERT_TRUE(std::getline(dump, header));
  EXPECT_EQ(header.compare(0, 23, "# icnet flight recorder"), 0) << header;
}

TEST(Heartbeat, WatchdogRearmsAfterFreshTick) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::warn);

  ProgressJob job("hb.revived", 10);
  job.tick(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  HeartbeatOptions options;
  options.interval = std::chrono::milliseconds(3600 * 1000);
  options.stall_after = std::chrono::milliseconds(20);
  options.stall_dump_path = ::testing::TempDir() + "stall_rearm.txt";
  Heartbeat heartbeat(options);
  heartbeat.beat();  // stalled → warn #1
  job.tick(2);       // fresh tick re-arms the episode
  heartbeat.beat();  // healthy
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  heartbeat.beat();  // stalled again → warn #2
  heartbeat.stop();

  std::size_t warns = 0;
  for (const auto& l : scoped.sink().lines()) {
    if (l.find("job stalled") != std::string::npos &&
        l.find("job=hb.revived") != std::string::npos) {
      ++warns;
    }
  }
  EXPECT_EQ(warns, 2u);
}

TEST(Heartbeat, WatchdogSkipsExemptJobs) {
  ScopedMemorySink scoped;
  Logger::instance().set_level(Level::warn);

  ProgressJob job("hb.batcher", 0);
  job.set_watchdog(false);  // event-driven: idle is normal
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  HeartbeatOptions options;
  options.interval = std::chrono::milliseconds(3600 * 1000);
  options.stall_after = std::chrono::milliseconds(20);
  Heartbeat heartbeat(options);
  heartbeat.beat();
  heartbeat.stop();

  EXPECT_FALSE(any_line_contains(scoped.sink().lines(), "job stalled"));
}

}  // namespace
}  // namespace ic::telemetry

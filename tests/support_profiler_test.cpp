// Sampling-profiler and request-timeline coverage (DESIGN.md §15): SIGPROF
// capture under concurrency, start/stop idempotence, folded-stack output,
// stage timelines, and the tail-sampling TraceStore. These tests run in the
// TSan CI job too — the handler/consumer interplay must stay clean under
// instrumentation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ic/support/log.hpp"
#include "ic/support/profiler.hpp"
#include "ic/support/timeline.hpp"

// The known-hot frame the folded output must attribute samples to. External
// linkage + noinline so the symbol survives into the dynamic table (the
// build links executables with ENABLE_EXPORTS for exactly this) and dladdr
// can name it; noclone keeps -O3 from substituting local `.constprop` copies
// dladdr cannot see; extern "C" keeps the name trivial to grep for.
extern "C" __attribute__((noinline, noclone)) std::uint64_t
ic_profiler_test_hot_spin(std::uint64_t iterations) {
  volatile std::uint64_t acc = 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  return acc;
}

namespace ic::telemetry {
namespace {

// Burn CPU (ITIMER_PROF counts CPU time, not wall time) until the profiler
// has at least `want` samples or the wall deadline passes.
void spin_until_samples(std::size_t want, double deadline_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_seconds);
  while (Profiler::global().sample_count() < want &&
         std::chrono::steady_clock::now() < deadline) {
    ic_profiler_test_hot_spin(200000);
  }
}

TEST(Profiler, StartAndStopAreIdempotent) {
  Profiler& profiler = Profiler::global();
  ASSERT_FALSE(profiler.running());

  ProfilerOptions options;
  options.hz = 251;
  options.max_samples = 4096;
  EXPECT_TRUE(profiler.start(options));
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.start(options)) << "second start must be a no-op";
  EXPECT_TRUE(profiler.running()) << "failed start must not kill the session";

  EXPECT_TRUE(profiler.stop());
  EXPECT_FALSE(profiler.running());
  EXPECT_FALSE(profiler.stop()) << "second stop must be a no-op";
  EXPECT_FALSE(profiler.running());
}

TEST(Profiler, FoldedOutputNamesTheHotFrame) {
  Profiler& profiler = Profiler::global();
  ProfilerOptions options;
  options.hz = 997;  // prime and fast: plenty of samples, no lockstep
  options.max_samples = 1 << 14;
  ASSERT_TRUE(profiler.start(options));
  spin_until_samples(32, 10.0);
  ASSERT_TRUE(profiler.stop());
  ASSERT_GT(profiler.sample_count(), 0u)
      << "a busy-spinning process must collect SIGPROF samples";

  const std::string folded = profiler.folded();
  ASSERT_FALSE(folded.empty());

  // Every line must parse as `frame[;frame...] count`.
  std::istringstream lines(folded);
  std::string line;
  std::size_t parsed = 0;
  std::uint64_t total = 0;
  bool saw_hot_frame = false;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "unparseable folded line: " << line;
    const std::string stack = line.substr(0, space);
    const std::string count_text = line.substr(space + 1);
    ASSERT_FALSE(stack.empty());
    ASSERT_FALSE(count_text.empty());
    for (const char c : count_text) {
      ASSERT_TRUE(c >= '0' && c <= '9') << "bad count in: " << line;
    }
    total += std::stoull(count_text);
    if (stack.find("ic_profiler_test_hot_spin") != std::string::npos) {
      saw_hot_frame = true;
    }
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_EQ(total, profiler.sample_count())
      << "folded counts must account for every published sample";
  EXPECT_TRUE(saw_hot_frame)
      << "the spin loop dominates CPU time; its symbol must appear in:\n"
      << folded;
}

TEST(Profiler, SurvivesSignalStormAcrossEightThreads) {
  Profiler& profiler = Profiler::global();
  ProfilerOptions options;
  options.hz = 997;
  options.max_samples = 1 << 15;
  ASSERT_TRUE(profiler.start(options));

  // Eight threads burn CPU concurrently; SIGPROF lands on whichever thread
  // is running when the process CPU timer fires, so the handler races with
  // itself across threads against the shared slot buffer.
  constexpr int kThreads = 8;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      std::uint64_t local = 0;
      for (int round = 0; round < 40; ++round) {
        local ^= ic_profiler_test_hot_spin(100000 + 1000 * t);
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(profiler.stop());

  EXPECT_GT(profiler.sample_count(), 0u);
  // Every published sample must decode to a sane stack.
  const auto samples = profiler.samples();
  EXPECT_EQ(samples.size(), profiler.sample_count());
  for (const ProfileSample& sample : samples) {
    EXPECT_GE(sample.pcs.size(), 1u);
    EXPECT_LE(sample.pcs.size(), Profiler::kMaxDepth);
  }
}

TEST(Profiler, DeadlineDisarmsSamplingInHandler) {
  Profiler& profiler = Profiler::global();
  ProfilerOptions options;
  options.hz = 997;
  options.max_samples = 4096;
  options.seconds = 0.05;
  ASSERT_TRUE(profiler.start(options));

  // Spin well past the deadline: the first in-handler deadline check disarms
  // the itimer, and record() refuses new slots after the deadline besides.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    ic_profiler_test_hot_spin(100000);
  }
  const std::size_t at_deadline = profiler.sample_count();
  ic_profiler_test_hot_spin(5000000);
  EXPECT_EQ(profiler.sample_count(), at_deadline)
      << "no samples may land after the deadline";

  // The session still needs an explicit stop (the server polls running()).
  EXPECT_TRUE(profiler.running());
  EXPECT_TRUE(profiler.stop());
}

TEST(Profiler, UnrepresentableDeadlineMeansNoDeadline) {
  // seconds * 1e6 is past what the microsecond clock can hold: the profiler
  // samples until stop(), as with seconds = 0.
  Profiler& profiler = Profiler::global();
  ProfilerOptions options;
  options.hz = 997;
  options.max_samples = 4096;
  options.seconds = 1e300;
  ASSERT_TRUE(profiler.start(options));
  spin_until_samples(8, 10.0);
  EXPECT_TRUE(profiler.running());
  EXPECT_GT(profiler.sample_count(), 0u)
      << "an unreachable deadline must not disarm the sampler";
  EXPECT_TRUE(profiler.stop());
  EXPECT_FALSE(profiler.running());
}

TEST(Profiler, RestartBeginsAFreshCapture) {
  Profiler& profiler = Profiler::global();
  ProfilerOptions options;
  options.hz = 997;
  options.max_samples = 4096;
  ASSERT_TRUE(profiler.start(options));
  spin_until_samples(32, 10.0);
  ASSERT_TRUE(profiler.stop());
  const std::size_t first_session = profiler.sample_count();
  ASSERT_GT(first_session, 0u);

  // Restart and stop immediately: the counter must have been reset, not
  // carried over from the first session.
  ASSERT_TRUE(profiler.start(options));
  ASSERT_TRUE(profiler.stop());
  EXPECT_LT(profiler.sample_count(), first_session)
      << "start() must begin a fresh capture";
}

TEST(Profiler, OnlyProfileOutArmsTheSamplerFromTheEnvironment) {
  // ICNET_PROFILE selects the experiment profile (ci|paper). Read as a
  // capture path, ICNET_PROFILE=paper would arm the sampler and write a
  // file named "paper".
  Profiler& profiler = Profiler::global();
  ASSERT_FALSE(profiler.running());
  unsetenv("ICNET_PROFILE_OUT");
  setenv("ICNET_PROFILE", "paper", 1);
  EXPECT_FALSE(profile_from_env());
  EXPECT_FALSE(profiler.running());
  profile_flush();
  EXPECT_FALSE(std::ifstream("paper").good());
  unsetenv("ICNET_PROFILE");

  const std::string path = ::testing::TempDir() + "profile_env.folded";
  std::remove(path.c_str());
  setenv("ICNET_PROFILE_OUT", (path + ",997").c_str(), 1);
  EXPECT_TRUE(profile_from_env());
  unsetenv("ICNET_PROFILE_OUT");
  EXPECT_TRUE(profiler.running());
  spin_until_samples(1, 10.0);
  profile_flush();
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(std::ifstream(path).good()) << "no folded capture at " << path;
}

TEST(Profiler, PercentPInTheOutputPathBecomesThePid) {
  // Servers started with one ICNET_PROFILE_OUT must not overwrite each
  // other's capture at exit.
  Profiler& profiler = Profiler::global();
  ASSERT_FALSE(profiler.running());
  const std::string dir = ::testing::TempDir();
  const std::string expected =
      dir + "p." + std::to_string(getpid()) + ".folded";
  std::remove(expected.c_str());
  set_profile_output(dir + "p.%p.folded");
  ASSERT_TRUE(profiler.start({}));
  profile_flush();
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(std::ifstream(expected).good()) << "no capture at " << expected;
  EXPECT_FALSE(std::ifstream(dir + "p.%p.folded").good());
  std::remove(expected.c_str());
}

TEST(Profiler, BadEnvironmentFieldWarnsNamingTheValue) {
  Profiler& profiler = Profiler::global();
  ASSERT_FALSE(profiler.running());
  auto sink = std::make_shared<MemorySink>();
  const auto previous_sink = Logger::instance().sink();
  Logger::instance().set_sink(sink);

  const std::string path = ::testing::TempDir() + "profile_env_bad.folded";
  setenv("ICNET_PROFILE_OUT", (path + ",12abc,1e300").c_str(), 1);
  EXPECT_TRUE(profile_from_env()) << "a bad field must not disarm the capture";
  unsetenv("ICNET_PROFILE_OUT");
  EXPECT_TRUE(profiler.running());
  profile_flush();
  EXPECT_FALSE(profiler.running());
  std::remove(path.c_str());
  Logger::instance().set_sink(previous_sink);

  const auto lines = sink->lines();
  const auto warned = [&lines](const std::string& needle) {
    for (const auto& line : lines) {
      if (line.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(warned("hz='12abc'")) << "the bad hz field must be named";
  EXPECT_FALSE(warned("seconds='")) << "1e300 is a number: no warning";
}

// ---- Timeline --------------------------------------------------------------

TEST(Timeline, FirstMarkChargesNothingLaterMarksChargeElapsed) {
  Timeline timeline;
  EXPECT_FALSE(timeline.started());

  timeline.mark(Stage::Accept);
  EXPECT_TRUE(timeline.started());
  EXPECT_NE(timeline.ts_us[static_cast<int>(Stage::Accept)], 0);
  EXPECT_EQ(timeline.dur_us[static_cast<int>(Stage::Accept)], 0)
      << "nothing preceded the first mark, so it charges no duration";

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  timeline.mark(Stage::Parse);
  EXPECT_GE(timeline.dur_us[static_cast<int>(Stage::Parse)], 1000)
      << "the sleep between marks is charged to the later stage";
  EXPECT_GE(timeline.ts_us[static_cast<int>(Stage::Parse)],
            timeline.ts_us[static_cast<int>(Stage::Accept)]);
}

TEST(Timeline, InnerStagesAccumulateAcrossRepeatedMarks) {
  Timeline timeline;
  timeline.begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  timeline.mark(Stage::Spmm);
  const std::int64_t first = timeline.dur_us[static_cast<int>(Stage::Spmm)];
  EXPECT_GT(first, 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  timeline.mark(Stage::Spmm);
  EXPECT_GT(timeline.dur_us[static_cast<int>(Stage::Spmm)], first)
      << "repeated marks accumulate rather than overwrite";
}

TEST(Timeline, BeginRestartsTheClockWithoutCharging) {
  Timeline timeline;
  timeline.mark(Stage::Route);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // A request can sit in a queue for a long time; begin() lets the consumer
  // restart the clock so the wait is not charged to the next stage...
  timeline.begin();
  timeline.mark(Stage::BatchAdmit);
  EXPECT_LT(timeline.dur_us[static_cast<int>(Stage::BatchAdmit)], 5000)
      << "the 5 ms queue wait must not leak into batch_admit";
}

TEST(Timeline, ScopedTimelineInstallsAndRestoresTheThreadLocal) {
  EXPECT_EQ(current_timeline(), nullptr);
  mark_stage(Stage::Spmm);  // no current timeline: must be a no-op

  Timeline outer;
  {
    ScopedTimeline scoped_outer(&outer);
    EXPECT_EQ(current_timeline(), &outer);
    outer.begin();
    mark_stage(Stage::Spmm);
    EXPECT_NE(outer.ts_us[static_cast<int>(Stage::Spmm)], 0);

    Timeline inner;
    {
      ScopedTimeline scoped_inner(&inner);
      EXPECT_EQ(current_timeline(), &inner);
    }
    EXPECT_EQ(current_timeline(), &outer) << "nesting must restore";
  }
  EXPECT_EQ(current_timeline(), nullptr);
}

TEST(Timeline, ThreadLocalIsPerThread) {
  Timeline timeline;
  ScopedTimeline scoped(&timeline);
  std::thread other([] {
    EXPECT_EQ(current_timeline(), nullptr)
        << "another thread's timeline must not leak over";
  });
  other.join();
}

// ---- TraceStore ------------------------------------------------------------

TraceRecord make_record(const std::string& id, double total_seconds) {
  TraceRecord record;
  record.request_id = id;
  record.total_seconds = total_seconds;
  record.timeline.mark(Stage::Respond);
  return record;
}

TEST(TraceStore, KeepsTheSlowestRequests) {
  // 40 records with distinct totals in shuffled arrival order: the 8
  // slowest lead the snapshot, slowest first, then arrivals 1, 17 and 33
  // from the uniform ring.
  TraceStore store;
  for (int i = 0; i < 40; ++i) {
    const int rank = (i * 7) % 40;  // a permutation of 0..39
    store.record(make_record(std::to_string(rank), 0.001 * (rank + 1)));
  }
  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), 8u + 3u);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(snapshot[k].request_id, std::to_string(39 - k));
  }
  EXPECT_EQ(store.recorded(), 40u);
}

TEST(TraceStore, UniformRingSamplesEveryNth) {
  // Every 16th record (1-indexed arrival 1, 17, 33, ...) enters a 32-entry
  // ring; equal totals keep the first 8 records as the "slowest".
  TraceStore store;
  for (int i = 0; i < 16 * 34; ++i) {
    store.record(make_record(std::to_string(i), 0.001));
  }
  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), 8u + 32u);
  // Samples 33 and 34 overwrote the ring's first two slots.
  EXPECT_EQ(snapshot[8].request_id, std::to_string(16 * 32));
  EXPECT_EQ(snapshot[9].request_id, std::to_string(16 * 33));
  for (int j = 2; j < 32; ++j) {
    EXPECT_EQ(snapshot[8 + j].request_id, std::to_string(16 * j));
  }
}

TEST(TraceStore, ConcurrentAppendAndQueryStaysConsistent) {
  TraceStore store;

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 500;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    // Hammer snapshot() while writers append; every record seen must be
    // internally consistent (TSan guards the rest).
    while (!done.load(std::memory_order_acquire)) {
      const auto snapshot = store.snapshot();
      for (const TraceRecord& record : snapshot) {
        EXPECT_FALSE(record.request_id.empty());
        EXPECT_GE(record.total_seconds, 0.0);
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        TraceRecord record = make_record(
            "w" + std::to_string(w) + "-" + std::to_string(i),
            0.001 * static_cast<double>((w * 31 + i) % 97));
        store.record(std::move(record));
      }
    });
  }
  for (auto& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(store.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  const auto snapshot = store.snapshot();
  // Retention cap: at most slowest + ring.
  EXPECT_LE(snapshot.size(), 8u + 32u);
  EXPECT_GT(snapshot.size(), 0u);
}

}  // namespace
}  // namespace ic::telemetry

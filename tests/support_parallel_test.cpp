#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ic/support/rng.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"

namespace ic::support {
namespace {

TEST(ThreadPool, SubmitRunsTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      (void)pool.submit([&ran] { ran.fetch_add(1); });
    }
    // Pool goes out of scope with tasks likely still queued.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // One item: runs inline on the caller.
  pool.parallel_for(0, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesChunkExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 63) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  // A task running on the pool may itself call parallel_for on the same
  // pool; it must complete (inline) rather than deadlock on its own queue.
  ThreadPool pool(1);
  auto result = pool.submit([&pool] {
    std::size_t sum = 0;
    pool.parallel_for(0, 10, [&](std::size_t i) { sum += i; });
    return sum;
  });
  EXPECT_EQ(result.get(), 45u);
}

TEST(ThreadPool, EffectiveJobsResolution) {
  unsetenv("IC_JOBS");
  EXPECT_EQ(ThreadPool::effective_jobs(3), 3u);  // explicit request wins
  EXPECT_EQ(ThreadPool::effective_jobs(0), 1u);  // unset env -> serial
  setenv("IC_JOBS", "5", 1);
  EXPECT_EQ(ThreadPool::effective_jobs(0), 5u);
  EXPECT_EQ(ThreadPool::effective_jobs(2), 2u);  // option still wins
  {
    // -1 would wrap to 2^64 - 1 workers. The first bad value of the process
    // warns, naming it.
    auto sink = std::make_shared<telemetry::MemorySink>();
    const auto previous_sink = telemetry::Logger::instance().sink();
    telemetry::Logger::instance().set_sink(sink);
    setenv("IC_JOBS", "-1", 1);
    EXPECT_EQ(ThreadPool::effective_jobs(0), 1u);
    telemetry::Logger::instance().set_sink(previous_sink);
    const auto lines = sink->lines();
    EXPECT_TRUE(std::any_of(lines.begin(), lines.end(), [](const auto& line) {
      return line.find("IC_JOBS='-1'") != std::string::npos;
    })) << "IC_JOBS=-1 must warn";
  }
  for (const char* bad : {"garbage", "0", " 4", "+4", "4abc", "2.5",
                          "18446744073709551616"}) {
    setenv("IC_JOBS", bad, 1);
    EXPECT_EQ(ThreadPool::effective_jobs(0), 1u) << "IC_JOBS='" << bad << "'";
  }
  unsetenv("IC_JOBS");
}

TEST(ThreadPool, RecordsTelemetry) {
  auto& registry = telemetry::MetricsRegistry::global();
  const std::uint64_t before = registry.counter("pool.tasks").value();
  ThreadPool pool(2);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(pool.submit([] {}));
  for (auto& f : futures) f.get();
  EXPECT_GE(registry.counter("pool.tasks").value(), before + 10);
}

TEST(DeriveSeed, IndexedStreamsAreStableAndDistinct) {
  // Stability: the scheme is part of the determinism contract; changing it
  // silently would change every dataset generated from a given seed.
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {std::uint64_t{1}, std::uint64_t{42}}) {
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(derive_seed(base, i));
  }
  EXPECT_EQ(seen.size(), 2000u);  // no collisions across bases or indices
}

}  // namespace
}  // namespace ic::support

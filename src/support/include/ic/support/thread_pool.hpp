// Fixed-size worker pool shared by every parallel loop in the library.
//
// Design goals (DESIGN.md §8 "Parallelism & determinism"):
//   * Determinism is the caller's contract, not the pool's: the pool never
//     reorders *results* — callers write into preallocated slots indexed by
//     task id, and any cross-task reduction happens on the calling thread in
//     index order. The pool only decides *when* work runs, never what the
//     answer is.
//   * Parallelism is opt-in. jobs == 0 resolves through the IC_JOBS
//     environment variable and falls back to 1 (serial); nothing in the
//     library spins up threads unless a caller or the environment asks.
//   * Exceptions propagate: submit() returns a std::future that rethrows on
//     get(), and parallel_for() rethrows the first chunk failure after all
//     chunks have finished.
//
// Telemetry: the pool maintains gauge `pool.queue_depth` (tasks waiting),
// counter `pool.tasks` (tasks ever enqueued), and — when trace collection is
// on — a `pool/task` span per executed task. Spans carry the executing
// thread's id (TraceEvent::tid), which identifies the worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ic::telemetry {
class Counter;
class Gauge;
}  // namespace ic::telemetry

namespace ic::support {

class ThreadPool {
 public:
  /// Spawns exactly `workers` threads (>= 1). The pool is fixed-size for its
  /// whole lifetime; the destructor drains the queue and joins every worker.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Process-wide pool sized by effective_jobs(0), i.e. IC_JOBS or 1. Used
  /// for data-parallel kernels (Matrix::matmul) that have no jobs knob of
  /// their own. Constructed on first use.
  static ThreadPool& global();

  /// Resolve a `jobs` option: an explicit request wins; 0 defers to the
  /// IC_JOBS environment variable; unset/invalid IC_JOBS means 1 (serial).
  static std::size_t effective_jobs(std::size_t requested);

  /// Enqueue one task; the returned future yields its result or rethrows its
  /// exception. Safe to call from any thread, including from inside a task
  /// running on a *different* pool.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Run body(i) for every i in [begin, end) and block until all calls
  /// finish. Work is split into contiguous chunks, statically, one per
  /// executor: the calling thread runs chunk 0 itself (so progress is
  /// guaranteed even when every worker is busy) and the workers take the
  /// rest. Scratch state a body needs is per thread (thread_local), not per
  /// call. The first exception thrown by any chunk is rethrown here.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t index)>& body);

 private:
  using Task = std::function<void()>;

  void enqueue(Task task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  // Cached instrument references; grabbing them in the constructor also
  // guarantees the registry outlives the pool (static destruction order).
  telemetry::Counter& tasks_total_;
  telemetry::Gauge& queue_depth_;
};

}  // namespace ic::support

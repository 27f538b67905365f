#include "ic/support/thread_pool.hpp"

#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>

#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/strings.hpp"
#include "ic/support/trace.hpp"

namespace ic::support {

namespace {

// Which pool (if any) owns the current thread. parallel_for uses this to
// detect same-pool reentrancy: a worker that blocked on chunks queued behind
// other blocked workers would deadlock, so reentrant calls run inline
// instead.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers)
    : tasks_total_(telemetry::MetricsRegistry::global().counter("pool.tasks")),
      queue_depth_(
          telemetry::MetricsRegistry::global().gauge("pool.queue_depth")) {
  IC_ASSERT(workers >= 1);
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(effective_jobs(0));
  return pool;
}

std::size_t ThreadPool::effective_jobs(std::size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("IC_JOBS");
  if (env != nullptr && *env != '\0') {
    if (const auto v = parse_number<std::size_t>(env); v && *v > 0) return *v;
    // Same contract as IC_LOG_LEVEL: a set-but-unparsable knob warns once
    // naming the value and the accepted range instead of silently degrading
    // a parallel run to one worker.
    static std::once_flag warned;
    std::call_once(warned, [env] {
      ICLOG(warn) << "IC_JOBS='" << env
                  << "' is not a worker count (accepted: integers >= 1); "
                  << "falling back to 1 worker";
    });
  }
  return 1;
}

void ThreadPool::enqueue(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    IC_ASSERT_MSG(!stop_, "ThreadPool::enqueue after shutdown");
    queue_.push_back(std::move(task));
    tasks_total_.add(1);
    queue_depth_.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining tasks before honouring stop_: a destructor-initiated
      // shutdown must complete everything already promised to a future.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.set(static_cast<double>(queue_.size()));
    }
    telemetry::TraceSpan span("pool/task");
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  if (tls_pool == this) {
    // Reentrant call from one of our own workers: run inline rather than
    // risk a queue-wait deadlock.
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::size_t n = end - begin;
  // Static chunking: one contiguous chunk per executor (caller + workers).
  const std::size_t executors = std::min(worker_count() + 1, n);
  const std::size_t chunk = (n + executors - 1) / executors;

  std::vector<std::future<void>> pending;
  pending.reserve(executors - 1);
  for (std::size_t e = 1; e < executors; ++e) {
    const std::size_t lo = begin + e * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    auto chunk_task = std::make_shared<std::packaged_task<void()>>(
        [&body, lo, hi] {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        });
    pending.push_back(chunk_task->get_future());
    enqueue([chunk_task] { (*chunk_task)(); });
  }

  // The caller always takes the first chunk.
  std::exception_ptr first_error;
  try {
    const std::size_t hi = std::min(end, begin + chunk);
    for (std::size_t i = begin; i < hi; ++i) body(i);
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ic::support

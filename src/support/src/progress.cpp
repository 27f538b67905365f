#include "ic/support/progress.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "ic/support/assert.hpp"
#include "ic/support/flight_recorder.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"

namespace ic::telemetry {

// ---- process stats -------------------------------------------------------

ProcessStats read_process_stats() {
  ProcessStats out;
#if defined(__linux__)
  const double page = static_cast<double>(::sysconf(_SC_PAGESIZE));
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  {
    std::ifstream statm("/proc/self/statm");
    double size_pages = 0.0, resident_pages = 0.0;
    if (statm >> size_pages >> resident_pages) {
      out.vsize_bytes = size_pages * page;
      out.rss_bytes = resident_pages * page;
      out.ok = true;
    }
  }
  {
    std::ifstream stat("/proc/self/stat");
    std::string line;
    std::getline(stat, line);
    // comm (field 2) may contain spaces; fields 3+ follow the last ')'.
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 1));
      std::string token;
      // 0-based after ')': state=0 ... utime=11 stime=12 ... num_threads=17
      for (int i = 0; rest >> token && i <= 17; ++i) {
        if (i == 11) out.cpu_user_seconds = std::strtod(token.c_str(), nullptr) / tick;
        if (i == 12) out.cpu_system_seconds = std::strtod(token.c_str(), nullptr) / tick;
        if (i == 17) out.threads = std::strtod(token.c_str(), nullptr);
      }
    }
  }
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    double fds = 0.0;
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++fds;
    }
    ::closedir(dir);
    out.open_fds = fds - 1.0;  // exclude the opendir fd itself
  }
#endif
  return out;
}

ProcessStats sample_process_stats() {
  const ProcessStats stats = read_process_stats();
  auto& metrics = MetricsRegistry::global();
  metrics.gauge("process.resident_memory_bytes").set(stats.rss_bytes);
  metrics.gauge("process.virtual_memory_bytes").set(stats.vsize_bytes);
  metrics.gauge("process.cpu_user_seconds").set(stats.cpu_user_seconds);
  metrics.gauge("process.cpu_system_seconds").set(stats.cpu_system_seconds);
  metrics.gauge("process.threads").set(stats.threads);
  metrics.gauge("process.open_fds").set(stats.open_fds);
  metrics.gauge("process.uptime_seconds").set(process_seconds());
  return stats;
}

// ---- ProgressBoard / ProgressJob ----------------------------------------

ProgressBoard& ProgressBoard::global() {
  // Intentionally leaked — see MetricsRegistry::global().
  static ProgressBoard* board = new ProgressBoard();
  return *board;
}

ProgressBoard::Slot* ProgressBoard::acquire(const char* name,
                                            std::uint64_t total) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    if (slot.generation.load(std::memory_order_relaxed) != 0) continue;
    std::strncpy(slot.name, name, kNameMax);
    slot.name[kNameMax] = '\0';
    slot.phase.store(nullptr, std::memory_order_relaxed);
    slot.done.store(0, std::memory_order_relaxed);
    slot.total.store(total, std::memory_order_relaxed);
    for (auto& cn : slot.counter_names) cn.store(nullptr, std::memory_order_relaxed);
    for (auto& cv : slot.counters) cv.store(0, std::memory_order_relaxed);
    slot.predicted.store(0.0, std::memory_order_relaxed);
    const std::int64_t now = process_micros();
    slot.started_us.store(now, std::memory_order_relaxed);
    slot.last_tick_us.store(now, std::memory_order_relaxed);
    slot.watchdog.store(true, std::memory_order_relaxed);
    slot.generation.store(++next_generation_, std::memory_order_release);
    return &slot;
  }
  return nullptr;  // board full: the job runs unobserved, never fails
}

void ProgressBoard::release(Slot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  slot->generation.store(0, std::memory_order_release);
}

std::vector<ProgressBoard::JobSnapshot> ProgressBoard::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  for (const Slot& slot : slots_) {
    const std::uint64_t gen = slot.generation.load(std::memory_order_acquire);
    if (gen == 0) continue;
    JobSnapshot job;
    job.name = slot.name;
    job.phase = slot.phase.load(std::memory_order_relaxed);
    job.done = slot.done.load(std::memory_order_relaxed);
    job.total = slot.total.load(std::memory_order_relaxed);
    for (int i = 0; i < 2; ++i) {
      job.counter_names[i] = slot.counter_names[i].load(std::memory_order_relaxed);
      job.counters[i] = slot.counters[i].load(std::memory_order_relaxed);
    }
    job.predicted_seconds = slot.predicted.load(std::memory_order_relaxed);
    job.started_us = slot.started_us.load(std::memory_order_relaxed);
    job.last_tick_us = slot.last_tick_us.load(std::memory_order_relaxed);
    job.generation = gen;
    job.watchdog = slot.watchdog.load(std::memory_order_relaxed);
    out.push_back(std::move(job));
  }
  return out;
}

std::size_t ProgressBoard::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Slot& slot : slots_) {
    if (slot.generation.load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

namespace {

/// Compact flight-recorder record for job lifecycle edges, so a crash dump
/// shows which jobs were live and in which phase without needing debug logs.
void record_job_event(const char* event, const char* name, const char* phase) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof(buf), "progress %s job=%s%s%s", event,
                              name, phase != nullptr ? " phase=" : "",
                              phase != nullptr ? phase : "");
  if (n > 0) {
    FlightRecorder::global().append(
        buf, std::min(static_cast<std::size_t>(n), sizeof(buf) - 1));
  }
}

}  // namespace

ProgressJob::ProgressJob(const char* name, std::uint64_t total,
                         ProgressBoard& board)
    : board_(&board), slot_(board.acquire(name, total)) {
  if (slot_ != nullptr) record_job_event("start", slot_->name, nullptr);
}

ProgressJob::~ProgressJob() {
  if (slot_ == nullptr) return;
  record_job_event("end", slot_->name,
                   slot_->phase.load(std::memory_order_relaxed));
  board_->release(slot_);
}

void ProgressJob::tick(std::uint64_t done) {
  if (slot_ == nullptr) return;
  slot_->done.store(done, std::memory_order_relaxed);
  slot_->last_tick_us.store(process_micros(), std::memory_order_relaxed);
}

void ProgressJob::advance(std::uint64_t delta) {
  if (slot_ == nullptr) return;
  slot_->done.fetch_add(delta, std::memory_order_relaxed);
  slot_->last_tick_us.store(process_micros(), std::memory_order_relaxed);
}

void ProgressJob::set_phase(const char* phase) {
  if (slot_ == nullptr) return;
  slot_->phase.store(phase, std::memory_order_relaxed);
  slot_->last_tick_us.store(process_micros(), std::memory_order_relaxed);
  record_job_event("phase", slot_->name, phase);
}

void ProgressJob::set_counters(const char* name1, std::uint64_t value1,
                               const char* name2, std::uint64_t value2) {
  if (slot_ == nullptr) return;
  slot_->counter_names[0].store(name1, std::memory_order_relaxed);
  slot_->counters[0].store(value1, std::memory_order_relaxed);
  slot_->counter_names[1].store(name2, std::memory_order_relaxed);
  slot_->counters[1].store(value2, std::memory_order_relaxed);
  slot_->last_tick_us.store(process_micros(), std::memory_order_relaxed);
}

void ProgressJob::set_predicted_seconds(double seconds) {
  if (slot_ != nullptr) slot_->predicted.store(seconds, std::memory_order_relaxed);
}

void ProgressJob::set_watchdog(bool enabled) {
  if (slot_ != nullptr) slot_->watchdog.store(enabled, std::memory_order_relaxed);
}

// ---- Heartbeat -----------------------------------------------------------

Heartbeat::Heartbeat(HeartbeatOptions options) : options_(std::move(options)) {
  IC_CHECK(options_.interval.count() > 0, "Heartbeat interval must be positive");
  thread_ = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat() {
  try {
    stop();
  } catch (const std::exception&) {
    // A failing final beat (torn-down sink...) must not terminate.
  }
}

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Heartbeat::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    try {
      beat();
    } catch (const std::exception& e) {
      ICLOG(warn) << "heartbeat failed" << kv("error", e.what());
    }
    lock.lock();
  }
}

void Heartbeat::beat() {
  const ProcessStats proc = sample_process_stats();
  const auto jobs = ProgressBoard::global().snapshot();
  auto& metrics = MetricsRegistry::global();
  metrics.gauge("progress.active_jobs").set(static_cast<double>(jobs.size()));
  const std::int64_t now_us = process_micros();
  const bool emit = options_.always_log || log_enabled(Level::info);

  for (const auto& job : jobs) {
    const double elapsed =
        static_cast<double>(now_us - job.started_us) / 1e6;
    if (emit) {
      LogRecord line(Level::info, __FILE__, __LINE__);
      line << "heartbeat" << kv("job", job.name);
      if (job.phase != nullptr) line << kv("phase", job.phase);
      line << kv("done", job.done);
      if (job.total != 0) line << kv("total", job.total);
      line << kv("elapsed_s", elapsed);
      double rate = 0.0;
      if (elapsed > 0.0 && job.done > 0) {
        rate = static_cast<double>(job.done) / elapsed;
        line << kv("rate_per_s", rate);
      }
      for (int i = 0; i < 2; ++i) {
        if (job.counter_names[i] == nullptr) continue;
        line << ' ' << job.counter_names[i] << '=' << job.counters[i];
        if (elapsed > 0.0) {
          line << ' ' << job.counter_names[i] << "_per_s="
               << static_cast<double>(job.counters[i]) / elapsed;
        }
      }
      if (job.total != 0 && rate > 0.0 && job.done <= job.total) {
        line << kv("eta_s",
                   static_cast<double>(job.total - job.done) / rate);
      }
      // Predicted-vs-elapsed: the paper's estimate against live reality. A
      // negative remainder means the attack has already outlived the model's
      // prediction — worth seeing as-is, so it is not clamped.
      if (job.predicted_seconds > 0.0) {
        line << kv("predicted_s", job.predicted_seconds)
             << kv("predicted_remaining_s", job.predicted_seconds - elapsed);
      }
      if (proc.ok) {
        line << kv("rss_mb", proc.rss_bytes / (1024.0 * 1024.0))
             << kv("cpu_s", proc.cpu_user_seconds + proc.cpu_system_seconds);
      }
    }

    // Watchdog: one warn + one flight-recorder dump per stall episode.
    if (options_.stall_after.count() > 0 && job.watchdog) {
      const double stale_ms =
          static_cast<double>(now_us - job.last_tick_us) / 1e3;
      bool& warned = stall_warned_[job.generation];
      if (stale_ms > static_cast<double>(options_.stall_after.count())) {
        if (!warned) {
          warned = true;
          metrics.counter("progress.stalls").add(1);
          const std::string& path = !options_.stall_dump_path.empty()
                                        ? options_.stall_dump_path
                                        : std::string(flight_dump_path());
          bool dumped = false;
          if (!path.empty()) {
            dumped = FlightRecorder::global().dump_to_file(path.c_str());
          }
          LogRecord line(Level::warn, __FILE__, __LINE__);
          line << "job stalled" << kv("job", job.name);
          if (job.phase != nullptr) line << kv("phase", job.phase);
          line << kv("done", job.done)
               << kv("stale_s", stale_ms / 1e3)
               << kv("stall_after_s",
                     static_cast<double>(options_.stall_after.count()) / 1e3);
          if (dumped) line << kv("flight_dump", path);
        }
      } else {
        warned = false;  // job ticked again: re-arm for the next episode
      }
    }
  }

  // Drop bookkeeping for jobs that have since completed.
  for (auto it = stall_warned_.begin(); it != stall_warned_.end();) {
    bool live = false;
    for (const auto& job : jobs) {
      if (job.generation == it->first) {
        live = true;
        break;
      }
    }
    it = live ? std::next(it) : stall_warned_.erase(it);
  }
}

}  // namespace ic::telemetry

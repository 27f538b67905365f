// Live progress plane for long-running phases (DESIGN.md §12).
//
// Three pieces:
//
//   * ProgressBoard — a fixed array of per-job slots holding atomic progress
//     state (phase, done/total, two auxiliary counters, last-tick timestamp,
//     an optional predicted runtime). Publishers touch only relaxed atomics,
//     so instrumenting a hot loop costs a handful of stores per tick.
//   * ProgressJob — RAII registration of one slot. sat_attack registers one
//     per attack (ticked per DIP with solver conflict/propagation counters),
//     dataset labeling one per generate_dataset (instance N/M), train_gnn one
//     per fit (epoch N/M), and the serve engine one for its lifetime.
//   * Heartbeat — a background thread that every interval emits one
//     structured heartbeat log line per active job (progress, rate, ETA,
//     predicted-vs-elapsed), samples /proc/self into process.* gauges of the
//     global metrics registry (so they flow into the Prometheus exposition
//     and {"op":"stats"}), and watches for stalls: a job whose last tick is
//     older than stall_after gets one warn line and one flight-recorder dump
//     per stall episode.
//
// Nothing here is read back by library code: like the rest of ic::telemetry
// this is observability only, and determinism is untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ic::telemetry {

/// Point-in-time process resource usage, read from /proc/self (Linux). On
/// other platforms ok stays false and every field is 0.
struct ProcessStats {
  double rss_bytes = 0.0;
  double vsize_bytes = 0.0;
  double cpu_user_seconds = 0.0;
  double cpu_system_seconds = 0.0;
  double threads = 0.0;
  double open_fds = 0.0;
  bool ok = false;
};

/// Read /proc/self/{statm,stat,fd}. Cheap (<30µs); callable on demand by the
/// serve stats/health ops as well as periodically by the Heartbeat.
ProcessStats read_process_stats();

/// read_process_stats() published into gauges of the global registry:
/// process.resident_memory_bytes, process.virtual_memory_bytes,
/// process.cpu_user_seconds, process.cpu_system_seconds, process.threads,
/// process.open_fds, process.uptime_seconds.
ProcessStats sample_process_stats();

class ProgressJob;

class ProgressBoard {
 public:
  static constexpr std::size_t kMaxJobs = 32;
  static constexpr std::size_t kNameMax = 47;

  struct JobSnapshot {
    std::string name;
    const char* phase = nullptr;  ///< static string, may be null
    std::uint64_t done = 0;
    std::uint64_t total = 0;  ///< 0 = unknown
    const char* counter_names[2] = {nullptr, nullptr};
    std::uint64_t counters[2] = {0, 0};
    double predicted_seconds = 0.0;  ///< <= 0 = no prediction
    std::int64_t started_us = 0;
    std::int64_t last_tick_us = 0;
    std::uint64_t generation = 0;  ///< unique per registration
    bool watchdog = true;          ///< false = idle-is-normal (serve engine)
  };

  static ProgressBoard& global();
  ProgressBoard() = default;
  ProgressBoard(const ProgressBoard&) = delete;
  ProgressBoard& operator=(const ProgressBoard&) = delete;

  /// Active jobs, registration order. Serialized against register/release so
  /// names are never read mid-write.
  std::vector<JobSnapshot> snapshot() const;
  std::size_t active_jobs() const;

 private:
  friend class ProgressJob;

  struct Slot {
    std::atomic<std::uint64_t> generation{0};  ///< 0 = free
    char name[kNameMax + 1] = {0};
    std::atomic<const char*> phase{nullptr};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<const char*> counter_names[2] = {{nullptr}, {nullptr}};
    std::atomic<std::uint64_t> counters[2] = {{0}, {0}};
    std::atomic<double> predicted{0.0};
    std::atomic<std::int64_t> started_us{0};
    std::atomic<std::int64_t> last_tick_us{0};
    std::atomic<bool> watchdog{true};
  };

  Slot* acquire(const char* name, std::uint64_t total);
  void release(Slot* slot);

  mutable std::mutex mu_;  // registration, release, and snapshot only
  std::uint64_t next_generation_ = 0;
  Slot slots_[kMaxJobs];
};

/// RAII handle on one ProgressBoard slot. When the board is full the handle
/// is inert (every method a no-op) — progress publishing must never be able
/// to fail the job it describes. All methods are thread-safe: dataset
/// labeling advances one handle from many worker tasks.
class ProgressJob {
 public:
  explicit ProgressJob(const char* name, std::uint64_t total = 0,
                       ProgressBoard& board = ProgressBoard::global());
  ~ProgressJob();
  ProgressJob(const ProgressJob&) = delete;
  ProgressJob& operator=(const ProgressJob&) = delete;

  /// Set absolute completion and stamp the liveness tick.
  void tick(std::uint64_t done);
  /// Add to completion and stamp the liveness tick.
  void advance(std::uint64_t delta = 1);

  /// `phase` must be a string literal / static string (stored by pointer).
  void set_phase(const char* phase);
  /// Up to two named auxiliary counters (e.g. solver conflicts and
  /// propagations); names must be static strings. Also stamps the tick.
  void set_counters(const char* name1, std::uint64_t value1,
                    const char* name2 = nullptr, std::uint64_t value2 = 0);
  /// Estimator prediction for this job's total runtime, surfaced by the
  /// heartbeat as predicted-vs-elapsed ETA.
  void set_predicted_seconds(double seconds);
  /// Exempt this job from the stall watchdog (event-driven jobs idle
  /// legitimately; the serve engine sets false).
  void set_watchdog(bool enabled);

  bool registered() const { return slot_ != nullptr; }

 private:
  ProgressBoard* board_;
  ProgressBoard::Slot* slot_;
};

struct HeartbeatOptions {
  std::chrono::milliseconds interval{5000};
  /// Stall threshold for watchdogged jobs; 0 disables the watchdog.
  std::chrono::milliseconds stall_after{30000};
  /// true: heartbeat lines bypass the runtime log threshold (the user asked
  /// for progress explicitly — icnet_cli --progress-interval). false: lines
  /// go through ICLOG(info) and respect the threshold.
  bool always_log = false;
  /// Where the watchdog dumps the flight recorder on a stall; "" falls back
  /// to the registered flight_dump_path(), and if that is also empty no dump
  /// is written (the warn line still is).
  std::string stall_dump_path;
};

/// Background heartbeat/watchdog thread. Destruction stops and joins it.
class Heartbeat {
 public:
  explicit Heartbeat(HeartbeatOptions options = {});
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Join the thread. Idempotent.
  void stop();

  /// One sampling/logging pass right now (also what the thread runs each
  /// interval). Exposed for tests and exit-time final beats.
  void beat();

 private:
  void loop();

  HeartbeatOptions options_;
  /// Stall episodes already warned about, keyed by slot generation — one
  /// warn + dump per episode, re-armed when the job ticks again.
  std::map<std::uint64_t, bool> stall_warned_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace ic::telemetry

// In-process sampling profiler: an ITIMER_PROF / SIGPROF-driven sampler that
// captures raw backtraces into a preallocated lock-free buffer from the
// signal handler, then symbolizes them off-line (dladdr + demangling) into
// folded-stack output consumable by flamegraph.pl / speedscope.
//
// Signal-handler discipline mirrors the flight recorder
// (flight_recorder.cpp): no allocation, no stdio, no locks. Stacks are
// walked by chasing frame pointers from the interrupted ucontext — the repo
// compiles with -fno-omit-frame-pointer — because glibc backtrace() may take
// a non-recursive libgcc mutex and deadlock when the sampled thread already
// holds it. Sample slots are claimed with a fetch_add and published with a
// release store of the depth, so stop()/folded() never read a half-written
// stack.
//
// Arming paths (all funnel into Profiler::global()):
//   * `icnet_cli --profile-out file.folded` on any subcommand,
//   * `{"op":"profile","action":"start|stop|dump"}` on a live server,
//   * `ICNET_PROFILE_OUT=file.folded` in the environment (see
//      profile_from_env()).  ICNET_PROFILE is the experiment profile
//      (ci|paper), not this.
// A `%p` in either output path becomes the process id (set_profile_output).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ic::telemetry {

/// Internal: called from the SIGPROF handler with the interrupted ucontext.
void profiler_signal_handler_hook(void* ucontext);

struct ProfilerOptions {
  /// Sampling frequency. 99 Hz (not 100) avoids lockstep with periodic work.
  int hz = 99;
  /// Preallocated sample capacity; samples past this are counted as dropped.
  std::size_t max_samples = 1 << 18;
  /// Stop automatically after this many seconds of profiling (0, or a
  /// deadline past what the clock can represent = until stop()). Checked
  /// in-handler so no watcher thread is needed.
  double seconds = 0.0;
};

/// One decoded sample: innermost-first program counters.
struct ProfileSample {
  std::vector<std::uintptr_t> pcs;
};

class Profiler {
 public:
  static constexpr std::size_t kMaxDepth = 24;

  static Profiler& global();

  /// Arm ITIMER_PROF and install the SIGPROF handler. Returns false (and
  /// leaves the running session untouched) if already running. Retains any
  /// previously captured samples only until the next start(): each start
  /// begins a fresh capture.
  bool start(const ProfilerOptions& options = {});

  /// Disarm the timer and restore the previous SIGPROF disposition.
  /// Idempotent; returns false if the profiler was not running.
  bool stop();

  bool running() const;

  /// Samples captured in the current/most recent session.
  std::size_t sample_count() const;
  /// Samples that arrived after the buffer filled.
  std::uint64_t dropped() const;

  /// Decode every published sample (innermost frame first). Safe while
  /// running: only published slots are read.
  std::vector<ProfileSample> samples() const;

  /// Collapse samples into flamegraph "folded" lines —
  /// `outermost;...;innermost count` — symbolized via dladdr with demangled
  /// names; frames without symbols render as hex addresses. Lines are
  /// sorted for deterministic output.
  std::string folded() const;

  /// Write folded() to `path` (tmp + rename, like MetricsFlusher). Returns
  /// false on I/O failure.
  bool write_folded(const std::string& path) const;

 private:
  Profiler();
  friend void profiler_signal_handler_hook(void* ucontext);

  void record(void* ucontext);

  struct Slot {
    std::atomic<std::uint32_t> depth{0};  // 0 = unpublished
    std::uintptr_t pcs[kMaxDepth];
  };

  std::vector<Slot> slots_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> deadline_us_{0};  // 0 = no deadline
  std::atomic<bool> deadline_hit_{false};
  ProfilerOptions options_;
};

/// Honour `ICNET_PROFILE_OUT=path[,hz][,seconds]`: start the global profiler
/// now; at process exit (or explicit profile_flush()) the capture is folded
/// into `path`. Returns true if the env var armed a session.
bool profile_from_env();

/// If an output path was registered (via env or set_profile_output), stop
/// the profiler and write the folded capture there. Idempotent per arming.
void profile_flush();

/// Register the exit-time output path used by profile_flush(). Each "%p"
/// in `path` becomes the process id, so processes that share one configured
/// path (servers started with one ICNET_PROFILE_OUT) write separate files.
void set_profile_output(const std::string& path);

}  // namespace ic::telemetry

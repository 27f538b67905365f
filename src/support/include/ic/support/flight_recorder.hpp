// Crash/stall flight recorder: a fixed-size lock-free ring buffer of recent
// structured events with an async-signal-safe dump path (DESIGN.md §12).
//
// Every emitted log line (Logger::write) and every progress-job edge (start,
// phase, end) appends one compact record, so when a long-running attack hangs
// or a process dies on SIGSEGV the last ~hundreds of events are recoverable
// from the dump file instead of lost with the process:
//
//   ic::telemetry::set_flight_dump_path("icnet_flight.dump");
//   ic::telemetry::install_crash_handlers(/*handle_sigterm=*/true);
//
// Concurrency: appends are wait-free publication into per-slot seqlocks. A
// writer claims a sequence number with one fetch_add, marks the slot odd
// (in-flight), stores the payload as relaxed atomic words, then publishes the
// even version 2·seq+2. Readers validate the version before and after copying
// the payload and drop torn slots. Every payload byte lives in a std::atomic,
// so concurrent appenders and readers are race-free by construction (and
// TSan-clean, not just "benign").
//
// Async-signal-safety: dump(fd) uses only atomic loads, hand-rolled integer
// formatting, and write(2) — no malloc, no stdio, no locks — so the installed
// SIGSEGV/SIGABRT/SIGTERM handlers may call it at any point, including from a
// corrupted heap.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ic::telemetry {

class FlightRecorder {
 public:
  /// Payload bytes per record; longer events are truncated, keeping the
  /// head (timestamp/severity/message live at the front of a log line).
  static constexpr std::size_t kTextMax = 112;

  /// One recovered event, oldest-first in snapshot() order.
  struct Record {
    std::uint64_t seq = 0;   ///< global append index (monotonic)
    std::int64_t ts_us = 0;  ///< µs since the process telemetry epoch
    std::string text;
  };

  /// Process-wide instance, shared by the logger and progress jobs.
  /// Intentionally leaked (see MetricsRegistry::global()).
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t capacity = 512);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Recording is on by default: an append is one fetch_add plus ~15 relaxed
  /// atomic stores, cheap enough to leave on everywhere.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void append(const char* text, std::size_t len);
  void append(const std::string& text) { append(text.data(), text.size()); }

  /// Total records ever appended (≥ capacity() means the ring has wrapped).
  std::uint64_t total_appended() const {
    return next_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return capacity_; }

  /// Copy of the surviving records, oldest first. Slots mid-append or
  /// overwritten during the copy are skipped, never half-read.
  std::vector<Record> snapshot() const;

  /// Async-signal-safe dump of the ring to an open file descriptor: a
  /// `# icnet flight recorder` header line (signal number, totals), then one
  /// `seq=<n> ts_us=<n> | <text>` line per surviving record, oldest first.
  void dump(int fd, int signal = 0) const;

  /// open(2) + dump + close; also async-signal-safe. Returns false when the
  /// file cannot be opened.
  bool dump_to_file(const char* path, int signal = 0) const;

 private:
  static constexpr std::size_t kWords = kTextMax / 8;
  struct Slot {
    /// 0 = never written; 2·seq+1 = append in flight; 2·seq+2 = published.
    std::atomic<std::uint64_t> version{0};
    std::atomic<std::int64_t> ts_us{0};
    std::atomic<std::uint32_t> len{0};
    std::array<std::atomic<std::uint64_t>, kWords> words{};
  };

  /// Validated read of one published record; false on empty/torn/in-flight.
  bool read_slot(std::uint64_t seq, Record* out) const;

  std::atomic<bool> enabled_{true};
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
};

/// Where the crash handlers (and the heartbeat watchdog) write dumps.
/// Copied into a fixed static buffer so the handler needs no allocation.
void set_flight_dump_path(const std::string& path);

/// The registered dump path, or "" when none is set.
const char* flight_dump_path();

/// Install SIGSEGV/SIGABRT (and optionally SIGTERM) handlers that dump the
/// global recorder to the registered path. SIGSEGV/SIGABRT re-raise with the
/// default disposition after dumping, preserving crash semantics (core dumps,
/// nonzero wait status); SIGTERM exits 143 (128+15) after dumping. Pass
/// handle_sigterm = false for processes that own SIGTERM themselves (the
/// serve front-end uses it for graceful shutdown).
void install_crash_handlers(bool handle_sigterm);

}  // namespace ic::telemetry

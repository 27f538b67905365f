// Leveled structured logger for the ICNet libraries.
//
// Usage:
//
//   ICLOG(info) << "attack finished" << ic::telemetry::kv("dips", n);
//
// Records are single lines of `key=value` pairs after a free-text message,
// written atomically to a pluggable sink (stderr by default; tests swap in a
// MemorySink). The runtime threshold comes from the IC_LOG_LEVEL
// environment variable (trace|debug|info|warn|error|off, default warn) and
// can be overridden programmatically.
//
// Cost model: a suppressed ICLOG is one relaxed atomic load plus a branch —
// no LogRecord is constructed. Statements below the compile-time floor
// IC_LOG_MIN_LEVEL (0=trace .. 5=off, default 0) fold away entirely, so hot
// paths can be instrumented without fear.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

/// Compile-time floor: ICLOG statements strictly below this level are dead
/// code the optimizer removes. 0=trace, 1=debug, 2=info, 3=warn, 4=error.
#ifndef IC_LOG_MIN_LEVEL
#define IC_LOG_MIN_LEVEL 0
#endif

namespace ic::telemetry {

enum class Level : int { trace = 0, debug = 1, info = 2, warn = 3, error = 4, off = 5 };

const char* level_name(Level level);

/// Monotonic time since the first telemetry event in this process. One shared
/// epoch keeps log timestamps and trace-span timestamps on the same axis.
double process_seconds();
std::int64_t process_micros();

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Unrecognized strings yield `fallback`; when `recognized` is non-null it
/// reports whether `text` named a real level, so callers (the IC_LOG_LEVEL
/// bootstrap, the CLI's --log-level) can warn instead of silently falling
/// back.
Level parse_level(const std::string& text, Level fallback,
                  bool* recognized = nullptr);

/// The accepted spellings, for parse-failure diagnostics:
/// "trace|debug|info|warn|error|off".
const char* level_names();

/// Where finished log lines go. write() must be callable from any thread;
/// the logger serializes calls.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const std::string& line) = 0;
};

/// Appends lines to stderr (the default sink).
class StderrSink : public LogSink {
 public:
  void write(const std::string& line) override;
};

/// Buffers lines in memory; used by tests and tools that post-process logs.
class MemorySink : public LogSink {
 public:
  void write(const std::string& line) override;
  std::vector<std::string> lines() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> lines_;
};

/// Process-wide logger: a runtime level threshold plus one sink.
class Logger {
 public:
  /// The global instance. First use reads IC_LOG_LEVEL from the environment.
  static Logger& instance();

  Level level() const { return static_cast<Level>(level_.load(std::memory_order_relaxed)); }
  void set_level(Level level) { level_.store(static_cast<int>(level), std::memory_order_relaxed); }

  bool enabled(Level level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// Replaces the sink (never null; set_level(Level::off) silences output).
  void set_sink(std::shared_ptr<LogSink> sink);
  std::shared_ptr<LogSink> sink() const;

  /// Serialized write of one finished line; bypasses the level threshold
  /// (gating belongs to the ICLOG macro / the caller).
  void write(const std::string& line);

 private:
  Logger();
  std::atomic<int> level_;
  mutable std::mutex sink_mu_;
  std::shared_ptr<LogSink> sink_;
};

inline bool log_enabled(Level level) { return Logger::instance().enabled(level); }

/// One `key=value` pair; streams into a LogRecord.
template <typename T>
struct KeyValue {
  const char* key;
  const T& value;
};

template <typename T>
KeyValue<T> kv(const char* key, const T& value) {
  return KeyValue<T>{key, value};
}

/// A log statement being assembled. Flushes one line to the global logger on
/// destruction. Construct directly to emit unconditionally (e.g. the
/// heartbeat under `always_log`); normal code goes through ICLOG.
class LogRecord {
 public:
  LogRecord(Level level, const char* file, int line);
  ~LogRecord();
  LogRecord(const LogRecord&) = delete;
  LogRecord& operator=(const LogRecord&) = delete;

  template <typename T>
  LogRecord& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

  template <typename T>
  LogRecord& operator<<(const KeyValue<T>& pair) {
    stream_ << ' ' << pair.key << '=' << pair.value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// glog-style voidifier: `&` binds looser than `<<`, so the whole statement
/// collapses to void and fits in a ternary without dangling-else hazards.
struct LogVoidify {
  void operator&(LogRecord&) {}
  void operator&(LogRecord&&) {}
};

}  // namespace ic::telemetry

#define ICLOG(severity)                                                        \
  (static_cast<int>(::ic::telemetry::Level::severity) < IC_LOG_MIN_LEVEL ||    \
   !::ic::telemetry::log_enabled(::ic::telemetry::Level::severity))            \
      ? (void)0                                                                \
      : ::ic::telemetry::LogVoidify() &                                        \
            ::ic::telemetry::LogRecord(::ic::telemetry::Level::severity,       \
                                       __FILE__, __LINE__)

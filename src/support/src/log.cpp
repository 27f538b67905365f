#include "ic/support/log.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "ic/support/assert.hpp"
#include "ic/support/flight_recorder.hpp"

namespace ic::telemetry {

namespace {

using steady = std::chrono::steady_clock;

const steady::time_point& process_epoch() {
  static const steady::time_point epoch = steady::now();
  return epoch;
}

/// Strip the directory from __FILE__ so lines stay readable.
const char* basename_of(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/' || *p == '\\') base = p + 1;
  }
  return base;
}

}  // namespace

double process_seconds() {
  return std::chrono::duration<double>(steady::now() - process_epoch()).count();
}

std::int64_t process_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(steady::now() -
                                                               process_epoch())
      .count();
}

const char* level_name(Level level) {
  switch (level) {
    case Level::trace: return "TRACE";
    case Level::debug: return "DEBUG";
    case Level::info: return "INFO";
    case Level::warn: return "WARN";
    case Level::error: return "ERROR";
    case Level::off: return "OFF";
  }
  return "?";
}

Level parse_level(const std::string& text, Level fallback, bool* recognized) {
  if (recognized != nullptr) *recognized = true;
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) lower.push_back(static_cast<char>(std::tolower(c)));
  if (lower == "trace") return Level::trace;
  if (lower == "debug") return Level::debug;
  if (lower == "info") return Level::info;
  if (lower == "warn" || lower == "warning") return Level::warn;
  if (lower == "error") return Level::error;
  if (lower == "off" || lower == "none") return Level::off;
  if (recognized != nullptr) *recognized = false;
  return fallback;
}

const char* level_names() { return "trace|debug|info|warn|error|off"; }

void StderrSink::write(const std::string& line) {
  std::fprintf(stderr, "%s\n", line.c_str());
}

void MemorySink::write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(line);
}

std::vector<std::string> MemorySink::lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_;
}

void MemorySink::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
}

Logger::Logger()
    : level_(static_cast<int>(Level::warn)), sink_(std::make_shared<StderrSink>()) {
  const char* env = std::getenv("IC_LOG_LEVEL");
  if (env != nullptr && *env != '\0') {
    bool recognized = true;
    level_.store(static_cast<int>(parse_level(env, Level::warn, &recognized)),
                 std::memory_order_relaxed);
    if (!recognized) {
      // Straight to stderr: the logger is mid-construction here, and ICLOG
      // would re-enter Logger::instance(). The ctor runs once, so the
      // warning is naturally one-time.
      std::fprintf(stderr,
                   "icnet: IC_LOG_LEVEL='%s' is not a log level (accepted: "
                   "%s); falling back to 'warn'\n",
                   env, level_names());
    }
  }
}

Logger& Logger::instance() {
  // Intentionally leaked — see MetricsRegistry::global().
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::set_sink(std::shared_ptr<LogSink> sink) {
  IC_ASSERT(sink != nullptr);
  std::lock_guard<std::mutex> lock(sink_mu_);
  sink_ = std::move(sink);
}

std::shared_ptr<LogSink> Logger::sink() const {
  std::lock_guard<std::mutex> lock(sink_mu_);
  return sink_;
}

void Logger::write(const std::string& line) {
  // Every emitted line also lands in the flight recorder, so a crash dump
  // carries the recent log tail even when the sink was stderr on a lost tty.
  FlightRecorder::global().append(line);
  // Copy the sink pointer under the lock, write outside it: a slow sink must
  // not serialize unrelated threads beyond the line boundary.
  std::shared_ptr<LogSink> sink;
  {
    std::lock_guard<std::mutex> lock(sink_mu_);
    sink = sink_;
  }
  sink->write(line);
}

LogRecord::LogRecord(Level level, const char* file, int line) {
  char prefix[128];
  std::snprintf(prefix, sizeof(prefix), "%12.6f %-5s %s:%d | ", process_seconds(),
                level_name(level), basename_of(file), line);
  stream_ << prefix;
}

LogRecord::~LogRecord() { Logger::instance().write(stream_.str()); }

}  // namespace ic::telemetry

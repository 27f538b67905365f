#include "ic/support/telemetry.hpp"

#include <cstdio>
#include <fstream>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::telemetry {

void dump_metrics(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    IC_CHECK(out.good(), "dump_metrics: cannot open " << tmp);
    if (path.ends_with(".prom")) {
      MetricsRegistry::global().write_prometheus(out);
    } else {
      MetricsRegistry::global().write_json(out);
    }
    IC_CHECK(out.good(), "dump_metrics: write to " << tmp << " failed");
  }
  IC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
           "dump_metrics: cannot rename " << tmp << " to " << path);
}

void dump_trace(const std::string& path) {
  std::ofstream out(path);
  IC_CHECK(out.good(), "dump_trace: cannot open " << path);
  const TraceCollector& collector = TraceCollector::global();
  collector.write_chrome_json(out);
  if (const std::uint64_t dropped = collector.dropped(); dropped > 0) {
    ICLOG(warn) << "trace buffer full: later spans dropped" << kv("path", path)
                << kv("kept", TraceCollector::kMaxEvents)
                << kv("dropped", dropped);
  }
}

MetricsFlusher::MetricsFlusher(std::string path,
                               std::chrono::milliseconds interval)
    : path_(std::move(path)), interval_(interval) {
  IC_CHECK(interval_.count() > 0, "MetricsFlusher interval must be positive");
  thread_ = std::thread([this] { loop(); });
}

MetricsFlusher::~MetricsFlusher() {
  try {
    stop();
  } catch (const std::exception&) {
    // A failing final flush (deleted directory...) must not terminate.
  }
}

void MetricsFlusher::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) return;
    lock.unlock();
    try {
      dump_metrics(path_);
    } catch (const std::exception& e) {
      ICLOG(warn) << "metrics flush failed" << kv("error", e.what());
    }
    lock.lock();
  }
}

void MetricsFlusher::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  dump_metrics(path_);
}

}  // namespace ic::telemetry

#include "ic/support/trace.hpp"

#include <functional>
#include <sstream>
#include <thread>

#include "ic/support/log.hpp"
#include "ic/support/strings.hpp"

namespace ic::telemetry {

namespace {

std::uint64_t this_thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

TraceCollector& TraceCollector::global() {
  // Intentionally leaked — see MetricsRegistry::global().
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

void TraceCollector::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

std::size_t TraceCollector::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t TraceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void TraceCollector::write_chrome_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    os << (i ? ",\n " : "\n ");
    os << "{\"name\": " << ic::json_quote(e.name)
       << ", \"cat\": \"ic\", \"ph\": \"X\", \"ts\": " << e.ts_us
       << ", \"dur\": " << e.dur_us << ", \"pid\": 1, \"tid\": " << e.tid % 100000
       << "}";
  }
  os << "\n]\n";
}

std::string TraceCollector::to_chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  active_ = TraceCollector::global().enabled();
  if (active_) start_us_ = process_micros();
}

void TraceSpan::end() {
  if (!active_) return;
  active_ = false;
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  event.dur_us = process_micros() - start_us_;
  event.tid = this_thread_id();
  TraceCollector::global().record(std::move(event));
}

}  // namespace ic::telemetry

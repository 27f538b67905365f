#include "ic/support/timeline.hpp"

#include <algorithm>

#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"

namespace ic::telemetry {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::Accept: return "accept";
    case Stage::Parse: return "parse";
    case Stage::Route: return "route";
    case Stage::Queue: return "queue";
    case Stage::BatchAdmit: return "batch_admit";
    case Stage::FeatureBuild: return "feature_build";
    case Stage::Spmm: return "spmm";
    case Stage::Dense: return "dense";
    case Stage::Readout: return "readout";
    case Stage::Respond: return "respond";
  }
  return "?";
}

namespace {

// process_micros() is 0 at the very first call in a process (it defines the
// epoch); clamp to 1 so the "never marked" sentinel stays unambiguous.
std::int64_t nonzero_now() {
  const std::int64_t now = process_micros();
  return now > 0 ? now : 1;
}

}  // namespace

void Timeline::begin() { last_us_ = nonzero_now(); }

void Timeline::mark(Stage stage) {
  const std::int64_t now = nonzero_now();
  const std::size_t index = static_cast<std::size_t>(stage);
  if (last_us_ != 0) dur_us[index] += now - last_us_;
  ts_us[index] = now;
  last_us_ = now;
}

namespace {
thread_local Timeline* t_current_timeline = nullptr;
}  // namespace

Timeline* current_timeline() { return t_current_timeline; }

ScopedTimeline::ScopedTimeline(Timeline* timeline)
    : previous_(t_current_timeline) {
  t_current_timeline = timeline;
}

ScopedTimeline::~ScopedTimeline() { t_current_timeline = previous_; }

void mark_stage(Stage stage) {
  Timeline* timeline = t_current_timeline;
  if (timeline != nullptr) timeline->mark(stage);
}

namespace {

constexpr std::size_t kSlowestKept = 8;   // the slowest requests kept
constexpr std::size_t kRingSize = 32;     // uniform-sample ring size
constexpr std::size_t kSampleEvery = 16;  // 1-in-N uniform sampling rate

}  // namespace

void TraceStore::record(TraceRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  seen_ += 1;
  // Tail: keep the slowest, sorted fastest-first so the eviction candidate
  // is always front().
  const bool full = slowest_.size() >= kSlowestKept;
  if (!full || record.total_seconds > slowest_.front().total_seconds) {
    if (full) slowest_.erase(slowest_.begin());
    const auto pos = std::lower_bound(
        slowest_.begin(), slowest_.end(), record.total_seconds,
        [](const TraceRecord& r, double t) { return r.total_seconds < t; });
    slowest_.insert(pos, record);
  }
  // Uniform: records 1, 1 + N, 1 + 2N, ... into a fixed ring.
  if (seen_ % kSampleEvery == 1) {
    if (ring_.size() < kRingSize) {
      ring_.push_back(std::move(record));
    } else {
      ring_[ring_next_] = std::move(record);
    }
    ring_next_ = (ring_next_ + 1) % kRingSize;
  }
}

std::vector<TraceRecord> TraceStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceRecord> out(slowest_.rbegin(), slowest_.rend());
  out.insert(out.end(), ring_.begin(), ring_.end());
  return out;
}

std::uint64_t TraceStore::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

}  // namespace ic::telemetry

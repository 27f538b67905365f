#include "ic/support/profiler.hpp"

#include <dlfcn.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <limits>
#include <map>
#include <mutex>

#include "ic/support/log.hpp"
#include "ic/support/strings.hpp"

namespace ic::telemetry {

namespace {

// The handler needs the Profiler without going through a magic-static guard
// (not async-signal-safe on first use), so start() publishes it here.
std::atomic<Profiler*> g_profiler{nullptr};

struct sigaction g_prev_action;

// Read the interrupted program counter and frame pointer out of a ucontext.
// Only the architectures the CI images actually run are decoded; elsewhere
// the sample degrades to nothing rather than guessing at register layout.
bool context_regs(void* ucontext, std::uintptr_t* pc, std::uintptr_t* fp) {
  if (ucontext == nullptr) return false;
  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  return true;
#elif defined(__aarch64__)
  *pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  *fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  return true;
#else
  (void)uc;
  (void)pc;
  (void)fp;
  return false;
#endif
}

extern "C" void profiler_signal_handler(int, siginfo_t*, void* ucontext) {
  const int saved_errno = errno;
  profiler_signal_handler_hook(ucontext);
  errno = saved_errno;
}

std::int64_t monotonic_micros() {
  // clock_gettime is async-signal-safe per signal-safety(7).
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

void arm_itimer(int hz) {
  struct itimerval timer {};
  const long interval_us = hz > 0 ? 1000000 / hz : 0;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = interval_us;
  timer.it_value = timer.it_interval;
  ::setitimer(ITIMER_PROF, &timer, nullptr);
}

void disarm_itimer() {
  struct itimerval timer {};  // zeroed: stops the timer
  ::setitimer(ITIMER_PROF, &timer, nullptr);
}

std::string symbolize(std::uintptr_t pc,
                      std::map<std::uintptr_t, std::string>* cache) {
  auto it = cache->find(pc);
  if (it != cache->end()) return it->second;
  std::string name;
  Dl_info info{};
  // The sampled PC is the *return* address for every caller frame; step back
  // one byte so calls at the end of a function attribute to the right symbol.
  if (dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name.assign(demangled);
    } else {
      name.assign(info.dli_sname);
    }
    std::free(demangled);
    // Flamegraph folded format reserves ';' as the frame separator.
    for (char& c : name) {
      if (c == ';' || c == '\n') c = ':';
    }
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<std::size_t>(pc));
    name.assign(buf);
  }
  (*cache)[pc] = name;
  return name;
}

std::string g_profile_output;  // exit-time folded dump path
std::mutex g_profile_output_mu;

}  // namespace

// Out-of-line hook so the extern "C" handler stays tiny and the walk logic
// can live with the class (friend access to slots).
void profiler_signal_handler_hook(void* ucontext) {
  Profiler* profiler = g_profiler.load(std::memory_order_acquire);
  if (profiler != nullptr) profiler->record(ucontext);
}

Profiler& Profiler::global() {
  // Leaked intentionally: a late SIGPROF after static destructors must not
  // touch a destroyed object.
  static Profiler* profiler = new Profiler();
  return *profiler;
}

Profiler::Profiler() = default;

bool Profiler::start(const ProfilerOptions& options) {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return false;  // already running — keep the in-flight session
  }
  options_ = options;
  if (options_.hz <= 0) options_.hz = 99;
  if (options_.max_samples == 0) options_.max_samples = 1 << 18;
  if (slots_.size() != options_.max_samples) {
    // Safe: no handler can be in-flight here (timer disarmed, and running_
    // was false so record() from a stale signal bailed out).
    std::vector<Slot> fresh(options_.max_samples);
    slots_.swap(fresh);
  } else {
    for (Slot& slot : slots_) slot.depth.store(0, std::memory_order_relaxed);
  }
  next_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  deadline_hit_.store(false, std::memory_order_relaxed);
  // A deadline the clock cannot represent (seconds = 1e300, inf) means no
  // deadline, as seconds = 0 does.
  std::int64_t deadline_us = 0;
  const std::int64_t now_us = monotonic_micros();
  const std::int64_t room_us = std::numeric_limits<std::int64_t>::max() - now_us;
  const double budget_us = options_.seconds * 1e6;
  if (options_.seconds > 0.0 && budget_us < static_cast<double>(room_us)) {
    deadline_us =
        now_us + std::min(room_us, static_cast<std::int64_t>(budget_us));
  }
  deadline_us_.store(deadline_us, std::memory_order_release);
  g_profiler.store(this, std::memory_order_release);

  struct sigaction action {};
  action.sa_sigaction = profiler_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  ::sigaction(SIGPROF, &action, &g_prev_action);
  arm_itimer(options_.hz);
  ICLOG(debug) << "profiler started" << kv("hz", options_.hz)
               << kv("max_samples", options_.max_samples)
               << kv("seconds", options_.seconds);
  return true;
}

bool Profiler::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false,
                                        std::memory_order_acq_rel)) {
    return false;
  }
  disarm_itimer();
  ::sigaction(SIGPROF, &g_prev_action, nullptr);
  ICLOG(debug) << "profiler stopped" << kv("samples", sample_count())
               << kv("dropped", dropped());
  return true;
}

bool Profiler::running() const {
  return running_.load(std::memory_order_acquire);
}

std::size_t Profiler::sample_count() const {
  return std::min(next_.load(std::memory_order_acquire), slots_.size());
}

std::uint64_t Profiler::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void Profiler::record(void* ucontext) {
  if (!running_.load(std::memory_order_acquire)) return;

  const std::int64_t deadline = deadline_us_.load(std::memory_order_acquire);
  if (deadline != 0 && monotonic_micros() >= deadline) {
    // One handler wins the exchange and disarms the timer; the server (or
    // whoever polls running()) still performs the sigaction restore via
    // stop(). setitimer is async-signal-safe.
    if (!deadline_hit_.exchange(true, std::memory_order_acq_rel)) {
      disarm_itimer();
    }
    return;
  }

  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
  if (!context_regs(ucontext, &pc, &fp)) return;

  const std::size_t index = next_.fetch_add(1, std::memory_order_acq_rel);
  if (index >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = slots_[index];
  std::uint32_t depth = 0;
  slot.pcs[depth++] = pc;

  // Frame-pointer chase with strict validation: each frame must sit above
  // the previous one, stay 8-byte aligned, and remain within a sane stack
  // span of this handler frame. Any violation ends the walk — a truncated
  // stack beats a fault inside the handler.
  const std::uintptr_t anchor = reinterpret_cast<std::uintptr_t>(&pc);
  const std::uintptr_t limit = anchor + (8u << 20);  // 8 MiB stack ceiling
  std::uintptr_t frame = fp;
  while (depth < kMaxDepth) {
    if (frame < anchor || frame + 2 * sizeof(std::uintptr_t) > limit ||
        (frame & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const std::uintptr_t* record = reinterpret_cast<std::uintptr_t*>(frame);
    const std::uintptr_t next_frame = record[0];
    const std::uintptr_t return_pc = record[1];
    if (return_pc < 4096) break;  // null / garbage return address
    slot.pcs[depth++] = return_pc;
    if (next_frame <= frame) break;  // frame chain must grow upward
    frame = next_frame;
  }
  slot.depth.store(depth, std::memory_order_release);  // publish
}

std::vector<ProfileSample> Profiler::samples() const {
  const std::size_t count = sample_count();
  std::vector<ProfileSample> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Slot& slot = slots_[i];
    const std::uint32_t depth = slot.depth.load(std::memory_order_acquire);
    if (depth == 0 || depth > kMaxDepth) continue;  // unpublished slot
    ProfileSample sample;
    sample.pcs.assign(slot.pcs, slot.pcs + depth);
    out.push_back(std::move(sample));
  }
  return out;
}

std::string Profiler::folded() const {
  std::map<std::uintptr_t, std::string> symbol_cache;
  // Aggregate identical stacks first so each unique frame symbolizes once.
  std::map<std::vector<std::uintptr_t>, std::uint64_t> stacks;
  for (const ProfileSample& sample : samples()) {
    stacks[sample.pcs] += 1;
  }
  std::map<std::string, std::uint64_t> lines;  // merge symbol-level dups
  for (const auto& [pcs, count] : stacks) {
    std::string line;
    // Folded format wants outermost-first; samples store innermost-first.
    for (std::size_t i = pcs.size(); i-- > 0;) {
      if (!line.empty()) line.push_back(';');
      line += symbolize(pcs[i], &symbol_cache);
    }
    lines[line] += count;
  }
  std::string out;
  for (const auto& [line, count] : lines) {
    out += line;
    out.push_back(' ');
    out += std::to_string(count);
    out.push_back('\n');
  }
  return out;
}

bool Profiler::write_folded(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = folded();
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

// ---- env / exit-time arming ---------------------------------------------

void set_profile_output(const std::string& path) {
  std::string expanded;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path.compare(i, 2, "%p") == 0) {
      expanded += std::to_string(getpid());
      ++i;
    } else {
      expanded += path[i];
    }
  }
  std::lock_guard<std::mutex> lock(g_profile_output_mu);
  g_profile_output = std::move(expanded);
}

namespace {

/// One numeric field of ICNET_PROFILE_OUT. Same contract as IC_JOBS: a
/// field that is set but is not a number warns, naming the value, and
/// `field` keeps its default.
template <typename T>
void read_profile_field(const std::string& text, const char* name, T& field) {
  if (text.empty()) return;
  if (const auto value = parse_number<T>(text)) {
    field = *value;
    return;
  }
  ICLOG(warn) << "ICNET_PROFILE_OUT " << name << "='" << text
              << "' is not a number; keeping the default " << field;
}

}  // namespace

bool profile_from_env() {
  const char* spec = std::getenv("ICNET_PROFILE_OUT");
  if (spec == nullptr || spec[0] == '\0') return false;
  // "path[,hz][,seconds]" — both numeric suffixes optional.
  std::string text(spec);
  ProfilerOptions options;
  std::string path = text;
  const std::size_t first_comma = text.find(',');
  if (first_comma != std::string::npos) {
    path = text.substr(0, first_comma);
    const std::string rest = text.substr(first_comma + 1);
    const std::size_t second_comma = rest.find(',');
    read_profile_field(rest.substr(0, second_comma), "hz", options.hz);
    if (second_comma != std::string::npos) {
      read_profile_field(rest.substr(second_comma + 1), "seconds",
                         options.seconds);
    }
  }
  if (path.empty()) return false;
  set_profile_output(path);
  return Profiler::global().start(options);
}

void profile_flush() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(g_profile_output_mu);
    path.swap(g_profile_output);
  }
  if (path.empty()) return;
  Profiler& profiler = Profiler::global();
  profiler.stop();
  if (!profiler.write_folded(path)) {
    ICLOG(warn) << "profiler folded write failed" << kv("path", path);
    return;
  }
  ICLOG(info) << "profiler folded stacks written" << kv("path", path)
              << kv("samples", profiler.sample_count())
              << kv("dropped", profiler.dropped());
}

}  // namespace ic::telemetry

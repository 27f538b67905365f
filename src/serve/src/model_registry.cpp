#include "ic/serve/model_registry.hpp"

#include <sys/stat.h>

#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/trace.hpp"

namespace ic::serve {

bool ModelRegistry::stat_file(const std::string& path, std::int64_t* mtime_ns,
                              std::int64_t* size) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) return false;
  *mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              st.st_mtim.tv_nsec;
  *size = static_cast<std::int64_t>(st.st_size);
  return true;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::load_snapshot(
    const std::string& name, const std::string& path, std::uint64_t version) {
  telemetry::TraceSpan span("serve/model_load");
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->name = name;
  snapshot->path = path;
  snapshot->version = version;
  snapshot->model = core::load_model(path, &snapshot->spec);
  return snapshot;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::load(
    const std::string& name, const std::string& path) {
  std::int64_t mtime_ns = 0, size = 0;
  IC_CHECK(stat_file(path, &mtime_ns, &size), "cannot stat model file '"
                                                  << path << "'");
  std::uint64_t version = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(name);
    if (it != entries_.end()) version = it->second.snapshot->version + 1;
  }
  auto snapshot = load_snapshot(name, path, version);
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] = Entry{snapshot, mtime_ns, size};
  telemetry::MetricsRegistry::global().gauge("serve.models").set(
      static_cast<double>(entries_.size()));
  ICLOG(info) << "serve: " << "model '" << name << "' v" << snapshot->version
                      << " loaded from " << path << " ("
                      << snapshot->model->parameter_count() << " parameters)";
  return snapshot;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.snapshot;
}

std::size_t ModelRegistry::poll_reload() {
  // Snapshot the watch list, then do file I/O outside the lock so readers
  // are never blocked behind disk.
  std::vector<std::pair<std::string, Entry>> watch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    watch.assign(entries_.begin(), entries_.end());
  }
  std::size_t reloaded = 0;
  for (const auto& [name, entry] : watch) {
    std::int64_t mtime_ns = 0, size = 0;
    if (!stat_file(entry.snapshot->path, &mtime_ns, &size)) continue;
    if (mtime_ns == entry.mtime_ns && size == entry.file_size) continue;
    try {
      auto snapshot = load_snapshot(name, entry.snapshot->path,
                                    entry.snapshot->version + 1);
      std::lock_guard<std::mutex> lock(mu_);
      entries_[name] = Entry{snapshot, mtime_ns, size};
      ++reloaded;
      telemetry::MetricsRegistry::global().counter("serve.model_reloads").add(1);
      ICLOG(info) << "serve: " << "model '" << name << "' hot-reloaded to v"
                          << snapshot->version;
    } catch (const std::exception& e) {
      // Keep serving the previous snapshot; the writer may still be mid-copy.
      telemetry::MetricsRegistry::global()
          .counter("serve.model_reload_errors")
          .add(1);
      ICLOG(warn) << "serve: " << "model '" << name << "' reload failed: " << e.what();
    }
  }
  return reloaded;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ic::serve

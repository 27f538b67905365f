// icnet_cli — command-line front-end over the whole library, working on
// standard .bench netlists so it composes with external EDA tooling.
//
//   icnet_cli lock    <in.bench> <out.bench> --scheme lut4|xor|antisat
//                     [--gates N] [--width M] [--seed S]
//   icnet_cli attack  <locked.bench> <oracle.bench> [--max-conflicts N]
//                     [--model <est>]  predict the runtime up front, show
//                                      predicted-vs-elapsed in heartbeats,
//                                      and record calibration telemetry
//   icnet_cli dataset <circuit.bench> <out.dataset> [--instances N]
//                     [--min K] [--max K] [--seed S]
//   icnet_cli train   <circuit.bench> <in.dataset> <out.model>
//   icnet_cli predict <circuit.bench> <in.model> --select "12,57,101"
//                     [--select-file F]   one "id,id,..." selection per line,
//                                         one prediction per output line
//   icnet_cli search  <circuit.bench> <model>           in-process, or
//   icnet_cli search  --port P [--host H] [--model M] [--circuit C]
//                     run the search on a serve instance over the wire
//                     ({"op":"search"}, DESIGN.md §14). Common flags:
//                     [--budget N] [--scheme lut4|xor|antisat]
//                     [--greedy-steps N] [--sa-steps N] [--neighbors N]
//                     [--top-k K] [--seed S] [--area-weight W]
//                     [--depth-weight W] [--sa-temp T] [--sa-cooling C]
//                     [--verify-max-conflicts N] [--out report.json]
//                     in-process only: [--batch B]
//                     Same seed+flags ⇒ byte-identical report, local or
//                     remote, at any --jobs.
//   icnet_cli serve   <circuit.bench> <model> --port P [--host H]
//                     [--max-queue N] [--batch B] [--timeout-ms T]
//                     [--reload-ms R] [--slow-ms T]
//   icnet_cli query   --port P [--host H] --select "12,57,101"
//                     [--op predict|ping|profile|traces|stats|health|shutdown]
//                     [--model M] [--circuit C] [--timeout-ms T]
//                     [--request-id ID]
//                     [--format json|prometheus]   (stats only)
//                     [--action start|stop|dump] [--seconds S] [--hz N]
//                     [--out file.folded]          (profile only; --out saves
//                                                  the dumped folded stacks)
//   icnet_cli stats   --port P [--host H] [--format json|prometheus]
//                     [--timeout-ms T]   connect/IO bound, default 5000;
//                                        unreachable server → one-line
//                                        error, exit 2 (also health/query)
//   icnet_cli health  --port P [--host H] [--timeout-ms T]
//                     exit 0 iff the server is ready
//   icnet_cli gen     <out.bench> [--gates N] [--inputs N] [--outputs N]
//                     [--seed S]
//
// Telemetry flags, accepted by every subcommand:
//   --log-level trace|debug|info|warn|error|off   runtime log threshold
//                                                 (overrides IC_LOG_LEVEL)
//   --trace-out <file>    record scoped trace spans and write them as Chrome
//                         trace-event JSON (load in chrome://tracing)
//   --metrics-out <file>  dump the metrics registry (counters, gauges,
//                         histograms) when the command finishes — JSON, or
//                         Prometheus text when the file ends in .prom
//   --metrics-interval <ms>  with --metrics-out: additionally snapshot the
//                         registry to that file every <ms> milliseconds
//                         (atomic tmp+rename), so scrapers see live values
//   --progress-interval <s>  emit a heartbeat log line per active job every
//                         <s> seconds (progress, rate, ETA, RSS/CPU) and run
//                         the stall watchdog; bypasses the log threshold
//   --flight-dump <path>  where SIGSEGV/SIGABRT/SIGTERM (and watchdog
//                         stalls) dump the flight-recorder ring. Defaults to
//                         icnet_flight.<cmd>.dump for attack/dataset/train/
//                         serve; "none" disables the handlers entirely
//   --profile-out <file>  run the in-process sampling profiler (SIGPROF,
//                         99 Hz) for the whole command and write
//                         flamegraph-compatible folded stacks to <file> on
//                         exit. ICNET_PROFILE_OUT=path[,hz][,seconds] arms the
//                         same profiler from the environment. A %p in either
//                         path becomes the process id. On a live server,
//                         {"op":"profile"} starts/stops/dumps it without
//                         restarting (see `query --op profile`)
//
// Parallelism, accepted by every subcommand:
//   --jobs N              worker threads for the parallel loops (dataset
//                         labeling, minibatch training, large mat-muls) and
//                         the inference engine of serve and in-process search.
//                         Equivalent to IC_JOBS=N for this invocation and
//                         overrides it. Results are bit-identical at any N
//                         (DESIGN.md §8); default is serial.
//
// Exit code 0 on success, 1 on runtime errors, 2 on usage errors (unknown
// subcommand, malformed flags); errors go to stderr. A numeric flag must be
// one whole number in its range (ic::parse_number): "40abc", "2.9" for a
// count, "-2" for a size, "1e999", "inf" or a port past 65535 is a usage
// error naming the flag.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "ic/attack/sat_attack.hpp"
#include "ic/circuit/bench_io.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/dataset_io.hpp"
#include "ic/locking/anti_sat.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/search/report.hpp"
#include "ic/search/selection.hpp"
#include "ic/search/service.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/strings.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/thread_pool.hpp"

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
};

/// Malformed command line — exits with status 2, unlike runtime failures (1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parse_args(int argc, char** argv, int skip) {
  Args args;
  for (int i = skip; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (i + 1 >= argc) {
        throw UsageError("option --" + key + " needs a value");
      }
      args.options[key] = argv[++i];
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

std::string opt(const Args& a, const std::string& key, const std::string& dflt) {
  const auto it = a.options.find(key);
  return it == a.options.end() ? dflt : it->second;
}

/// --key as a T, or `dflt` when the flag is absent. The value must be one
/// whole number of type T in [lo, hi] (ic::parse_number); anything else is a
/// usage error naming the flag and the text.
template <typename T>
T num(const Args& a, const std::string& key, T dflt,
      T lo = std::numeric_limits<T>::lowest(),
      T hi = std::numeric_limits<T>::max()) {
  const auto it = a.options.find(key);
  if (it == a.options.end()) return dflt;
  const std::string& text = it->second;
  const auto value = ic::parse_number<T>(text);
  if (value && *value >= lo && *value <= hi) return *value;
  std::ostringstream os;
  os << "--" << key << " needs ";
  if constexpr (std::is_floating_point_v<T>) {
    os << "a finite number";
    if (lo != std::numeric_limits<T>::lowest() ||
        hi != std::numeric_limits<T>::max()) {
      os << " in [" << lo << ", " << hi << "]";
    }
  } else {
    os << "an integer in [" << +lo << ", " << +hi << "]";
  }
  os << ", got '" << text << "'";
  throw UsageError(os.str());
}

/// --port of a client subcommand, which has no default.
int port_arg(const Args& a, const char* cmd) {
  IC_CHECK(a.options.count("port") != 0, cmd << " needs --port P");
  return num<std::uint16_t>(a, "port", 0);
}

/// Remove a global (pre-dispatch) option so subcommands never see it.
std::string take_opt(Args& a, const std::string& key) {
  const auto it = a.options.find(key);
  if (it == a.options.end()) return "";
  std::string value = it->second;
  a.options.erase(it);
  return value;
}

/// take_opt for a numeric option in [lo, hi]; std::nullopt when absent.
template <typename T>
std::optional<T> take_num(Args& a, const std::string& key, T lo, T hi) {
  if (a.options.count(key) == 0) return std::nullopt;
  const T value = num<T>(a, key, T{}, lo, hi);
  a.options.erase(key);
  return value;
}

/// The longest --metrics-interval / --progress-interval: one day. Longer
/// waits would overflow the clocks the flusher and heartbeat sleep on.
constexpr double kMaxIntervalSeconds = 86400.0;

int cmd_gen(const Args& a) {
  IC_CHECK(a.positional.size() == 1, "gen needs <out.bench>");
  ic::circuit::GeneratorSpec spec;
  spec.num_gates = num<std::size_t>(a, "gates", 256);
  spec.num_inputs = num<std::size_t>(a, "inputs", 32);
  spec.num_outputs = num<std::size_t>(a, "outputs", 16);
  spec.seed = num<std::uint64_t>(a, "seed", 1);
  const auto circuit = ic::circuit::generate_circuit(spec);
  ic::circuit::write_bench_file(circuit, a.positional[0]);
  std::printf("wrote %zu-gate circuit to %s\n", spec.num_gates,
              a.positional[0].c_str());
  return 0;
}

int cmd_lock(const Args& a) {
  IC_CHECK(a.positional.size() == 2, "lock needs <in.bench> <out.bench>");
  const auto original = ic::circuit::read_bench_file(a.positional[0]);
  const std::string scheme = opt(a, "scheme", "lut4");
  const std::size_t gates = num<std::size_t>(a, "gates", 4);
  const std::uint64_t seed = num<std::uint64_t>(a, "seed", 1);

  ic::circuit::Netlist locked;
  std::vector<bool> key;
  if (scheme == "lut4") {
    const auto sel = ic::locking::select_gates(
        original, gates, ic::locking::SelectionPolicy::Random, seed);
    auto r = ic::locking::lut_lock(original, sel, seed);
    locked = std::move(r.locked);
    key = std::move(r.correct_key);
  } else if (scheme == "xor") {
    const auto sel = ic::locking::select_gates(
        original, gates, ic::locking::SelectionPolicy::Random, seed);
    auto r = ic::locking::xor_lock(original, sel, seed);
    locked = std::move(r.locked);
    key = std::move(r.correct_key);
  } else if (scheme == "antisat") {
    const std::size_t width = num<std::size_t>(a, "width", 6);
    const auto target = ic::locking::select_gates(
        original, 1, ic::locking::SelectionPolicy::FanoutWeighted, seed)[0];
    auto r = ic::locking::anti_sat_lock(original, target, {width, seed});
    locked = std::move(r.locked);
    key = std::move(r.correct_key);
  } else {
    ic::input_error("unknown scheme '" + scheme + "' (lut4|xor|antisat)");
  }
  ic::circuit::write_bench_file(locked, a.positional[1]);
  std::printf("locked netlist: %s (%zu key bits)\ncorrect key: ",
              a.positional[1].c_str(), locked.num_keys());
  for (bool b : key) std::printf("%d", b ? 1 : 0);
  std::printf("\n");
  return 0;
}

/// The obfuscated sites of a locked netlist, as seen from the attacker's
/// side: key-programmed LUTs plus ordinary gates fed by a key input. This is
/// the attack-time stand-in for the dataset's locked-gate selection.
std::vector<ic::circuit::GateId> key_gate_selection(
    const ic::circuit::Netlist& locked) {
  std::vector<ic::circuit::GateId> selection;
  for (ic::circuit::GateId id = 0; id < locked.size(); ++id) {
    const auto& g = locked.gate(id);
    if (g.kind == ic::circuit::GateKind::KeyInput) continue;
    bool keyed = g.kind == ic::circuit::GateKind::Lut && g.key_base >= 0;
    for (const ic::circuit::GateId f : g.fanins) {
      if (keyed) break;
      keyed = locked.gate(f).kind == ic::circuit::GateKind::KeyInput;
    }
    if (keyed) selection.push_back(id);
  }
  return selection;
}

int cmd_attack(const Args& a) {
  IC_CHECK(a.positional.size() == 2, "attack needs <locked.bench> <oracle.bench>");
  const auto locked = ic::circuit::read_bench_file(a.positional[0]);
  const auto oracle_netlist = ic::circuit::read_bench_file(a.positional[1]);
  ic::attack::NetlistOracle oracle(oracle_netlist);
  ic::attack::AttackOptions options;
  options.max_conflicts = num<std::uint64_t>(a, "max-conflicts", 0);
  const std::string model = opt(a, "model", "");
  if (!model.empty()) {
    auto estimator = ic::core::RuntimeEstimator::from_file(model);
    estimator.set_circuit(locked);
    const auto selection = key_gate_selection(locked);
    IC_CHECK(!selection.empty(), "locked netlist has no key-driven gates");
    options.predicted_seconds = estimator.predict_seconds(selection);
    std::printf("predicted de-obfuscation runtime: %.6f s (%zu key gates)\n",
                options.predicted_seconds, selection.size());
    std::fflush(stdout);
  }
  const auto r = ic::attack::sat_attack(locked, oracle, options);
  if (!r.success) {
    std::fprintf(stderr, "attack failed (cap hit: %s) after %zu DIPs\n",
                 r.hit_cap ? "yes" : "no", r.iterations);
    return 1;
  }
  std::printf("key: ");
  for (bool b : r.key) std::printf("%d", b ? 1 : 0);
  std::printf("\nDIPs %zu, conflicts %llu, propagations %llu, wall %.3fs, "
              "modeled %.4fs\n",
              r.iterations, static_cast<unsigned long long>(r.conflicts),
              static_cast<unsigned long long>(r.propagations), r.wall_seconds,
              r.estimated_seconds());
  const std::size_t mism = ic::attack::verify_key(locked, r.key, oracle_netlist);
  std::printf("verification: %zu mismatches\n", mism);
  return mism == 0 ? 0 : 1;
}

int cmd_dataset(const Args& a) {
  IC_CHECK(a.positional.size() == 2, "dataset needs <circuit.bench> <out.dataset>");
  const auto circuit = ic::circuit::read_bench_file(a.positional[0]);
  ic::data::DatasetOptions options;
  options.num_instances = num<std::size_t>(a, "instances", 60);
  options.min_gates = num<std::size_t>(a, "min", 1);
  options.max_gates = num<std::size_t>(a, "max", 16);
  options.attack.max_conflicts = 50000;
  options.seed = num<std::uint64_t>(a, "seed", 1);
  options.jobs = ic::support::ThreadPool::effective_jobs(0);
  const auto ds = ic::data::generate_dataset(circuit, options);
  ic::data::save_dataset(ds, a.positional[1]);
  std::printf("wrote %zu labeled instances to %s\n", ds.instances.size(),
              a.positional[1].c_str());
  return 0;
}

int cmd_train(const Args& a) {
  IC_CHECK(a.positional.size() == 3,
           "train needs <circuit.bench> <in.dataset> <out.model>");
  const auto circuit = ic::circuit::read_bench_file(a.positional[0]);
  const auto ds = ic::data::load_dataset(circuit, a.positional[1]);
  ic::core::EstimatorOptions options;
  options.train.max_epochs = num<std::size_t>(a, "epochs", 400);
  options.train.jobs = ic::support::ThreadPool::effective_jobs(0);
  ic::core::RuntimeEstimator estimator(options);
  const auto report = estimator.fit(ds);
  estimator.save(a.positional[2]);
  std::printf("trained %zu epochs (train MSE %.4f); model saved to %s\n",
              report.epochs_run, report.final_train_mse, a.positional[2].c_str());
  return 0;
}

// Selection parsing/validation is shared with the policy searcher
// (ic/search/selection.hpp) so the CLI, the search code, and the serving
// engine reject bad gate ids with the same wording.
using ic::search::check_selection;
using ic::search::parse_selection;

int cmd_predict(const Args& a) {
  IC_CHECK(a.positional.size() == 2, "predict needs <circuit.bench> <in.model>");
  const auto circuit = ic::circuit::read_bench_file(a.positional[0]);
  auto estimator = ic::core::RuntimeEstimator::from_file(a.positional[1]);
  estimator.set_circuit(circuit);

  const std::string select = opt(a, "select", "");
  const std::string select_file = opt(a, "select-file", "");
  IC_CHECK(select.empty() || select_file.empty(),
           "--select and --select-file are mutually exclusive");
  if (!select_file.empty()) {
    std::ifstream in(select_file);
    IC_CHECK(in.good(), "cannot open selection file '" << select_file << "'");
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      const std::string context =
          "selection file line " + std::to_string(line_no);
      std::vector<ic::circuit::GateId> selection;
      try {
        selection = parse_selection(line);
      } catch (const std::exception& e) {
        ic::input_error(context + ": " + e.what());
      }
      IC_CHECK(!selection.empty(), context << " has no gate ids");
      check_selection(selection, circuit, context);
      std::printf("%.6f\n", estimator.predict_seconds(selection));
    }
    return 0;
  }
  const auto selection = parse_selection(select);
  IC_CHECK(!selection.empty(),
           "predict needs --select \"id,id,...\" or --select-file <path>");
  check_selection(selection, circuit);
  std::printf("predicted de-obfuscation runtime: %.6f s (log-label %.4f)\n",
              estimator.predict_seconds(selection),
              estimator.predict_log_runtime(selection));
  return 0;
}

/// The search flags the user gave, as the wire's "search" object. Flags left
/// out are left out of the object too, so SearchOptions' defaults apply, and
/// ic::search::options_from_json checks the values alike in-process and on a
/// server.
ic::serve::JsonValue search_options_from_args(const Args& a) {
  using ic::serve::JsonValue;
  static const std::pair<const char*, const char*> kNumberFlags[] = {
      {"budget", "budget"},
      {"greedy-steps", "greedy_steps"},
      {"sa-steps", "sa_steps"},
      {"neighbors", "neighbors"},
      {"top-k", "top_k"},
      {"seed", "seed"},
      {"area-weight", "area_weight"},
      {"depth-weight", "depth_weight"},
      {"sa-temp", "sa_initial_temp"},
      {"sa-cooling", "sa_cooling"},
      {"verify-max-conflicts", "verify_max_conflicts"}};
  JsonValue search = JsonValue::object();
  if (const auto it = a.options.find("scheme"); it != a.options.end()) {
    search.set("scheme", JsonValue::string(it->second));
  }
  for (const auto& [flag, key] : kNumberFlags) {
    if (a.options.count(flag) != 0) {
      search.set(key, JsonValue::number(num<double>(a, flag, 0.0)));
    }
  }
  return search;
}

void save_report(const ic::serve::JsonValue& doc, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  IC_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << doc.dump() << '\n';
  IC_CHECK(out.good(), "write to '" << path << "' failed");
}

void print_search_summary(const ic::serve::JsonValue& doc) {
  const auto num = [&doc](const char* key) {
    const auto* v = doc.find(key);
    return v == nullptr ? 0.0 : v->as_number();
  };
  std::printf("best objective %.4f (predicted %.6f s)\n",
              num("best_objective"), num("best_predicted_seconds"));
  if (const auto* sel = doc.find("best_selection")) {
    std::printf("best selection:");
    for (const auto& id : sel->items()) {
      std::printf(" %.0f", id.as_number());
    }
    std::printf("\n");
  }
  std::printf("oracle: %.0f predictions in %.0f batches, %.0f/%.0f steps "
              "accepted\n",
              num("oracle_calls"), num("oracle_batches"),
              num("accepted_steps"),
              doc.find("steps") ? static_cast<double>(
                                      doc.find("steps")->items().size())
                                : 0.0);
  if (const auto* verified = doc.find("verified")) {
    std::size_t rank = 0;
    for (const auto& v : verified->items()) {
      const auto field = [&v](const char* key) {
        const auto* f = v.find(key);
        return f == nullptr ? 0.0 : f->as_number();
      };
      const auto* cap = v.find("attack_hit_cap");
      std::printf("verified #%zu: predicted %.6f s, actual %.6f s "
                  "(%.0f DIPs, %.0f key bits%s)\n",
                  ++rank, field("predicted_seconds"), field("actual_seconds"),
                  field("attack_dips"), field("key_bits"),
                  (cap != nullptr && cap->as_bool()) ? ", cap hit" : "");
    }
  }
}

int cmd_search(const Args& a) {
  const ic::serve::JsonValue options = search_options_from_args(a);
  const std::string out_path = opt(a, "out", "");

  ic::serve::JsonValue report_doc;
  if (a.options.count("port") != 0) {
    IC_CHECK(a.positional.empty(),
             "search --port takes no positional arguments");
    // Searches legitimately run for minutes; leave the IO unbounded like a
    // slow predict and rely on connect_timeout_ms for reachability.
    ic::serve::Client client(opt(a, "host", "127.0.0.1"),
                             port_arg(a, "search"));
    ic::serve::WireRequest request;
    request.op = "search";
    request.model = opt(a, "model", "default");
    request.circuit = opt(a, "circuit", "default");
    request.request_id = opt(a, "request-id", "");
    request.search = options;
    const auto response = client.call(request);
    if (!response.ok) {
      std::fprintf(stderr, "error: %s (%s)\n", response.error.c_str(),
                   response.status.c_str());
      return 1;
    }
    const auto* report = response.raw.find("report");
    IC_CHECK(report != nullptr, "search response carries no report");
    report_doc = *report;
  } else {
    IC_CHECK(a.positional.size() == 2,
             "search needs <circuit.bench> <model>, or --port P");
    const auto circuit = std::make_shared<const ic::circuit::Netlist>(
        ic::circuit::read_bench_file(a.positional[0]));
    ic::serve::ModelRegistry registry;
    registry.load("default", a.positional[1]);
    ic::serve::EngineOptions engine_options;
    engine_options.max_batch = num<std::size_t>(a, "batch", 32);
    ic::serve::InferenceEngine engine(registry, engine_options);
    engine.register_circuit("default", circuit);
    ic::search::SearchService service(engine);
    ic::serve::WireRequest request;
    request.op = "search";
    request.search = options;
    const auto report = service.run(request);
    engine.stop();
    report_doc = ic::search::report_to_json(report);
  }
  if (!out_path.empty()) save_report(report_doc, out_path);
  print_search_summary(report_doc);
  return 0;
}

ic::serve::Server* g_server = nullptr;

int cmd_serve(const Args& a) {
  IC_CHECK(a.positional.size() == 2, "serve needs <circuit.bench> <model>");
  const auto circuit = std::make_shared<const ic::circuit::Netlist>(
      ic::circuit::read_bench_file(a.positional[0]));

  ic::serve::ModelRegistry registry;
  registry.load("default", a.positional[1]);

  ic::serve::EngineOptions engine_options;
  engine_options.max_queue = num<std::size_t>(a, "max-queue", 1024);
  engine_options.max_batch = num<std::size_t>(a, "batch", 32);
  engine_options.default_timeout_ms = num<std::int64_t>(a, "timeout-ms", -1);
  engine_options.slow_request_ms = num<std::int64_t>(a, "slow-ms", -1);
  ic::serve::InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit);

  // {"op":"search"} support: the service searches the engine's circuits and
  // scores candidates through the same engine the predict path uses.
  ic::search::SearchService search_service(engine);

  ic::serve::ServerOptions server_options;
  server_options.host = opt(a, "host", "127.0.0.1");
  server_options.port = num<std::uint16_t>(a, "port", 0);
  server_options.reload_poll_ms = num<std::int64_t>(a, "reload-ms", 1000);
  ic::serve::Server server(engine, registry, server_options);
  search_service.install(server);
  server.start();
  std::printf("serving %s with model %s on %s:%d\n", a.positional[0].c_str(),
              a.positional[1].c_str(), server_options.host.c_str(),
              server.port());
  std::fflush(stdout);

  g_server = &server;
  std::signal(SIGINT, [](int) {
    if (g_server != nullptr) g_server->request_shutdown();
  });
  std::signal(SIGTERM, [](int) {
    if (g_server != nullptr) g_server->request_shutdown();
  });
  server.wait();
  server.shutdown();  // in-flight searches flush their slots during drain
  g_server = nullptr;
  search_service.stop();
  engine.stop();
  std::printf("served %llu requests (%llu rejected)\n",
              static_cast<unsigned long long>(
                  ic::telemetry::MetricsRegistry::global()
                      .counter("serve.requests")
                      .value()),
              static_cast<unsigned long long>(
                  ic::telemetry::MetricsRegistry::global()
                      .counter("serve.rejected")
                      .value()));
  return 0;
}

/// Print a wire response: Prometheus payloads verbatim, everything else as
/// the raw JSON document.
void print_response(const ic::serve::WireResponse& response) {
  const auto* prom = response.raw.find("prometheus");
  if (prom != nullptr) {
    std::fputs(prom->as_string().c_str(), stdout);
  } else {
    std::printf("%s\n", response.raw.dump().c_str());
  }
}

int cmd_query(const Args& a) {
  const int port = port_arg(a, "query");
  // --timeout-ms keeps its meaning as the server-side request deadline; the
  // socket IO bound rides above it (deadline + slack, or 30s when none) so a
  // hung server still can't block the CLI forever.
  const std::int64_t deadline_ms = num<std::int64_t>(a, "timeout-ms", -1);
  constexpr int kSlackMs = 5000;
  ic::serve::ClientOptions client_options;
  client_options.io_timeout_ms =
      deadline_ms >= 0
          ? static_cast<int>(std::min<std::int64_t>(
                deadline_ms, std::numeric_limits<int>::max() - kSlackMs)) +
                kSlackMs
          : 30000;

  ic::serve::WireRequest request;
  request.op = opt(a, "op", "predict");
  request.model = opt(a, "model", "default");
  request.circuit = opt(a, "circuit", "default");
  request.timeout_ms = deadline_ms;
  request.request_id = opt(a, "request-id", "");
  request.format = opt(a, "format", "");
  if (request.op == "predict") {
    request.select = parse_selection(opt(a, "select", ""));
    IC_CHECK(!request.select.empty(), "query needs --select \"id,id,...\"");
  }
  if (request.op == "profile") {
    request.action = opt(a, "action", "dump");
    request.seconds = num<double>(a, "seconds", 0.0);
    request.hz = num<std::int64_t>(a, "hz", 0);
  }

  ic::serve::Client client(opt(a, "host", "127.0.0.1"), port, client_options);
  const auto response = client.call(request);
  if (!response.ok) {
    std::fprintf(stderr, "error: %s (%s)\n", response.error.c_str(),
                 response.status.c_str());
    return 1;
  }
  if (request.op == "profile" && request.action == "dump") {
    // A dump can be large; --out writes the folded stacks to a file ready
    // for flamegraph.pl, and the console gets a one-line summary.
    const std::string out = opt(a, "out", "");
    const auto* folded = response.raw.find("folded");
    const auto* samples = response.raw.find("samples");
    if (!out.empty()) {
      IC_CHECK(folded != nullptr, "profile dump carried no folded stacks");
      std::FILE* file = std::fopen(out.c_str(), "w");
      IC_CHECK(file != nullptr, "cannot write " << out);
      std::fputs(folded->as_string().c_str(), file);
      std::fclose(file);
      std::printf("wrote %zu bytes of folded stacks (%.0f samples) to %s\n",
                  folded->as_string().size(),
                  samples != nullptr ? samples->as_number() : 0.0,
                  out.c_str());
    } else {
      print_response(response);
    }
    return 0;
  }
  if (request.op == "predict") {
    std::printf("predicted de-obfuscation runtime: %.6f s (log-label %.4f, "
                "model v%llu, request %s)\n",
                response.seconds, response.log_runtime,
                static_cast<unsigned long long>(response.model_version),
                response.request_id.c_str());
  } else {
    print_response(response);
  }
  return 0;
}

/// stats/health are probes: bound both connect and IO by --timeout-ms
/// (default 5000) so pointing them at an unreachable or hung server fails
/// fast with a clear error instead of blocking.
ic::serve::ClientOptions probe_options(const Args& a) {
  const int timeout_ms = num<int>(a, "timeout-ms", 5000);
  ic::serve::ClientOptions options;
  options.connect_timeout_ms = timeout_ms;
  options.io_timeout_ms = timeout_ms;
  return options;
}

int cmd_stats(const Args& a) {
  ic::serve::Client client(opt(a, "host", "127.0.0.1"), port_arg(a, "stats"),
                           probe_options(a));
  const auto response = client.stats(opt(a, "format", ""));
  if (!response.ok) {
    std::fprintf(stderr, "error: %s (%s)\n", response.error.c_str(),
                 response.status.c_str());
    return 1;
  }
  print_response(response);
  return 0;
}

int cmd_health(const Args& a) {
  ic::serve::Client client(opt(a, "host", "127.0.0.1"), port_arg(a, "health"),
                           probe_options(a));
  const auto response = client.health();
  if (!response.ok) {
    std::fprintf(stderr, "error: %s (%s)\n", response.error.c_str(),
                 response.status.c_str());
    return 1;
  }
  print_response(response);
  const auto* ready = response.raw.find("ready");
  return (ready != nullptr && ready->as_bool()) ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: icnet_cli <lock|attack|dataset|train|predict|search|"
               "serve|query|stats|health|gen> ...\n"
               "       [--jobs N] [--log-level L] [--trace-out F] [--metrics-out F]\n"
               "       [--metrics-interval MS] [--progress-interval S]\n"
               "       [--flight-dump F|none]\n"
               "see the header of examples/icnet_cli.cpp for details\n");
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "lock") return cmd_lock(args);
  if (cmd == "attack") return cmd_attack(args);
  if (cmd == "dataset") return cmd_dataset(args);
  if (cmd == "train") return cmd_train(args);
  if (cmd == "predict") return cmd_predict(args);
  if (cmd == "search") return cmd_search(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "stats") return cmd_stats(args);
  if (cmd == "health") return cmd_health(args);
  if (cmd == "gen") return cmd_gen(args);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  std::string trace_out, metrics_out;
  std::unique_ptr<ic::telemetry::MetricsFlusher> flusher;
  std::unique_ptr<ic::telemetry::Heartbeat> heartbeat;
  auto flush_telemetry = [&]() {
    if (heartbeat != nullptr) heartbeat->stop();
    // Stops the sampler and writes the folded stacks, when --profile-out or
    // ICNET_PROFILE_OUT armed one. Idempotent.
    ic::telemetry::profile_flush();
    if (!trace_out.empty()) ic::telemetry::dump_trace(trace_out);
    if (flusher != nullptr) {
      flusher->stop();  // joins the thread and writes the final snapshot
    } else if (!metrics_out.empty()) {
      ic::telemetry::dump_metrics(metrics_out);
    }
  };
  try {
    Args args = parse_args(argc, argv, 2);
    // Construct the logger up front: its ctor reads IC_LOG_LEVEL, and a bad
    // value should warn even on runs that never emit a log line.
    ic::telemetry::Logger::instance();
    const std::string log_level = take_opt(args, "log-level");
    if (!log_level.empty()) {
      ic::telemetry::Logger::instance().set_level(
          ic::telemetry::parse_level(log_level, ic::telemetry::Level::warn));
    }
    trace_out = take_opt(args, "trace-out");
    metrics_out = take_opt(args, "metrics-out");
    if (!trace_out.empty()) {
      ic::telemetry::TraceCollector::global().set_enabled(true);
    }
    if (const auto ms = take_num<std::int64_t>(
            args, "metrics-interval", 1,
            static_cast<std::int64_t>(kMaxIntervalSeconds * 1000.0))) {
      IC_CHECK(!metrics_out.empty(),
               "--metrics-interval needs --metrics-out <file>");
      flusher = std::make_unique<ic::telemetry::MetricsFlusher>(
          metrics_out, std::chrono::milliseconds(*ms));
    }
    const std::string profile_out = take_opt(args, "profile-out");
    if (!profile_out.empty()) {
      ic::telemetry::set_profile_output(profile_out);
      ic::telemetry::Profiler::global().start({});
    } else {
      ic::telemetry::profile_from_env();  // ICNET_PROFILE_OUT=path[,hz][,seconds]
    }
    if (const auto jobs = take_num<std::size_t>(
            args, "jobs", 1, std::numeric_limits<std::size_t>::max())) {
      // Publishing through IC_JOBS (before any pool exists) makes one flag
      // reach every jobs=0 option and the global kernel pool alike.
      setenv("IC_JOBS", std::to_string(*jobs).c_str(), 1);
    }
    // Flight recorder: long-running commands get crash/stall dumps by
    // default; any command can opt in with an explicit path, or out with
    // "none". serve owns SIGTERM itself (graceful shutdown), so only the
    // fatal signals are hooked there.
    std::string flight_path = take_opt(args, "flight-dump");
    const bool long_running = cmd == "attack" || cmd == "dataset" ||
                              cmd == "train" || cmd == "serve";
    if (flight_path.empty() && long_running) {
      flight_path = "icnet_flight." + cmd + ".dump";
    }
    if (!flight_path.empty() && flight_path != "none") {
      ic::telemetry::set_flight_dump_path(flight_path);
      ic::telemetry::install_crash_handlers(/*handle_sigterm=*/cmd != "serve");
    }
    if (const auto seconds = take_num<double>(args, "progress-interval",
                                              0.001, kMaxIntervalSeconds)) {
      ic::telemetry::HeartbeatOptions hb;
      hb.interval = std::chrono::milliseconds(
          static_cast<std::int64_t>(*seconds * 1000.0));
      // The user asked to watch: heartbeats bypass the log threshold.
      hb.always_log = true;
      hb.stall_after = std::max<std::chrono::milliseconds>(
          hb.interval * 5, std::chrono::milliseconds(30000));
      heartbeat = std::make_unique<ic::telemetry::Heartbeat>(hb);
    }
    const int rc = dispatch(cmd, args);
    flush_telemetry();
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const ic::serve::ConnectionError& e) {
    // Probe against a dead/hung server: one line, exit 2 (distinct from
    // runtime failures so scripts can tell "server down" from "bad request").
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Partial traces are still useful for diagnosing the failure.
    try {
      flush_telemetry();
    } catch (const std::exception&) {
    }
    return 1;
  }
}

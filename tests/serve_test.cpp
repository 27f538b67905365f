// Serving-layer coverage (DESIGN.md §9): model registry hot-reload, the
// engine's circuit table, engine backpressure/deadlines/shutdown, and the TCP
// loopback path — including bit-identical concurrent vs. serial predictions.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <thread>

#include "ic/circuit/generator.hpp"
#include "ic/core/estimator.hpp"
#include "ic/data/features.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/flight_recorder.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/trace.hpp"

namespace ic::serve {
namespace {

using circuit::GateId;
using circuit::Netlist;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "serve_" + name;
}

/// A raw TCP connection to the loopback server, or -1.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

Netlist test_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 64;
  spec.seed = 42;
  return circuit::generate_circuit(spec, "serve");
}

/// Synthetic labels — the serving layer never cares how labels were made, so
/// tests skip the SAT attacks entirely.
data::Dataset synthetic_dataset(std::shared_ptr<const Netlist> circuit,
                                std::uint64_t seed) {
  data::Dataset ds;
  ds.circuit = std::move(circuit);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < 10; ++i) {
    data::Instance inst;
    const std::size_t count = 1 + i % 4;
    for (std::size_t g = 0; g < count; ++g) {
      inst.selection.push_back(
          static_cast<GateId>(rng() % ds.circuit->size()));
    }
    inst.runtime_seconds = 0.0005 * static_cast<double>(i + 1);
    ds.instances.push_back(inst);
  }
  return ds;
}

/// Train-and-save a small model; `seed` varies the weights so hot-reload
/// tests can produce a genuinely different file.
void write_model(const std::string& path,
                 std::shared_ptr<const Netlist> circuit, std::uint64_t seed,
                 core::ModelVariant variant = core::ModelVariant::ICNet) {
  core::EstimatorOptions options;
  options.variant = variant;
  options.hidden = {6, 4};
  options.seed = seed;
  options.train.max_epochs = 5;
  core::RuntimeEstimator estimator(options);
  estimator.fit(synthetic_dataset(std::move(circuit), seed));
  estimator.save(path);
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = std::make_shared<const Netlist>(test_circuit());
    model_path_ = temp_path("model.txt");
    write_model(model_path_, circuit_, 1);
  }
  static void TearDownTestSuite() { circuit_.reset(); }

  static std::shared_ptr<const Netlist> circuit_;
  static std::string model_path_;
};

std::shared_ptr<const Netlist> ServeTest::circuit_;
std::string ServeTest::model_path_;

// ---- ModelRegistry ---------------------------------------------------------

TEST_F(ServeTest, RegistryLoadsSelfDescribingModel) {
  ModelRegistry registry;
  const auto snapshot = registry.load("default", model_path_);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->spec.config.hidden, (std::vector<std::size_t>{6, 4}));
  EXPECT_EQ(registry.get("default"), snapshot);
  EXPECT_EQ(registry.get("nope"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
}

TEST_F(ServeTest, RegistryHotReloadsChangedFileAtomically) {
  const std::string path = temp_path("reload.txt");
  write_model(path, circuit_, 1);
  ModelRegistry registry;
  const auto v1 = registry.load("m", path);
  EXPECT_EQ(registry.poll_reload(), 0u) << "unchanged file must not reload";

  // Ensure a distinct mtime even on coarse filesystem clocks.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_model(path, circuit_, 2);
  EXPECT_EQ(registry.poll_reload(), 1u);
  const auto v2 = registry.get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version, 2u);
  // The old snapshot is untouched — in-flight readers keep a whole model.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_NE(v1->model, v2->model);
}

TEST_F(ServeTest, RegistryKeepsServingWhenReloadFails) {
  const std::string path = temp_path("reload_bad.txt");
  write_model(path, circuit_, 1);
  ModelRegistry registry;
  registry.load("m", path);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::ofstream(path) << "corrupted mid-write\n";
  EXPECT_EQ(registry.poll_reload(), 0u);
  const auto snapshot = registry.get("m");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u) << "failed reload must keep the old model";

  // Once the file is whole again, the next poll picks it up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_model(path, circuit_, 3);
  EXPECT_EQ(registry.poll_reload(), 1u);
  EXPECT_EQ(registry.get("m")->version, 2u);
}

TEST_F(ServeTest, RegistryRefusesTheRetiredV1Format) {
  // v1 files carried a bare parameter count and no architecture. They are
  // refused on first load and on hot reload alike.
  const std::string v1 = "icnet-params v1 2\n1 1\n0.5\n1 1\n0.5\n";
  const std::string unsupported = "unsupported parameter-file version 'v1'";
  const std::string path = temp_path("v1.txt");
  std::ofstream(path) << v1;
  ModelRegistry registry;
  try {
    registry.load("m", path);
    ADD_FAILURE() << "a v1 file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(unsupported), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(registry.get("m"), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  write_model(path, circuit_, 1);
  registry.load("m", path);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::ofstream(path) << v1;
  auto& errors =
      telemetry::MetricsRegistry::global().counter("serve.model_reload_errors");
  const auto before = errors.value();
  EXPECT_EQ(registry.poll_reload(), 0u);
  EXPECT_EQ(errors.value(), before + 1);
  EXPECT_EQ(registry.get("m")->version, 1u);
}

TEST_F(ServeTest, DeltaAnswersMatchTheFullPassAcrossCircuitsAndReloads) {
  // One engine at jobs=4 serves two circuits of different sizes, predicts
  // interleaved, then a hot-reloaded model. Each answer must be bit-identical
  // to the full pass on data::gate_features for its circuit and model
  // version: a base keyed or invalidated wrongly, or a workspace sized for
  // the other circuit, answers differently.
  const std::string path = temp_path("delta_reload.txt");
  write_model(path, circuit_, 1);
  ModelRegistry registry;
  registry.load("default", path);
  EngineOptions options;
  options.jobs = 4;
  InferenceEngine engine(registry, options);
  circuit::GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 200;
  spec.seed = 9;
  const std::map<std::string, std::shared_ptr<const Netlist>> circuits = {
      {"small", circuit_},
      {"big", std::make_shared<const Netlist>(
                  circuit::generate_circuit(spec, "big"))}};
  for (const auto& [name, netlist] : circuits) {
    engine.register_circuit(name, netlist);
  }

  const auto check = [&](std::uint64_t seed) {
    const auto snapshot = registry.get("default");
    std::mt19937_64 rng(seed);
    std::vector<PredictRequest> requests;
    for (std::size_t i = 0; i < 96; ++i) {
      PredictRequest request;
      request.circuit = i % 2 == 0 ? "small" : "big";
      const std::size_t n = circuits.at(request.circuit)->size();
      const std::size_t count = i % 16 == 15 ? n : 1 + rng() % 12;
      for (std::size_t g = 0; g < count; ++g) {
        request.selection.push_back(
            static_cast<GateId>(count == n ? g : rng() % n));
      }
      requests.push_back(std::move(request));
    }
    const auto results = engine.predict_batch(requests);
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].error;
      EXPECT_EQ(results[i].model_version, snapshot->version);
      const Netlist& netlist = *circuits.at(requests[i].circuit);
      const auto s = data::make_structure(netlist, snapshot->structure_kind());
      const double full = snapshot->model->predict(
          *s, data::gate_features(netlist, requests[i].selection,
                                  snapshot->spec.features));
      EXPECT_EQ(std::memcmp(&full, &results[i].log_runtime, sizeof full), 0)
          << requests[i].circuit << " request " << i << " at version "
          << snapshot->version;
    }
  };
  check(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  write_model(path, circuit_, 2);
  ASSERT_EQ(registry.poll_reload(), 1u);
  check(2);
}

// ---- InferenceEngine -------------------------------------------------------

PredictRequest request_for(std::vector<GateId> selection,
                           std::int64_t timeout_ms = -1) {
  PredictRequest request;
  request.selection = std::move(selection);
  request.timeout_ms = timeout_ms;
  return request;
}

TEST_F(ServeTest, EngineRejectsBeyondMaxQueue) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.max_queue = 3;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  engine.set_paused(true);  // queue fills deterministically
  std::vector<std::future<PredictResult>> accepted;
  for (int i = 0; i < 3; ++i) {
    accepted.push_back(engine.submit(request_for({1, 2})));
  }
  EXPECT_EQ(engine.queue_depth(), 3u);

  auto overflow = engine.submit(request_for({1, 2}));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "backpressure must answer immediately";
  const auto rejected = overflow.get();
  EXPECT_EQ(rejected.status, RequestStatus::Rejected);
  EXPECT_NE(rejected.error.find("queue full"), std::string::npos);

  engine.set_paused(false);
  for (auto& f : accepted) {
    EXPECT_EQ(f.get().status, RequestStatus::Ok);
  }
}

TEST_F(ServeTest, EngineExpiresDeadlinedRequests) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  engine.set_paused(true);
  auto doomed = engine.submit(request_for({1, 2}, /*timeout_ms=*/1));
  auto patient = engine.submit(request_for({1, 2}, /*timeout_ms=*/60000));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  engine.set_paused(false);

  const auto expired = doomed.get();
  EXPECT_EQ(expired.status, RequestStatus::DeadlineExceeded);
  EXPECT_EQ(patient.get().status, RequestStatus::Ok);
}

TEST_F(ServeTest, EngineReportsUnknownNamesAndBadSelections) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 1;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  auto bad_model = request_for({1});
  bad_model.model = "missing";
  EXPECT_EQ(engine.predict(bad_model).status, RequestStatus::Error);

  auto bad_circuit = request_for({1});
  bad_circuit.circuit = "missing";
  EXPECT_EQ(engine.predict(bad_circuit).status, RequestStatus::Error);

  const auto out_of_range = engine.predict(
      request_for({static_cast<GateId>(circuit_->size() + 5)}));
  EXPECT_EQ(out_of_range.status, RequestStatus::Error);
  EXPECT_NE(out_of_range.error.find("out of range"), std::string::npos);
}

TEST_F(ServeTest, CircuitTableBuildsOnePreparedStatePerCircuitAndSnapshot) {
  const std::string gcn_path = temp_path("table_gcn.txt");
  write_model(gcn_path, circuit_, 1, core::ModelVariant::Gcn);
  ModelRegistry registry;
  registry.load("default", model_path_);
  registry.load("gcn", gcn_path);
  EngineOptions options;
  options.jobs = 4;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);
  EXPECT_EQ(engine.circuit("default"), circuit_);
  EXPECT_EQ(engine.circuit("nope"), nullptr);

  auto& metrics = telemetry::MetricsRegistry::global();
  auto& hits = metrics.counter("serve.feature_cache.hits");
  auto& misses = metrics.counter("serve.feature_cache.misses");
  // Runs `count` predicts of `model`, all queued before any worker starts,
  // and returns how many hit and how many missed.
  const auto run = [&](const std::string& model, std::size_t count) {
    const auto hits_before = hits.value();
    const auto misses_before = misses.value();
    engine.set_paused(true);
    std::vector<std::future<PredictResult>> futures;
    for (std::size_t i = 0; i < count; ++i) {
      PredictRequest request = request_for({static_cast<GateId>(i + 1)});
      request.model = model;
      futures.push_back(engine.submit(std::move(request)));
    }
    engine.set_paused(false);
    for (auto& future : futures) {
      const auto result = future.get();
      EXPECT_TRUE(result.ok()) << result.error;
    }
    return std::make_pair(hits.value() - hits_before,
                          misses.value() - misses_before);
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;  // hits, misses

  // 32 concurrent first predicts on a fresh circuit build its state once.
  EXPECT_EQ(run("default", 32), (Counts{31, 1}));
  EXPECT_EQ(run("default", 1), (Counts{1, 0}));
  // A model of another variant needs its own structure and base.
  EXPECT_EQ(run("gcn", 1), (Counts{0, 1}));
  EXPECT_EQ(run("gcn", 1), (Counts{1, 0}));
  // Registering the name again drops what was built for the old binding.
  engine.register_circuit("default", circuit_);
  EXPECT_EQ(run("default", 1), (Counts{0, 1}));
}

TEST_F(ServeTest, PredictsAppendNothingToTheFlightRecorder) {
  // The 512-slot ring keeps log lines and progress edges for a post-mortem;
  // served predicts must not turn it over.
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  ASSERT_TRUE(engine.predict(request_for({1, 2})).ok());

  const auto& recorder = telemetry::FlightRecorder::global();
  ASSERT_TRUE(recorder.enabled());
  const std::uint64_t before = recorder.total_appended();
  for (GateId g = 0; g < 200; ++g) {
    const auto result = engine.predict(request_for({g % 60 + 1}));
    ASSERT_TRUE(result.ok()) << result.error;
  }
  EXPECT_EQ(recorder.total_appended(), before);
}

TEST_F(ServeTest, PredictsAddNoTraceEvents) {
  // A request is recorded once, by its timeline (bounded in the TraceStore);
  // under `serve --trace-out` served predicts must not grow the collector,
  // which keeps every span it is given.
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  auto& collector = telemetry::TraceCollector::global();
  collector.set_enabled(true);
  const bool warm = engine.predict(request_for({1, 2})).ok();
  const std::size_t before = collector.size();
  for (GateId g = 0; g < 200; ++g) {
    const auto result = engine.predict(request_for({g % 60 + 1}));
    EXPECT_TRUE(result.ok()) << result.error;
  }
  const std::size_t after = collector.size();
  collector.set_enabled(false);
  collector.clear();
  ASSERT_TRUE(warm);
  EXPECT_EQ(after, before);
}

TEST_F(ServeTest, EngineStopAnswersQueuedWorkThenRejects) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 2;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.submit(request_for({1, 2, 3})));
  }
  engine.stop();  // graceful: drains the queue before the batcher exits
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, RequestStatus::Ok);
  }
  EXPECT_EQ(engine.predict(request_for({1, 2})).status,
            RequestStatus::Rejected);
}

TEST_F(ServeTest, EngineMatchesEstimatorBitForBit) {
  // The serving fast path (cached featurization, one shared const model
  // across executors) must agree exactly with the offline RuntimeEstimator.
  auto estimator = core::RuntimeEstimator::from_file(model_path_);
  estimator.set_circuit(*circuit_);

  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 3;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::mt19937_64 rng(7);
  for (int i = 0; i < 12; ++i) {
    std::vector<GateId> selection;
    for (std::size_t g = 0; g < static_cast<std::size_t>(1 + i % 5); ++g) {
      selection.push_back(static_cast<GateId>(rng() % circuit_->size()));
    }
    const auto served = engine.predict(request_for(selection));
    ASSERT_EQ(served.status, RequestStatus::Ok) << served.error;
    EXPECT_EQ(served.log_runtime, estimator.predict_log_runtime(selection));
    EXPECT_EQ(served.seconds, estimator.predict_seconds(selection));
  }
}

// ---- TCP server ------------------------------------------------------------

TEST_F(ServeTest, ServerAnswersPingStatsAndPredicts) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  ServerOptions server_options;
  server_options.reload_poll_ms = 50;
  Server server(engine, registry, server_options);
  server.start();
  ASSERT_GT(server.port(), 0);

  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping().ok);

  WireRequest request;
  request.select = {3, 9, 17};
  request.id = 41;
  request.has_id = true;
  const auto response = client.call(request);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.has_id);
  EXPECT_EQ(response.id, 41u);
  EXPECT_GT(response.seconds, 0.0);

  const auto stats = client.stats();
  EXPECT_TRUE(stats.ok);
  ASSERT_NE(stats.raw.find("models"), nullptr);
  EXPECT_EQ(stats.raw.find("models")->items().size(), 1u);
  ASSERT_NE(stats.raw.find("uptime_seconds"), nullptr);
  EXPECT_GE(stats.raw.find("uptime_seconds")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("p99_latency_seconds"), nullptr);
  EXPECT_FALSE(stats.request_id.empty())
      << "every response must carry a request_id";

  WireRequest malformed;
  malformed.op = "predict";  // empty selection → server-side error response
  malformed.select = {static_cast<std::uint32_t>(circuit_->size() + 9)};
  const auto error = client.call(malformed);
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.status, "error");

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ConcurrentClientsMatchSerialBitForBit) {
  // Serial reference pass first.
  auto estimator = core::RuntimeEstimator::from_file(model_path_);
  estimator.set_circuit(*circuit_);
  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  std::vector<std::vector<std::vector<GateId>>> selections(kClients);
  std::vector<std::vector<double>> expected(kClients);
  std::mt19937_64 rng(13);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      std::vector<GateId> sel;
      for (std::size_t g = 0; g < static_cast<std::size_t>(1 + (c + i) % 4); ++g) {
        sel.push_back(static_cast<GateId>(rng() % circuit_->size()));
      }
      expected[c].push_back(estimator.predict_log_runtime(sel));
      selections[c].push_back(std::move(sel));
    }
  }

  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions engine_options;
  engine_options.jobs = 4;
  engine_options.max_batch = 8;
  InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  std::vector<std::vector<double>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      // Pipeline all requests on the connection, then read the answers in
      // order — maximizes cross-client interleaving in the micro-batcher.
      for (int i = 0; i < kPerClient; ++i) {
        WireRequest request;
        request.select.assign(selections[c][i].begin(),
                              selections[c][i].end());
        client.send(request);
      }
      for (int i = 0; i < kPerClient; ++i) {
        const auto response = client.receive();
        ASSERT_TRUE(response.ok) << response.error;
        got[c].push_back(response.log_runtime);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size());
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(got[c][i], expected[c][i])
          << "client " << c << " request " << i
          << " diverged from the serial reference";
    }
  }

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ServerAnswersHealthAndPrometheusStats) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  // One prediction so the serve.request_seconds histogram is non-empty.
  WireRequest predict;
  predict.select = {3, 9};
  ASSERT_TRUE(client.call(predict).ok);

  const auto health = client.health();
  EXPECT_TRUE(health.ok);
  ASSERT_NE(health.raw.find("ready"), nullptr);
  EXPECT_TRUE(health.raw.find("ready")->as_bool())
      << "a server with a loaded model and empty queue is ready";
  ASSERT_NE(health.raw.find("models"), nullptr);
  EXPECT_EQ(health.raw.find("models")->items().size(), 1u);
  ASSERT_NE(health.raw.find("max_queue"), nullptr);
  EXPECT_GT(health.raw.find("max_queue")->as_number(), 0.0);
  ASSERT_NE(health.raw.find("version"), nullptr);
  EXPECT_FALSE(health.raw.find("version")->as_string().empty());

  const auto prom = client.stats("prometheus");
  EXPECT_TRUE(prom.ok);
  ASSERT_NE(prom.raw.find("prometheus"), nullptr);
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("# TYPE serve_request_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_request_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, RequestIdsAreEchoedAndAssigned) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  // A client-chosen id comes back verbatim on every op.
  WireRequest predict;
  predict.select = {1, 5};
  predict.request_id = "trace-me-7";
  EXPECT_EQ(client.call(predict).request_id, "trace-me-7");
  WireRequest ping;
  ping.op = "ping";
  ping.request_id = "ping-1";
  EXPECT_EQ(client.call(ping).request_id, "ping-1");

  // Without one, the server assigns distinct non-empty ids.
  predict.request_id.clear();
  const auto first = client.call(predict);
  const auto second = client.call(predict);
  EXPECT_FALSE(first.request_id.empty());
  EXPECT_FALSE(second.request_id.empty());
  EXPECT_NE(first.request_id, second.request_id);

  // The engine API echoes ids the same way.
  PredictRequest direct;
  direct.selection = {2, 6};
  direct.request_id = "engine-9";
  EXPECT_EQ(engine.predict(direct).request_id, "engine-9");
  direct.request_id.clear();
  EXPECT_FALSE(engine.predict(direct).request_id.empty());

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ServerAssignedRequestIdsAreUniqueAcrossOps) {
  // Handler ops and admin ops take ids from one counter, numbered from 1.
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  Server server(engine, registry);
  server.register_op(
      "search", [](const WireRequest& request,
                   std::function<void(std::string)> respond) {
        JsonValue resp = JsonValue::object();
        resp.set("op", JsonValue::string("search"));
        resp.set("ok", JsonValue::boolean(true));
        resp.set("request_id", JsonValue::string(request.request_id));
        respond(resp.dump());
      });
  server.start();

  Client client("127.0.0.1", server.port());
  std::vector<std::string> ids;
  for (const char* op : {"search", "ping", "search", "ping"}) {
    WireRequest request;
    request.op = op;
    const auto response = client.call(request);
    EXPECT_TRUE(response.ok) << response.error;
    ids.push_back(response.request_id);
  }
  EXPECT_EQ(ids, (std::vector<std::string>{"s-1", "s-2", "s-3", "s-4"}));

  client.close();
  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, ProfileOpStartsStopsAndDumpsOverTheWire) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());

  WireRequest start;
  start.op = "profile";
  start.action = "start";
  start.hz = 997;
  auto response = client.call(start);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("started"), nullptr);
  EXPECT_TRUE(response.raw.find("started")->as_bool());
  ASSERT_NE(response.raw.find("running"), nullptr);
  EXPECT_TRUE(response.raw.find("running")->as_bool());

  // A second start reports the in-flight session instead of clobbering it.
  response = client.call(start);
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.raw.find("started")->as_bool());
  ASSERT_NE(response.raw.find("error"), nullptr);

  // Some work while the profiler samples.
  WireRequest predict;
  predict.select = {3, 9, 17};
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(client.call(predict).ok);

  WireRequest dump;
  dump.op = "profile";
  dump.action = "dump";
  response = client.call(dump);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("folded"), nullptr)
      << "dump must return the folded capture";
  ASSERT_NE(response.raw.find("samples"), nullptr);
  EXPECT_FALSE(response.raw.find("running")->as_bool())
      << "dump stops a live session";

  // Stop after dump is a polite no-op.
  WireRequest stop;
  stop.op = "profile";
  stop.action = "stop";
  response = client.call(stop);
  ASSERT_TRUE(response.ok);
  EXPECT_FALSE(response.raw.find("stopped")->as_bool());

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, TracesOpReportsStageAttributedTimelines) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions engine_options;
  engine_options.jobs = 2;
  InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  WireRequest predict;
  predict.select = {3, 9, 17};
  predict.request_id = "timeline-probe";
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(client.call(predict).ok);

  WireRequest traces;
  traces.op = "traces";
  const auto response = client.call(traces);
  ASSERT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.raw.find("recorded"), nullptr);
  EXPECT_GE(response.raw.find("recorded")->as_number(), 8.0);
  const auto* entries = response.raw.find("traces");
  ASSERT_NE(entries, nullptr);
  ASSERT_FALSE(entries->items().empty());

  bool saw_probe = false;
  bool saw_forward_split = false;
  for (const auto& entry : entries->items()) {
    ASSERT_NE(entry.find("request_id"), nullptr);
    if (entry.find("request_id")->as_string() == "timeline-probe") {
      saw_probe = true;
    }
    // Fingerprints travel as exact hex strings, not lossy JSON doubles.
    ASSERT_NE(entry.find("fingerprint"), nullptr);
    const std::string fingerprint = entry.find("fingerprint")->as_string();
    ASSERT_EQ(fingerprint.size(), 18u) << fingerprint;
    EXPECT_EQ(fingerprint.substr(0, 2), "0x");
    ASSERT_NE(entry.find("batch_size"), nullptr);
    EXPECT_GE(entry.find("batch_size")->as_number(), 1.0);
    ASSERT_NE(entry.find("total_seconds"), nullptr);
    EXPECT_GE(entry.find("total_seconds")->as_number(), 0.0);

    // Stages are listed in pipeline order with monotonically non-decreasing
    // completion timestamps, and the forward pass is split into its
    // spmm / dense / readout phases.
    const auto* stages = entry.find("stages");
    ASSERT_NE(stages, nullptr);
    double last_ts = 0.0;
    bool spmm = false, dense = false, readout = false;
    for (const auto& stage : stages->items()) {
      ASSERT_NE(stage.find("stage"), nullptr);
      ASSERT_NE(stage.find("ts_us"), nullptr);
      ASSERT_NE(stage.find("dur_us"), nullptr);
      const double ts = stage.find("ts_us")->as_number();
      EXPECT_GE(ts, last_ts) << "stage completion times must be monotonic";
      last_ts = ts;
      EXPECT_GE(stage.find("dur_us")->as_number(), 0.0);
      const std::string name = stage.find("stage")->as_string();
      spmm |= name == "spmm";
      dense |= name == "dense";
      readout |= name == "readout";
    }
    saw_forward_split |= spmm && dense && readout;
  }
  EXPECT_TRUE(saw_probe) << "the probed request must be retained";
  EXPECT_TRUE(saw_forward_split)
      << "timelines must attribute the forward pass to spmm/dense/readout";

  // The same stage split feeds the Prometheus exposition.
  const auto prom = client.stats("prometheus");
  ASSERT_TRUE(prom.ok);
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("serve_stage_spmm_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_stage_dense_seconds_count"), std::string::npos);
  EXPECT_NE(text.find("serve_stage_readout_seconds_count"),
            std::string::npos);
  EXPECT_NE(text.find("serve_stage_queue_seconds_count"), std::string::npos);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, MalformedLinesCountWireErrors) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  auto& wire_errors =
      telemetry::MetricsRegistry::global().counter("serve.wire_errors");
  const auto before = wire_errors.value();

  Client client("127.0.0.1", server.port());
  // A stats request with a format the server-side parser rejects:
  // parse_request throws → error response + serve.wire_errors increment.
  WireRequest bad_stats;
  bad_stats.op = "stats";
  bad_stats.format = "xml";
  const auto response = client.call(bad_stats);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, "error");
  EXPECT_GT(wire_errors.value(), before);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, OverlongUnterminatedLineIsAnsweredAndClosed) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  auto& wire_errors =
      telemetry::MetricsRegistry::global().counter("serve.wire_errors");
  const auto before = wire_errors.value();

  // A peer that streams 2 MiB and never sends a newline.
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};  // a server that never answers fails, not hangs
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const std::string junk(64 * 1024, 'x');
  for (std::size_t sent = 0; sent < 2 * 1024 * 1024;) {
    const ssize_t n = ::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the server hung up mid-stream
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  const int recv_errno = errno;
  ::close(fd);

  EXPECT_TRUE(n == 0 || recv_errno == ECONNRESET)
      << "server did not close the connection: " << std::strerror(recv_errno);
  ASSERT_FALSE(received.empty());
  EXPECT_EQ(received.find('\n'), received.size() - 1) << "exactly one line";
  const WireResponse response = parse_response(received);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, "error");
  EXPECT_NE(response.error.find("exceeds 1048576 bytes"), std::string::npos)
      << response.error;
  EXPECT_EQ(wire_errors.value(), before + 1);

  // Every other client is still served.
  Client client("127.0.0.1", server.port());
  EXPECT_TRUE(client.ping().ok);
  WireRequest request;
  request.select = {2, 4};
  EXPECT_TRUE(client.call(request).ok);

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, UnparsableLineIsAnsweredAndTheConnectionLives) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  auto& wire_errors =
      telemetry::MetricsRegistry::global().counter("serve.wire_errors");
  // 50 KB of '[' — far under the line cap, far over any sane nesting; and a
  // number past the largest double.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"op":"predict","select":[1],"x":)" + std::string(50000, '['),
       "nesting"},
      {R"({"op":"ping","id":1e999})",
       "JSON parse error at byte 18: number out of range"}};
  for (const auto& [line, message] : cases) {
    const auto before = wire_errors.value();
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    const timeval timeout{10, 0};  // a server that never answers fails, not hangs
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const std::string lines = line + "\n" + R"({"op":"ping","id":2})" + "\n";
    for (std::size_t sent = 0; sent < lines.size();) {
      const ssize_t n = ::send(fd, lines.data() + sent, lines.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
    std::string received;
    char buf[4096];
    while (std::count(received.begin(), received.end(), '\n') < 2) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0) << "connection lost after " << received.size() << " bytes";
      received.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    const std::size_t nl = received.find('\n');
    const WireResponse error = parse_response(received.substr(0, nl));
    EXPECT_FALSE(error.ok);
    EXPECT_EQ(error.status, "error");
    EXPECT_NE(error.error.find(message), std::string::npos) << error.error;
    const WireResponse ping =
        parse_response(received.substr(nl + 1, received.size() - nl - 2));
    EXPECT_TRUE(ping.ok);
    EXPECT_EQ(ping.id, 2u);
    EXPECT_EQ(wire_errors.value(), before + 1);
  }

  server.shutdown();
  engine.stop();
}

TEST_F(ServeTest, PeerThatNeverReadsStallsAndThenGetsEveryAnswerInOrder) {
  // Two inputs. Plain: the peer's answers pile up unsent. Held: its first
  // line is an op whose handler answers only after the stall, so every
  // predict answer waits behind it, ready but not yet sendable.
  for (const bool held : {false, true}) {
    SCOPED_TRACE(held ? "answers held behind a slow op" : "answers unsent");
    ModelRegistry registry;
    registry.load("default", model_path_);
    InferenceEngine engine(registry, {});
    engine.register_circuit("default", circuit_);
    Server server(engine, registry, {});
    std::promise<std::function<void(std::string)>> slow_op;
    if (held) {
      server.register_op("search", [&slow_op](const WireRequest&,
                                              std::function<void(std::string)>
                                                  respond) {
        slow_op.set_value(std::move(respond));
      });
    }
    server.start();

    // The peer pipelines predicts and reads nothing. Once it owes more than a
    // bounded amount of answers the server stops reading it, so the peer's
    // sends stall: it cannot make the server hold as much as it sends.
    constexpr std::size_t kLimit = std::size_t{32} << 20;
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    std::uint64_t next_id = held ? 1 : 0;
    std::string unsent = held ? R"({"op":"search","id":0})" "\n" : "";
    std::size_t sent = 0;
    std::uint64_t lines_sent = 0;  // whole lines, newline included
    bool mid_line = false;         // the last send ended inside a line
    auto last_progress = std::chrono::steady_clock::now();
    while (sent < kLimit) {
      if (unsent.empty()) {
        for (int i = 0; i < 256; ++i) {
          unsent += R"({"op":"predict","select":[2,4,9],"id":)" +
                    std::to_string(next_id++) + "}\n";
        }
      }
      const ssize_t n = ::send(fd, unsent.data(), unsent.size(), MSG_NOSIGNAL);
      if (n > 0) {
        const auto bytes = static_cast<std::size_t>(n);
        lines_sent += static_cast<std::uint64_t>(
            std::count(unsent.begin(), unsent.begin() + n, '\n'));
        mid_line = unsent[bytes - 1] != '\n';
        unsent.erase(0, bytes);
        sent += bytes;
        last_progress = std::chrono::steady_clock::now();
        continue;
      }
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
          << std::strerror(errno);
      if (std::chrono::steady_clock::now() - last_progress >
          std::chrono::seconds(1)) {
        break;  // stalled
      }
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
    }
    EXPECT_LT(sent, kLimit)
        << "the server kept reading a peer that never reads";
    EXPECT_GT(lines_sent, 0u);

    // Another client is served meanwhile. Its predict may find the engine
    // queue still full of the stalled peer's requests; those drain, since the
    // server reads no more of them.
    {
      Client other("127.0.0.1", server.port());
      EXPECT_TRUE(other.ping().ok);
      WireRequest request;
      request.select = {2, 4};
      bool served = false;
      for (int attempt = 0; attempt < 100 && !served; ++attempt) {
        const WireResponse response = other.call(request);
        served = response.ok;
        if (!served) {
          ASSERT_EQ(response.status, "rejected") << response.error;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }
      EXPECT_TRUE(served);
    }
    if (held) {
      slow_op.get_future().get()(R"({"id":0,"ok":true,"op":"search"})");
    }

    // Draining resumes reading. The peer finishes the line it was cut off in
    // and reads; every request it sent gets its answer, in order.
    std::string tail =
        mid_line ? unsent.substr(0, unsent.find('\n') + 1) : std::string();
    const std::uint64_t expected = lines_sent + (mid_line ? 1 : 0);
    std::uint64_t answers = 0;
    std::uint64_t misordered = 0;
    std::string received;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (answers < expected && std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd, static_cast<short>(POLLIN | (tail.empty() ? 0 : POLLOUT)),
                 0};
      ::poll(&pfd, 1, 100);
      if ((pfd.revents & POLLOUT) != 0) {
        const ssize_t n = ::send(fd, tail.data(), tail.size(), MSG_NOSIGNAL);
        if (n > 0) tail.erase(0, static_cast<std::size_t>(n));
      }
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) break;
      if (n < 0) continue;
      received.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl;
           (nl = received.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const WireResponse response =
            parse_response(received.substr(start, nl - start));
        if (!response.has_id || response.id != answers) ++misordered;
        ++answers;
      }
      received.erase(0, start);
    }
    ::close(fd);
    EXPECT_EQ(answers, expected);
    EXPECT_EQ(misordered, 0u);

    server.shutdown();
    engine.stop();
  }
}

TEST_F(ServeTest, RemoteShutdownDrainsGracefully) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();
  const int port = server.port();

  Client worker("127.0.0.1", port);
  WireRequest request;
  request.select = {2, 4};
  EXPECT_TRUE(worker.call(request).ok);

  Client controller("127.0.0.1", port);
  EXPECT_TRUE(controller.shutdown_server().ok);
  server.wait();      // returns because the remote shutdown was requested
  server.shutdown();  // joins handlers, drains the engine
  EXPECT_FALSE(server.running());
  engine.stop();

  // The listener is gone: new connections must fail.
  EXPECT_THROW(Client("127.0.0.1", port), std::exception);
}

TEST_F(ServeTest, StatsOmitsLatencyQuantilesUntilFirstSample) {
  // The registry is process-global and earlier tests already served requests;
  // reset it so serve.request_seconds is genuinely empty again.
  telemetry::MetricsRegistry::global().reset();

  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  const auto empty = client.stats();
  EXPECT_TRUE(empty.ok);
  // Quantiles of an empty histogram are undefined: the fields must be
  // absent, not 0.0 (a fake zero would poison dashboards and alerts).
  EXPECT_EQ(empty.raw.find("p50_latency_seconds"), nullptr);
  EXPECT_EQ(empty.raw.find("p99_latency_seconds"), nullptr);

  WireRequest predict;
  predict.select = {3, 9};
  ASSERT_TRUE(client.call(predict).ok);
  const auto after = client.stats();
  ASSERT_NE(after.raw.find("p50_latency_seconds"), nullptr);
  ASSERT_NE(after.raw.find("p99_latency_seconds"), nullptr);
  EXPECT_GT(after.raw.find("p99_latency_seconds")->as_number(), 0.0);

  server.shutdown();
  engine.stop();
}

#if defined(__linux__)
TEST_F(ServeTest, StatsAndHealthCarryProcessStats) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  InferenceEngine engine(registry, {});
  engine.register_circuit("default", circuit_);
  Server server(engine, registry, {});
  server.start();

  Client client("127.0.0.1", server.port());
  const auto stats = client.stats();
  ASSERT_NE(stats.raw.find("process_rss_bytes"), nullptr);
  EXPECT_GT(stats.raw.find("process_rss_bytes")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("process_threads"), nullptr);
  EXPECT_GE(stats.raw.find("process_threads")->as_number(), 1.0);
  ASSERT_NE(stats.raw.find("process_open_fds"), nullptr);
  EXPECT_GT(stats.raw.find("process_open_fds")->as_number(), 0.0);
  ASSERT_NE(stats.raw.find("process_cpu_seconds"), nullptr);

  const auto health = client.health();
  ASSERT_NE(health.raw.find("rss_bytes"), nullptr);
  EXPECT_GT(health.raw.find("rss_bytes")->as_number(), 0.0);

  // The same sampling feeds the shared Prometheus exposition.
  const auto prom = client.stats("prometheus");
  const std::string text = prom.raw.find("prometheus")->as_string();
  EXPECT_NE(text.find("process_resident_memory_bytes"), std::string::npos);
  EXPECT_NE(text.find("process_open_fds"), std::string::npos);

  server.shutdown();
  engine.stop();
}
#endif

// ---- Engine workers ---------------------------------------------------------

TEST_F(ServeTest, SubmitAsyncCompletesViaCallback) {
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 2;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  std::promise<PredictResult> done;
  engine.submit_async(request_for({1, 2}), [&done](PredictResult result) {
    done.set_value(std::move(result));
  });
  const auto result = done.get_future().get();
  EXPECT_EQ(result.status, RequestStatus::Ok) << result.error;
  EXPECT_GT(result.seconds, 0.0);

  // After stop() the rejection callback fires inline on the submitting
  // thread — the event loop depends on the callback always firing.
  engine.stop();
  bool rejected_inline = false;
  engine.submit_async(request_for({1, 2}), [&](PredictResult result) {
    rejected_inline = result.status == RequestStatus::Rejected;
  });
  EXPECT_TRUE(rejected_inline);
}

TEST_F(ServeTest, WorkersTakeFairSharesOfTheQueue) {
  // 64 queued requests over 4 workers: each pop takes at most a quarter of
  // what is queued, so the burst spreads over several pops instead of
  // filling one max_batch (32) pop while the other workers idle.
  ModelRegistry registry;
  registry.load("default", model_path_);
  EngineOptions options;
  options.jobs = 4;
  InferenceEngine engine(registry, options);
  engine.register_circuit("default", circuit_);

  engine.set_paused(true);
  std::vector<std::future<PredictResult>> futures;
  for (GateId g = 0; g < 64; ++g) {
    futures.push_back(engine.submit(request_for({g})));
  }
  ASSERT_EQ(engine.queue_depth(), 64u);
  auto& pops =
      telemetry::MetricsRegistry::global().histogram("serve.batch_size");
  pops.reset();
  engine.set_paused(false);
  for (auto& f : futures) EXPECT_EQ(f.get().status, RequestStatus::Ok);
  EXPECT_GE(pops.count(), 4u);
  EXPECT_LE(pops.max(), 16.0);
}

TEST_F(ServeTest, CrossJobsResponsesAreByteIdentical) {
  // The same pipelined request stream must produce byte-identical response
  // bytes at jobs=1 and jobs=4 — the worker decides WHERE a request
  // computes, never WHAT it answers (DESIGN.md §13). request_ids are
  // client-supplied so the engine's r-<n> counter cannot differ between
  // configurations.
  constexpr int kRequests = 32;
  std::string stream;
  std::mt19937_64 rng(29);
  for (int i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.id = static_cast<std::uint64_t>(i);
    request.has_id = true;
    request.request_id = "q-" + std::to_string(i);
    const std::size_t count = 1 + i % 5;
    for (std::size_t g = 0; g < count; ++g) {
      request.select.push_back(
          static_cast<std::uint32_t>(rng() % circuit_->size()));
    }
    stream += encode_request(request);
    stream += '\n';
  }

  const auto serve_stream = [&](std::size_t jobs) {
    ModelRegistry registry;
    registry.load("default", model_path_);
    EngineOptions engine_options;
    engine_options.jobs = jobs;
    engine_options.max_batch = 8;
    InferenceEngine engine(registry, engine_options);
    engine.register_circuit("default", circuit_);
    Server server(engine, registry, {});
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::size_t sent = 0;
    while (sent < stream.size()) {
      const ssize_t n =
          ::send(fd, stream.data() + sent, stream.size() - sent, 0);
      if (n <= 0) {
        ADD_FAILURE() << "send failed";
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    std::string bytes;
    int newlines = 0;
    char chunk[4096];
    while (newlines < kRequests) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed before all responses arrived";
        break;
      }
      for (ssize_t j = 0; j < n; ++j) {
        if (chunk[j] == '\n') ++newlines;
      }
      bytes.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    server.shutdown();
    engine.stop();
    return bytes;
  };

  std::string serial;
  serve_stream(1).swap(serial);
  std::string parallel;
  serve_stream(4).swap(parallel);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel)
      << "jobs=4 responses diverged from the serial path";
  // Responses come back in request order: the i-th line echoes q-<i>.
  std::size_t pos = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t nl = serial.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    const std::string line = serial.substr(pos, nl - pos);
    EXPECT_NE(line.find("\"q-" + std::to_string(i) + "\""), std::string::npos)
        << "response " << i << " out of order: " << line;
    pos = nl + 1;
  }
}

TEST(ClientTimeout, RefusedConnectionRaisesConnectionError) {
  // Bind-then-close: the port was just free, so connecting is refused fast.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  EXPECT_THROW(Client("127.0.0.1", port), ConnectionError);
}

TEST(ClientTimeout, HungServerRaisesConnectionErrorInsteadOfBlocking) {
  // A listener that never accepts: the kernel completes the TCP handshake
  // into the backlog, so connect succeeds but no response ever arrives —
  // exactly the "hung server" a probe must not block on.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 100;
  Client client("127.0.0.1", ntohs(addr.sin_port), options);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(client.ping(), ConnectionError);
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000)
      << "the IO timeout must bound the wait";
  ::close(listener);
}

}  // namespace
}  // namespace ic::serve

// Policy-search coverage (DESIGN.md §14): shared selection parsing, the
// fitness oracle and its batching proof, greedy+SA determinism at any jobs,
// objective penalties, report rendering, the one options format
// (options_to_json / options_from_json), and the {"op":"search"} wire path
// matching the in-process path byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ic/core/estimator.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/locking/anti_sat.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/search/report.hpp"
#include "ic/search/search.hpp"
#include "ic/search/selection.hpp"
#include "ic/search/service.hpp"
#include "ic/serve/serve.hpp"
#include "ic/support/metrics.hpp"

namespace ic::search {
namespace {

using circuit::GateId;
using circuit::Netlist;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "search_" + name;
}

Netlist test_circuit() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 64;
  spec.seed = 42;
  return circuit::generate_circuit(spec, "search");
}

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

void write_model(const std::string& path,
                 std::shared_ptr<const Netlist> circuit, std::uint64_t seed) {
  core::EstimatorOptions options;
  options.hidden = {6, 4};
  options.seed = seed;
  options.train.max_epochs = 5;
  core::RuntimeEstimator estimator(options);
  estimator.fit(synthetic_dataset(std::move(circuit), seed));
  estimator.save(path);
}

SearchOptions small_options() {
  SearchOptions options;
  options.budget = 3;
  options.scheme = LockScheme::Xor;
  options.greedy_steps = 3;
  options.sa_steps = 3;
  options.neighbors = 4;
  options.top_k = 2;
  options.seed = 7;
  options.verify_max_conflicts = 20000;
  return options;
}

class SearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    circuit_ = std::make_shared<const Netlist>(test_circuit());
    model_path_ = temp_path("model.txt");
    write_model(model_path_, circuit_, 1);
  }
  static void TearDownTestSuite() { circuit_.reset(); }

  /// Run the small search through an engine with the given parallelism.
  static SearchReport run_search(std::size_t jobs, SearchOptions options) {
    serve::ModelRegistry registry;
    registry.load("default", model_path_);
    serve::EngineOptions engine_options;
    engine_options.jobs = jobs;
    serve::InferenceEngine engine(registry, engine_options);
    engine.register_circuit("default", circuit_);
    EngineOracle oracle(engine);
    return policy_search(*circuit_, oracle, options);
  }

  static std::shared_ptr<const Netlist> circuit_;
  static std::string model_path_;
};

std::shared_ptr<const Netlist> SearchTest::circuit_;
std::string SearchTest::model_path_;

// ---- selection parsing (shared with icnet_cli) ------------------------------

TEST(SelectionParse, AcceptsCommaAndWhitespaceSeparators) {
  EXPECT_EQ(parse_selection("1,2,3"), (std::vector<GateId>{1, 2, 3}));
  EXPECT_EQ(parse_selection(" 4 5\t6\r"), (std::vector<GateId>{4, 5, 6}));
  EXPECT_EQ(parse_selection(""), std::vector<GateId>{});
}

TEST(SelectionParse, RejectsNonNumericTokensByName) {
  try {
    parse_selection("1,x7,3");
    FAIL() << "expected a parse error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("'x7' is not a gate id"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_selection("-1"), std::runtime_error);
  EXPECT_THROW(parse_selection("4294967296"), std::runtime_error)
      << "must reject values that would truncate to 32 bits";
}

TEST(SelectionParse, CheckRejectsOutOfRangeAndDuplicatesWithContext) {
  const Netlist circuit = test_circuit();
  check_selection({0, 1, 2}, circuit);  // no throw
  try {
    check_selection({0, static_cast<GateId>(circuit.size())}, circuit,
                    "selection file line 3");
    FAIL() << "expected an out-of-range error";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("selection file line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  try {
    check_selection({5, 9, 5}, circuit, "selection file line 7");
    FAIL() << "expected a duplicate error";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("selection file line 7"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate gate id 5"), std::string::npos) << what;
  }
}

// ---- objective pieces -------------------------------------------------------

TEST(KeyBits, PerScheme) {
  // The area term must count the key inputs the verification lock adds.
  // g = AND(a, b) has two predecessors, so its LUT pads to 2 inputs, not 4.
  Netlist and2("and2");
  const GateId a = and2.add_input("a");
  const GateId b = and2.add_input("b");
  and2.mark_output(and2.add_gate(circuit::GateKind::And, {a, b}, "g"));
  const Netlist generated = test_circuit();
  const struct {
    const Netlist& circuit;
    std::vector<GateId> selection;
  } cases[] = {{generated, {40, 50, 60}},
               {generated, {12}},
               {generated, {15, 33, 63}},
               {and2, {2}}};
  for (const auto& [circuit, selection] : cases) {
    SCOPED_TRACE(circuit.name() + " selection of " +
                 std::to_string(selection.size()));
    EXPECT_EQ(key_bits_for(LockScheme::Lut4, selection, circuit, 3),
              locking::lut_lock(circuit, selection, 5).locked.num_keys());
    EXPECT_EQ(key_bits_for(LockScheme::Xor, selection, circuit, 3),
              locking::xor_lock(circuit, selection, 5).locked.num_keys());
    for (const std::size_t width : {2u, 6u}) {
      if (width > circuit.num_inputs()) continue;  // Anti-SAT taps inputs
      EXPECT_EQ(key_bits_for(LockScheme::AntiSat, selection, circuit, width),
                locking::anti_sat_lock(circuit, selection[0], {width, 5})
                    .locked.num_keys());
    }
  }
}

// ---- oracles ----------------------------------------------------------------

TEST_F(SearchTest, EngineOracleBatchMatchesSinglePredictions) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  EngineOracle oracle(engine);

  const std::vector<std::vector<GateId>> selections{
      {1, 2, 3}, {10, 20}, {7}, {30, 31, 32, 33}};
  auto& metrics = telemetry::MetricsRegistry::global();
  const auto calls_before = metrics.counter("search.oracle_calls").value();
  const auto batches_before = metrics.counter("search.oracle_batches").value();
  const auto out = oracle.predict_log_batch(selections);
  EXPECT_EQ(metrics.counter("search.oracle_calls").value(),
            calls_before + selections.size());
  EXPECT_EQ(metrics.counter("search.oracle_batches").value(),
            batches_before + 1);

  ASSERT_EQ(out.size(), selections.size());
  for (std::size_t i = 0; i < selections.size(); ++i) {
    serve::PredictRequest request;
    request.selection = selections[i];
    const auto single = engine.predict(std::move(request));
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(out[i], single.log_runtime) << "batch vs single, index " << i;
  }
}

TEST_F(SearchTest, EngineOracleThrowsOnUnknownModel) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  EngineOracle oracle(engine, "nope");
  EXPECT_THROW(oracle.predict_log_batch({{1, 2}}), std::runtime_error);
}

// ---- the search itself ------------------------------------------------------

TEST_F(SearchTest, SearchScoresNeighborhoodsInBatches) {
  const SearchOptions options = small_options();
  const SearchReport report = run_search(0, options);

  const std::size_t total_steps = options.greedy_steps + options.sa_steps;
  EXPECT_EQ(report.steps.size(), total_steps);
  // One batch for the initial selection, one per step.
  EXPECT_EQ(report.oracle_batches, total_steps + 1);
  EXPECT_EQ(report.oracle_calls, 1 + total_steps * options.neighbors);
  EXPECT_LT(report.oracle_batches, report.oracle_calls)
      << "candidates must be scored in bulk, not one by one";

  EXPECT_EQ(report.steps.front().phase, "greedy");
  EXPECT_EQ(report.steps.back().phase, "sa");
  EXPECT_EQ(report.best_selection.size(), options.budget);
  EXPECT_TRUE(std::is_sorted(report.best_selection.begin(),
                             report.best_selection.end()));

  ASSERT_EQ(report.verified.size(), options.top_k);
  EXPECT_GE(report.verified[0].objective, report.verified[1].objective);
  EXPECT_EQ(report.verified[0].objective, report.best_objective);
  for (const auto& v : report.verified) {
    EXPECT_GT(v.actual_seconds, 0.0);
    EXPECT_EQ(v.key_bits, options.budget);  // xor: one bit per gate
  }
}

TEST_F(SearchTest, ReportIsByteIdenticalAcrossJobs) {
  const SearchOptions options = small_options();
  const std::string baseline =
      report_to_json(run_search(0, options)).dump();
  EXPECT_EQ(report_to_json(run_search(4, options)).dump(), baseline)
      << "jobs must not change the report";
}

TEST_F(SearchTest, AreaPenaltyIsAppliedToTheObjective) {
  SearchOptions options = small_options();
  options.top_k = 0;
  options.objective.area_weight = 0.5;
  const SearchReport report = run_search(0, options);
  const std::size_t key_bits = key_bits_for(
      options.scheme, report.best_selection, *circuit_, options.budget);
  EXPECT_DOUBLE_EQ(
      report.best_objective,
      report.best_predicted_log_runtime - 0.5 * static_cast<double>(key_bits));
}

TEST_F(SearchTest, AntiSatSchemeSearchesSingleTargetWire) {
  SearchOptions options = small_options();
  options.scheme = LockScheme::AntiSat;
  options.budget = 3;  // AND-tree width
  options.top_k = 1;
  const SearchReport report = run_search(0, options);
  EXPECT_EQ(report.best_selection.size(), 1u);
  ASSERT_EQ(report.verified.size(), 1u);
  EXPECT_EQ(report.verified[0].key_bits, 6u);  // 2 * width
}

TEST_F(SearchTest, InfeasibleOptionsThrow) {
  SearchOptions options = small_options();
  options.neighbors = 0;
  EXPECT_THROW(run_search(0, options), std::runtime_error);
  options = small_options();
  options.budget = circuit_->size();  // larger than the lockable pool
  EXPECT_THROW(run_search(0, options), std::runtime_error);
}

// ---- report rendering -------------------------------------------------------

TEST_F(SearchTest, ReportJsonRoundTripsThroughParse) {
  SearchOptions options = small_options();
  options.top_k = 1;
  const SearchReport report = run_search(0, options);
  const serve::JsonValue doc = report_to_json(report);
  EXPECT_EQ(doc.find("doc")->as_string(), "icnet_search_report");
  EXPECT_EQ(doc.find("schema")->as_number(), 1.0);
  EXPECT_EQ(serve::JsonValue::parse(doc.dump()).dump(), doc.dump());
}

// ---- wire plumbing ----------------------------------------------------------

TEST(SearchWire, RequestRoundTripsThroughEncodeAndParse) {
  serve::WireRequest request;
  request.op = "search";
  request.circuit = "c";
  request.search.set("budget", serve::JsonValue::number(5));
  request.search.set("scheme", serve::JsonValue::string("antisat"));
  request.search.set("sa_cooling", serve::JsonValue::number(0.75));
  request.search.set("seed", serve::JsonValue::number(99));
  const serve::WireRequest parsed =
      serve::parse_request(serve::encode_request(request));
  EXPECT_EQ(parsed.op, "search");
  EXPECT_EQ(parsed.circuit, "c");
  EXPECT_EQ(parsed.search.dump(), request.search.dump());
  // A search without a "search" object carries an empty one.
  EXPECT_EQ(serve::parse_request(R"({"op":"search"})").search.dump(), "{}");
}

TEST(SearchWire, OptionsRoundTripThroughJson) {
  SearchOptions options;
  options.budget = 4;
  options.scheme = LockScheme::Xor;
  options.greedy_steps = 2;
  options.sa_steps = 5;
  options.neighbors = 6;
  options.top_k = 1;
  options.seed = 11;
  options.objective.area_weight = 0.25;
  options.objective.depth_weight = 0.125;
  options.sa_initial_temp = 2.0;
  options.sa_cooling = 0.5;
  options.verify_max_conflicts = 1234;
  const SearchOptions back = options_from_json(options_to_json(options));
  EXPECT_EQ(back.budget, 4u);
  EXPECT_EQ(back.scheme, LockScheme::Xor);
  EXPECT_EQ(back.greedy_steps, 2u);
  EXPECT_EQ(back.sa_steps, 5u);
  EXPECT_EQ(back.neighbors, 6u);
  EXPECT_EQ(back.top_k, 1u);
  EXPECT_EQ(back.seed, 11u);
  EXPECT_EQ(back.objective.area_weight, 0.25);
  EXPECT_EQ(back.objective.depth_weight, 0.125);
  EXPECT_EQ(back.sa_initial_temp, 2.0);
  EXPECT_EQ(back.sa_cooling, 0.5);
  EXPECT_EQ(back.verify_max_conflicts, 1234u);
  EXPECT_EQ(options_to_json(back).dump(), options_to_json(options).dump());

  // Absent keys keep their defaults.
  const SearchOptions partial = options_from_json(
      serve::JsonValue::parse(R"({"budget":5,"scheme":"antisat"})"));
  EXPECT_EQ(partial.budget, 5u);
  EXPECT_EQ(partial.scheme, LockScheme::AntiSat);
  EXPECT_EQ(partial.greedy_steps, 16u);
  EXPECT_EQ(partial.verify_max_conflicts, 200000u);
  const SearchOptions empty = options_from_json(serve::JsonValue::object());
  EXPECT_EQ(options_to_json(empty).dump(),
            options_to_json(SearchOptions{}).dump());
}

TEST(SearchWire, ParserRejectsBadParams) {
  // The wire only checks that "search" is an object; its fields are the
  // search service's to check.
  EXPECT_THROW(serve::parse_request(R"({"op":"search","search":[1]})"),
               std::runtime_error);
  EXPECT_NO_THROW(
      serve::parse_request(R"({"op":"search","search":{"scheme":"rot13"}})"));
  const auto rejects = [](const char* search, const char* message) {
    try {
      options_from_json(serve::JsonValue::parse(search));
      ADD_FAILURE() << "accepted " << search;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  rejects(R"({"scheme":"rot13"})", "unknown lock scheme 'rot13'");
  rejects(R"({"budget":-3})",
          "search field 'budget' must be a non-negative integer");
  rejects(R"({"top_k":1.5})",
          "search field 'top_k' must be a non-negative integer");
  rejects(R"({"seed":9007199254740994})",
          "search field 'seed' must be a non-negative integer");
  rejects(R"({"sa_cooling":"fast"})", "not a number");
  rejects(R"({"scheme":4})", "not a string");
  rejects("[1]", "the 'search' field must be a JSON object");
}

TEST_F(SearchTest, WireSearchMatchesInProcessByteForByte) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::EngineOptions engine_options;
  engine_options.jobs = 2;
  serve::InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  SearchService service(engine);
  serve::Server server(engine, registry);
  service.install(server);
  server.start();

  SearchOptions options;
  options.budget = 3;
  options.scheme = LockScheme::Xor;
  options.greedy_steps = 2;
  options.sa_steps = 2;
  options.neighbors = 3;
  options.top_k = 1;
  options.seed = 7;
  options.verify_max_conflicts = 20000;
  serve::WireRequest request;
  request.op = "search";
  request.search = options_to_json(options);

  serve::Client client("127.0.0.1", server.port());
  const auto response = client.call(request);
  ASSERT_TRUE(response.ok) << response.error;
  const auto* wire_report = response.raw.find("report");
  ASSERT_NE(wire_report, nullptr);

  const SearchReport local = service.run(request);
  EXPECT_EQ(wire_report->dump(), report_to_json(local).dump())
      << "wire and in-process searches must agree byte for byte";

  client.close();
  server.shutdown();
  service.stop();
  engine.stop();
}

TEST_F(SearchTest, SearchResponsesEchoRequestIdsAndCountSlowRequests) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::EngineOptions engine_options;
  engine_options.slow_request_ms = 0;  // every request is "slow"
  serve::InferenceEngine engine(registry, engine_options);
  engine.register_circuit("default", circuit_);
  SearchService service(engine);
  serve::Server server(engine, registry);
  service.install(server);
  server.start();

  auto& metrics = telemetry::MetricsRegistry::global();
  const auto slow_before = metrics.counter("search.slow_requests").value();
  const auto timed_before =
      metrics.histogram("search.request_seconds").count();

  SearchOptions options;
  options.budget = 2;
  options.scheme = LockScheme::Xor;
  options.greedy_steps = 1;
  options.sa_steps = 1;
  options.neighbors = 2;
  options.top_k = 1;
  options.seed = 3;
  options.verify_max_conflicts = 20000;
  serve::WireRequest request;
  request.op = "search";
  request.request_id = "search-trace-42";
  request.search = options_to_json(options);

  serve::Client client("127.0.0.1", server.port());
  const auto response = client.call(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.request_id, "search-trace-42")
      << "search responses must echo the client-chosen request id";

  // Without a client id, the server assigns a non-empty one — same contract
  // as predict, so slow-request log lines always have an id to correlate.
  request.request_id.clear();
  const auto assigned = client.call(request);
  ASSERT_TRUE(assigned.ok) << assigned.error;
  EXPECT_FALSE(assigned.request_id.empty());
  EXPECT_NE(assigned.request_id, "search-trace-42");

  // --slow-ms 0 marks both searches slow, and both land in the
  // end-to-end latency histogram.
  EXPECT_GE(metrics.counter("search.slow_requests").value(),
            slow_before + 2);
  EXPECT_GE(metrics.histogram("search.request_seconds").count(),
            timed_before + 2);

  client.close();
  server.shutdown();
  service.stop();
  engine.stop();
}

TEST_F(SearchTest, MalformedSearchIsAnsweredAtAdmissionWithItsId) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  SearchService service(engine);
  serve::Server server(engine, registry);
  service.install(server);
  server.start();

  auto& metrics = telemetry::MetricsRegistry::global();
  const auto errors_before = metrics.counter("search.errors").value();
  const auto wire_errors_before = metrics.counter("serve.wire_errors").value();
  const auto queued_before =
      metrics.histogram("search.queue_wait_seconds").count();

  serve::Client client("127.0.0.1", server.port());
  serve::WireRequest request = serve::parse_request(
      R"({"op":"search","id":9,"search":{"scheme":"rot13"}})");
  const auto response = client.call(request);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.status, "error");
  ASSERT_TRUE(response.has_id);
  EXPECT_EQ(response.id, 9u);
  EXPECT_EQ(response.raw.find("op")->as_string(), "search");
  EXPECT_FALSE(response.request_id.empty());
  EXPECT_NE(response.error.find("unknown lock scheme 'rot13'"),
            std::string::npos)
      << response.error;
  // A search error, not a wire error, and never queued.
  EXPECT_EQ(metrics.counter("search.errors").value(), errors_before + 1);
  EXPECT_EQ(metrics.counter("serve.wire_errors").value(), wire_errors_before);
  EXPECT_EQ(metrics.histogram("search.queue_wait_seconds").count(),
            queued_before);
  EXPECT_TRUE(client.ping().ok);

  // The in-process path refuses the same options with the same message.
  request.search = serve::JsonValue::parse(R"({"budget":-3})");
  try {
    service.run(request);
    ADD_FAILURE() << "run() accepted a negative budget";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "search field 'budget' must be a non-negative integer");
  }
  EXPECT_EQ(client.call(request).error,
            "search field 'budget' must be a non-negative integer");

  client.close();
  server.shutdown();
  service.stop();
  engine.stop();
}

TEST_F(SearchTest, SearchOpWithoutServiceAnswersError) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  serve::Server server(engine, registry);
  server.start();

  serve::WireRequest request;
  request.op = "search";
  serve::Client client("127.0.0.1", server.port());
  const auto response = client.call(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("not enabled"), std::string::npos)
      << response.error;

  client.close();
  server.shutdown();
  engine.stop();
}

TEST_F(SearchTest, ServiceRejectsUnknownCircuit) {
  serve::ModelRegistry registry;
  registry.load("default", model_path_);
  serve::InferenceEngine engine(registry);
  engine.register_circuit("default", circuit_);
  SearchService service(engine);
  serve::WireRequest request;
  request.op = "search";
  request.circuit = "nope";
  EXPECT_THROW(service.run(request), std::runtime_error);
  service.stop();
}

}  // namespace
}  // namespace ic::search

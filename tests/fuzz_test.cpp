// Seeded mutation fuzzing of the parsers that read untrusted input. No
// external fuzz engine: a fixed seed and iteration count give every run the
// same inputs, the target finishes in seconds at -O2, and CI runs it under
// ASan/UBSan too. A parser passes when every call returns or throws
// std::runtime_error, the input-error class; std::logic_error, which the
// library keeps for its own bugs, a crash, a sanitizer report or a hang
// fails the target.
//
// Targets: the JSON wire parser (parse_request, parse_response), the search
// options reader (search::options_from_json, which checks what the wire
// passes through), the .bench and Verilog netlist parsers
// (circuit::parse_bench, circuit::parse_verilog), the selection parser
// (search::parse_selection) and the model loader (core::load_model).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ic/circuit/bench_io.hpp"
#include "ic/circuit/generator.hpp"
#include "ic/circuit/verilog_io.hpp"
#include "ic/core/model_io.hpp"
#include "ic/data/features.hpp"
#include "ic/search/report.hpp"
#include "ic/search/selection.hpp"
#include "ic/serve/wire.hpp"

namespace ic::serve {
namespace {

constexpr std::uint64_t kSeed = 20201;
constexpr int kIterations = 20000;
constexpr std::size_t kMaxRun = 100000;

/// Every search option away from its default.
search::SearchOptions search_options() {
  search::SearchOptions options;
  options.budget = 4;
  options.scheme = search::LockScheme::Xor;
  options.greedy_steps = 8;
  options.sa_steps = 5;
  options.neighbors = 6;
  options.top_k = 2;
  options.seed = 9;
  options.objective.area_weight = 0.25;
  options.objective.depth_weight = 0.5;
  options.sa_initial_temp = 2.5;
  options.sa_cooling = 0.75;
  options.verify_max_conflicts = 1000;
  return options;
}

/// encode_request of requests that together use every op and every field,
/// plus one predict answer so parse_response meets its own fields.
std::vector<std::string> wire_corpus() {
  std::vector<WireRequest> requests;
  WireRequest predict;
  predict.model = "paper-model";
  predict.circuit = "paper-circuit";
  predict.select = {12, 57, 101};
  predict.timeout_ms = 250;
  predict.id = 7;
  predict.has_id = true;
  predict.request_id = "cli-42";
  requests.push_back(predict);

  WireRequest search;
  search.op = "search";
  search.search = search::options_to_json(search_options());
  search.request_id = "s-1";
  requests.push_back(search);

  for (const char* action : {"start", "stop", "dump"}) {
    WireRequest profile;
    profile.op = "profile";
    profile.action = action;
    profile.seconds = 1.5;
    profile.hz = 97;
    requests.push_back(profile);
  }
  WireRequest prometheus;
  prometheus.op = "stats";
  prometheus.format = "prometheus";
  requests.push_back(prometheus);
  for (const char* op : {"ping", "traces", "stats", "health", "shutdown"}) {
    WireRequest admin;
    admin.op = op;
    admin.id = 3;
    admin.has_id = true;
    requests.push_back(admin);
  }

  std::vector<std::string> corpus;
  for (const WireRequest& request : requests) {
    corpus.push_back(encode_request(request));
  }
  corpus.push_back(
      R"({"id":7,"log_runtime":1.25,"model_version":3,"ok":true,)"
      R"("op":"predict","request_id":"r-1","seconds":0.5,"status":"ok"})");
  return corpus;
}

/// One to four byte-level edits: flip, insert, delete, duplicate, truncate,
/// or insert a run of up to `max_run` copies of one of `runs`.
std::string mutate(std::string s, std::mt19937_64& rng,
                   const std::vector<std::string>& runs, std::size_t max_run) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = below(s.size() + 1);
    switch (below(6)) {
      case 0:
        if (at < s.size()) s[at] = static_cast<char>(s[at] ^ (1 << below(8)));
        break;
      case 1:
        s.insert(at, 1, static_cast<char>(below(256)));
        break;
      case 2:
        s.erase(at, 1 + below(8));
        break;
      case 3:
        s.insert(at, s.substr(below(s.size() + 1), 1 + below(16)));
        break;
      case 4:
        s.resize(at);
        break;
      default: {
        std::string run = runs[below(runs.size())];
        const std::size_t size = run.size() * (1 + below(max_run));
        while (run.size() < size) run += run;
        run.resize(size);
        s.insert(at, run);
        break;
      }
    }
  }
  return s;
}

TEST(WireFuzz, SeedCorpusParses) {
  for (const std::string& line : wire_corpus()) {
    EXPECT_NO_THROW(parse_response(line)) << line;
  }
  const auto corpus = wire_corpus();
  for (std::size_t i = 0; i + 1 < corpus.size(); ++i) {
    EXPECT_NO_THROW(parse_request(corpus[i])) << corpus[i];
  }
}

TEST(WireFuzz, MutatedLinesReturnOrThrow) {
  const auto corpus = wire_corpus();
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutate(corpus[rng() % corpus.size()], rng,
                                     {"[", "{", "\"", "\\"}, kMaxRun);
    for (const bool request : {true, false}) {
      try {
        if (request) {
          parse_request(input);
        } else {
          parse_response(input);
        }
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Both outcomes occur, so the mutations neither all break the syntax nor
  // all leave it alone.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(WireFuzz, NestingPastTheLimitIsAParseError) {
  // The request object is one level; 63 more arrays reach the limit of 64.
  const auto nested = [](std::size_t arrays) {
    return R"({"op":"ping","x":)" + std::string(arrays, '[') +
           std::string(arrays, ']') + "}";
  };
  EXPECT_NO_THROW(parse_request(nested(63)));
  try {
    parse_request(nested(64));
    ADD_FAILURE() << "65 levels of nesting parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_request(nested(kMaxRun)), std::runtime_error);
}

TEST(WireFuzz, DoublesAtTheEdgesRoundTripAndOverflowIsAParseError) {
  // dump() promises a bit-exact round trip, subnormals included: an
  // underflowing literal reads as the nearest double.
  for (const double x : {std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()}) {
    const std::string text = JsonValue::number(x).dump();
    EXPECT_EQ(JsonValue::parse(text).as_number(), x) << text;
  }
  EXPECT_EQ(JsonValue::parse("1e-999").as_number(), 0.0);
  // Past the largest double there is no value to read.
  for (const char* literal : {"1e999", "-1e999", "1.8e308"}) {
    try {
      JsonValue::parse(std::string("[0,") + literal + "]");
      ADD_FAILURE() << literal << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "JSON parse error at byte 3: number out of range");
    }
  }
  // A number needs mantissa digits, and an exponent needs its own.
  for (const char* literal : {"e5", "-e5", "1e", "1e+", "."}) {
    EXPECT_THROW(JsonValue::parse(literal), std::runtime_error) << literal;
  }
}

/// Feeds `iterations` mutants of `corpus` to `parse`, which must return or
/// throw std::runtime_error, and checks that both outcomes occur. Any other
/// exception escapes and fails the test.
template <typename Parse>
void fuzz(const std::vector<std::string>& corpus,
          const std::vector<std::string>& runs, std::size_t max_run,
          int iterations, Parse parse) {
  std::mt19937_64 rng(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string input =
        mutate(corpus[rng() % corpus.size()], rng, runs, max_run);
    try {
      parse(input);
      ++accepted;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// `parse(text)` throws std::runtime_error naming `gate` in quotes.
template <typename Parse>
void expect_input_error(Parse parse, const std::string& text,
                        const std::string& gate) {
  try {
    parse(text);
    ADD_FAILURE() << "parsed:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + gate + "'"), std::string::npos)
        << e.what();
  }
}

// ---- search options ---------------------------------------------------------

TEST(SearchOptionsFuzz, MutatedOptionsReturnOrThrow) {
  // The wire hands the "search" object through unchecked, so options_from_json
  // is what stands between a peer and the casts to the option types.
  const std::vector<std::string> corpus = {
      search::options_to_json(search_options()).dump(), "{}",
      R"({"budget":8,"scheme":"lut4"})"};
  for (const std::string& text : corpus) {
    EXPECT_NO_THROW(search::options_from_json(JsonValue::parse(text))) << text;
  }
  fuzz(corpus, {"9", "-", ".", "e"}, 400, kIterations,
       [](const std::string& text) {
         search::options_from_json(JsonValue::parse(text));
       });
}

// ---- .bench ----------------------------------------------------------------

/// write_bench of a generated circuit, plus fixed- and key-LUT lines.
std::vector<std::string> bench_corpus() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 3;
  spec.num_gates = 24;
  spec.seed = 5;
  return {circuit::write_bench(circuit::generate_circuit(spec, "fuzz")),
          "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(keyinput0)\n"
          "INPUT(keyinput1)\nINPUT(keyinput2)\nINPUT(keyinput3)\n"
          "OUTPUT(y)\nOUTPUT(z)\n"
          "x = LUT 0x6 (a, b)\n"
          "y = KLUT 0 (x, c)\n"
          "z = LUT 0x8000000000000001 (a, b, c, x, y, a)\n"};
}

TEST(BenchFuzz, SeedCorpusParses) {
  for (const std::string& text : bench_corpus()) {
    EXPECT_NO_THROW(circuit::parse_bench(text)) << text;
  }
}

TEST(BenchFuzz, MutatedNetlistsReturnOrThrow) {
  // Runs of fanins make LUT and KLUT lines as wide as the parser must bound.
  fuzz(bench_corpus(), {", a", ", x", "\n", "("}, 200, kIterations,
       [](const std::string& text) { circuit::parse_bench(text); });
}

TEST(BenchFuzz, MalformedGatesAreInputErrorsNamingTheGate) {
  const auto parse = [](const std::string& text) {
    circuit::parse_bench(text);
  };
  const std::string header = "INPUT(a)\nINPUT(b)\nOUTPUT(o)\n";
  expect_input_error(parse, header + "o = NOT(a, b)\n", "o");
  expect_input_error(parse, header + "o = AND(a)\n", "o");
  expect_input_error(parse, header + "o = INPUT(a, b)\n", "o");
  // Two fanins take 4 key bits; there is one key input.
  expect_input_error(
      parse, "INPUT(keyinput0)\n" + header + "o = KLUT 0 (a, b)\n", "o");
}

TEST(BenchFuzz, LutFaninsAreBoundedBeforeAnyShift) {
  const auto lut = [](const char* kind, std::size_t fanins) {
    std::string text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n"
                       "INPUT(f)\nINPUT(keyinput0)\nOUTPUT(y)\ny = ";
    text += kind;
    text += " (";
    for (std::size_t i = 0; i < fanins; ++i) {
      text += std::string(i > 0 ? ", " : "") + static_cast<char>('a' + i % 6);
    }
    return text + ")\n";
  };
  EXPECT_NO_THROW(circuit::parse_bench(lut("LUT 0x6", 6)));
  EXPECT_THROW(circuit::parse_bench(lut("LUT 0x6", 7)), std::runtime_error);
  EXPECT_THROW(circuit::parse_bench(lut("LUT 0x6", 64)), std::runtime_error);
  EXPECT_THROW(circuit::parse_bench(lut("KLUT 0", 64)), std::runtime_error);
}

// ---- Verilog ----------------------------------------------------------------

/// write_verilog of a generated circuit, plus named and unnamed instances
/// behind both comment styles.
std::vector<std::string> verilog_corpus() {
  circuit::GeneratorSpec spec;
  spec.num_inputs = 6;
  spec.num_outputs = 3;
  spec.num_gates = 24;
  spec.seed = 5;
  return {circuit::write_verilog(circuit::generate_circuit(spec, "fuzz")),
          "// hand-written\n"
          "module m (a, b, c, keyinput0, y, z);\n"
          "  input a, b, c, keyinput0;\n"
          "  output y, z;\n"
          "  wire v, w, x; /* internal */\n"
          "  nand g1 (w, a, b);\n"
          "  not (x, w);\n"
          "  xor g2 (y, x, keyinput0);\n"
          "  and (v, c, w, x);\n"
          "  buf (z, v);\n"
          "endmodule\n"};
}

TEST(VerilogFuzz, SeedCorpusParses) {
  for (const std::string& text : verilog_corpus()) {
    EXPECT_NO_THROW(circuit::parse_verilog(text)) << text;
  }
}

TEST(VerilogFuzz, MutatedModulesReturnOrThrow) {
  // Runs of terminals widen instances; runs of ';' and '(' split and nest
  // statements.
  fuzz(verilog_corpus(), {", a", ", w", ";", "("}, 200, kIterations,
       [](const std::string& text) { circuit::parse_verilog(text); });
}

TEST(VerilogFuzz, MalformedGatesAreInputErrorsNamingTheGate) {
  expect_input_error(
      [](const std::string& text) { circuit::parse_verilog(text); },
      "module m (a, c, o);\n  input a, c;\n  output o;\n"
      "  buf b1 (o, a, c);\nendmodule\n",
      "o");
}

// ---- selections -------------------------------------------------------------

TEST(SelectionFuzz, MutatedSelectionsReturnOrThrow) {
  fuzz({"12,57,101", " 4 5\t6\r", "0", "4294967295, 1"}, {"9", ",", " "},
       100, kIterations,
       [](const std::string& text) { search::parse_selection(text); });
}

// ---- model files ------------------------------------------------------------

TEST(ModelFuzz, MutatedModelFilesReturnOrThrow) {
  nn::GnnConfig config;
  config.in_features = data::feature_width(data::FeatureSet::All);
  config.hidden = {3, 2};
  nn::GnnRegressor model(config);
  const std::string path = ::testing::TempDir() + "fuzz_model.txt";
  core::save_model(model, path, core::ModelVariant::ICNet,
                   data::FeatureSet::All);
  std::string saved;
  {
    std::ifstream in(path);
    saved.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_NO_THROW(core::load_model(path));
  // A run of digits widens a number, such as a layer width in the header.
  // Fewer iterations than the other targets: each one writes a file.
  fuzz({saved}, {"9", " ", "\n"}, 12, 5000, [&path](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    core::load_model(path);
  });
}

TEST(ModelFuzz, HeaderIsBoundedBeforeTheModelIsBuilt) {
  const std::string path = ::testing::TempDir() + "fuzz_header.txt";
  const auto load = [&path](const std::string& features,
                            const std::string& in_features,
                            const std::string& hidden,
                            const std::string& cheb_order) {
    std::ofstream(path, std::ios::trunc)
        << "icnet-params v2\nvariant chebnet\nfeatures " << features
        << "\nconv chebyshev\ncheb_order " << cheb_order << "\nin_features "
        << in_features << "\nhidden " << hidden
        << "\nreadout attention\nexp_head 1\nparams 0\n";
    core::load_model(path);
  };
  const auto fails_on = [&](const char* needle, auto&&... args) {
    try {
      load(args...);
      ADD_FAILURE() << "loaded a header that should fail on " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  // In bounds, the header passes and the empty body fails the count check.
  fails_on("parameter count", "all", "7", "2 8 4", "3");
  fails_on("in_features", "location", "7", "2 8 4", "3");
  fails_on("in_features", "all", "1", "2 8 4", "3");
  fails_on("width", "all", "7", "2 4096 4096", "3");
  fails_on("width", "all", "7", "2 8 0", "3");
  fails_on("cheb_order", "all", "7", "2 8 4", "0");
  fails_on("cheb_order", "all", "7", "2 8 4", "1000");
  fails_on("hidden-layer count", "all", "7", "9 1 1 1 1 1 1 1 1 1", "3");
}

}  // namespace
}  // namespace ic::serve

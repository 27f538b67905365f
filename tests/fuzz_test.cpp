// Seeded mutation fuzzing of the parsers that read untrusted input. No
// external fuzz engine: a fixed seed and iteration count give every run the
// same inputs, the target finishes in seconds at -O2, and CI runs it under
// ASan/UBSan too. A parser passes when every call returns or throws a
// std::exception; a crash, a sanitizer report or a hang fails the target.
//
// Targets: the JSON wire parser (parse_request, parse_response).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "ic/serve/wire.hpp"

namespace ic::serve {
namespace {

constexpr std::uint64_t kSeed = 20201;
constexpr int kIterations = 20000;
constexpr std::size_t kMaxRun = 100000;

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
  search.search.budget = 4;
  search.search.scheme = "xor";
  search.search.greedy_steps = 8;
  search.search.sa_steps = 5;
  search.search.neighbors = 6;
  search.search.top_k = 2;
  search.search.seed = 9;
  search.search.area_weight = 0.25;
  search.search.depth_weight = 0.5;
  search.search.sa_initial_temp = 2.5;
  search.search.sa_cooling = 0.75;
  search.search.verify_max_conflicts = 1000;
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
/// or insert a run of up to kMaxRun '[', '{', '"' or '\'.
std::string mutate(std::string s, std::mt19937_64& rng) {
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
        static const char kRunBytes[] = {'[', '{', '"', '\\'};
        s.insert(at, 1 + below(kMaxRun), kRunBytes[below(4)]);
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
    const std::string input = mutate(corpus[rng() % corpus.size()], rng);
    for (const bool request : {true, false}) {
      try {
        if (request) {
          parse_request(input);
        } else {
          parse_response(input);
        }
        ++accepted;
      } catch (const std::exception&) {
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

}  // namespace
}  // namespace ic::serve

#include "ic/search/report.hpp"

#include <cmath>
#include <type_traits>

#include "ic/support/assert.hpp"

namespace ic::search {

using serve::JsonValue;

namespace {

JsonValue selection_json(const std::vector<circuit::GateId>& selection) {
  JsonValue arr = JsonValue::array();
  for (const circuit::GateId id : selection) {
    arr.push_back(JsonValue::number(static_cast<double>(id)));
  }
  return arr;
}

/// Largest magnitude up to which every integer is an exact double.
constexpr double kMaxExact = 9.007199254740992e15;

}  // namespace

JsonValue options_to_json(const SearchOptions& options) {
  JsonValue obj = JsonValue::object();
  obj.set("budget", JsonValue::number(static_cast<double>(options.budget)));
  obj.set("scheme", JsonValue::string(scheme_name(options.scheme)));
  obj.set("greedy_steps",
          JsonValue::number(static_cast<double>(options.greedy_steps)));
  obj.set("sa_steps", JsonValue::number(static_cast<double>(options.sa_steps)));
  obj.set("neighbors",
          JsonValue::number(static_cast<double>(options.neighbors)));
  obj.set("top_k", JsonValue::number(static_cast<double>(options.top_k)));
  obj.set("seed", JsonValue::number(static_cast<double>(options.seed)));
  obj.set("area_weight", JsonValue::number(options.objective.area_weight));
  obj.set("depth_weight", JsonValue::number(options.objective.depth_weight));
  obj.set("sa_initial_temp", JsonValue::number(options.sa_initial_temp));
  obj.set("sa_cooling", JsonValue::number(options.sa_cooling));
  obj.set("verify_max_conflicts",
          JsonValue::number(static_cast<double>(options.verify_max_conflicts)));
  return obj;
}

SearchOptions options_from_json(const JsonValue& doc) {
  IC_CHECK(doc.is_object(), "the 'search' field must be a JSON object");
  // Absent keys leave the default in place. A count the option cannot hold
  // is an input error here, not undefined behaviour at the cast.
  const auto count = [&doc](const char* key, auto& field) {
    const JsonValue* v = doc.find(key);
    if (v == nullptr) return;
    const double x = v->as_number();
    IC_CHECK(x >= 0 && x == std::floor(x) && x <= kMaxExact,
             "search field '" << key << "' must be a non-negative integer");
    field = static_cast<std::remove_reference_t<decltype(field)>>(x);
  };
  const auto number = [&doc](const char* key, double& field) {
    if (const JsonValue* v = doc.find(key)) field = v->as_number();
  };
  SearchOptions o;
  count("budget", o.budget);
  if (const JsonValue* v = doc.find("scheme")) {
    o.scheme = scheme_from_name(v->as_string());
  }
  count("greedy_steps", o.greedy_steps);
  count("sa_steps", o.sa_steps);
  count("neighbors", o.neighbors);
  count("top_k", o.top_k);
  count("seed", o.seed);
  number("area_weight", o.objective.area_weight);
  number("depth_weight", o.objective.depth_weight);
  number("sa_initial_temp", o.sa_initial_temp);
  number("sa_cooling", o.sa_cooling);
  count("verify_max_conflicts", o.verify_max_conflicts);
  return o;
}

JsonValue report_to_json(const SearchReport& report) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue::number(1));
  doc.set("doc", JsonValue::string("icnet_search_report"));
  doc.set("circuit", JsonValue::string(report.circuit));
  doc.set("num_gates",
          JsonValue::number(static_cast<double>(report.num_gates)));
  doc.set("options", options_to_json(report.options));

  JsonValue steps = JsonValue::array();
  for (const SearchStep& step : report.steps) {
    JsonValue s = JsonValue::object();
    s.set("phase", JsonValue::string(step.phase));
    s.set("step", JsonValue::number(static_cast<double>(step.step)));
    s.set("candidate_objective", JsonValue::number(step.candidate_objective));
    s.set("best_objective", JsonValue::number(step.best_objective));
    s.set("accepted", JsonValue::boolean(step.accepted));
    s.set("oracle_calls",
          JsonValue::number(static_cast<double>(step.oracle_calls)));
    steps.push_back(std::move(s));
  }
  doc.set("steps", std::move(steps));

  JsonValue verified = JsonValue::array();
  for (const VerifiedCandidate& cand : report.verified) {
    JsonValue v = JsonValue::object();
    v.set("selection", selection_json(cand.selection));
    v.set("objective", JsonValue::number(cand.objective));
    v.set("predicted_log_runtime",
          JsonValue::number(cand.predicted_log_runtime));
    v.set("predicted_seconds", JsonValue::number(cand.predicted_seconds));
    v.set("actual_seconds", JsonValue::number(cand.actual_seconds));
    v.set("attack_dips",
          JsonValue::number(static_cast<double>(cand.attack_dips)));
    v.set("key_bits", JsonValue::number(static_cast<double>(cand.key_bits)));
    v.set("attack_success", JsonValue::boolean(cand.attack_success));
    v.set("attack_hit_cap", JsonValue::boolean(cand.attack_hit_cap));
    verified.push_back(std::move(v));
  }
  doc.set("verified", std::move(verified));

  doc.set("best_selection", selection_json(report.best_selection));
  doc.set("best_objective", JsonValue::number(report.best_objective));
  doc.set("best_predicted_log_runtime",
          JsonValue::number(report.best_predicted_log_runtime));
  doc.set("best_predicted_seconds",
          JsonValue::number(report.best_predicted_seconds));
  doc.set("oracle_calls",
          JsonValue::number(static_cast<double>(report.oracle_calls)));
  doc.set("oracle_batches",
          JsonValue::number(static_cast<double>(report.oracle_batches)));
  doc.set("accepted_steps",
          JsonValue::number(static_cast<double>(report.accepted_steps)));
  return doc;
}

}  // namespace ic::search

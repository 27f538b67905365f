// JSON-lines wire protocol of the serving layer (DESIGN.md §9).
//
// One request per line, one response line per request, over a plain TCP
// stream. The JSON support is a deliberately small recursive-descent
// implementation (objects, arrays, strings, numbers, booleans, null) so the
// server has zero dependencies; doubles round-trip bit-exactly (%.17g), which
// the determinism tests rely on.
//
// Requests:
//   {"op":"predict","select":[12,57,101]}            predict on the default
//                                                    model and circuit
//   {"op":"predict","model":"m","circuit":"c",
//    "select":[1,2],"timeout_ms":250,"id":7,
//    "request_id":"cli-42"}                          all fields
//   {"op":"search","search":{"budget":4,
//    "scheme":"xor","greedy_steps":8,...}}           obfuscation policy search
//                                                    (DESIGN.md §14); every
//                                                    field optional. The
//                                                    serving layer passes the
//                                                    object through; the
//                                                    search service validates
//                                                    it (options_from_json)
//   {"op":"ping"}                                    liveness probe
//   {"op":"profile","action":"start",
//    "seconds":5,"hz":99}                            arm the sampling profiler
//                                                    (action: start|stop|dump;
//                                                    "dump" returns folded
//                                                    stacks in "folded")
//   {"op":"traces"}                                  tail-sampled request
//                                                    timelines with per-stage
//                                                    timestamps/durations
//   {"op":"stats"}                                   live metrics snapshot
//   {"op":"stats","format":"prometheus"}             …as Prometheus text (in
//                                                    the "prometheus" field)
//   {"op":"health"}                                  readiness probe
//   {"op":"shutdown"}                                graceful drain-then-stop
//
// Responses always carry "ok" plus, on success, the prediction
// ("log_runtime", "seconds", "model_version") or op-specific fields; on
// failure "error" and "status" (rejected | deadline | error). The request
// "id", when present, is echoed back. Every response also carries a
// "request_id" string — the client's, when the request named one, otherwise
// one the server assigned — which is the key for correlating a wire request
// with its {"op":"traces"} timeline and any slow-request log line
// (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ic::serve {

/// Tagged JSON value. Small enough to pass by value; parse errors throw
/// std::runtime_error with a byte offset.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  static JsonValue parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;

  /// Object field lookup; nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;

  void set(const std::string& key, JsonValue value);  ///< object insert
  void push_back(JsonValue value);                    ///< array append

  /// Compact single-line JSON; doubles use %.17g so they round-trip.
  std::string dump() const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// ---- typed request/response -------------------------------------------------

struct WireRequest {
  std::string op = "predict";  ///< predict | search | ping | profile | traces
                               ///< | stats | health | shutdown
  std::string model = "default";
  std::string circuit = "default";
  std::vector<std::uint32_t> select;
  std::int64_t timeout_ms = -1;  ///< -1 = no per-request deadline
  std::uint64_t id = 0;          ///< echoed in the response
  bool has_id = false;
  std::string request_id;  ///< tracing id; server-assigned when empty
  std::string format;      ///< stats only: "" (JSON fields) | "prometheus"
  /// search only: the "search" object as sent. The serving layer only
  /// checks that it is an object; ic::search::options_from_json reads it.
  JsonValue search = JsonValue::object();
  std::string action;      ///< profile only: start | stop | dump
  double seconds = 0.0;    ///< profile start only: auto-stop deadline (0=none)
  std::int64_t hz = 0;     ///< profile start only: sample rate (0=default 99)
};

struct WireResponse {
  bool ok = false;
  std::string status;  ///< "", or rejected | deadline | error on failure
  std::string error;
  double log_runtime = 0.0;
  double seconds = 0.0;
  std::uint64_t model_version = 0;
  std::uint64_t id = 0;
  bool has_id = false;
  std::string request_id;  ///< always present in server responses
  JsonValue raw;  ///< full response document (stats/health fields etc.)
};

/// Parse one request line. Throws std::runtime_error on malformed input
/// (unknown op, wrong field types, trailing junk). A search's fields are
/// not checked here, only that "search" is an object.
WireRequest parse_request(const std::string& line);
std::string encode_request(const WireRequest& request);

WireResponse parse_response(const std::string& line);

}  // namespace ic::serve

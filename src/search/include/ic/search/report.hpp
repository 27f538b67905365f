// JSON forms of the searcher's options and report (DESIGN.md §14).
//
// Options: options_to_json and options_from_json are the one mapping between
// SearchOptions and the twelve-key "search" object. The wire's
// {"op":"search"} carries that object, icnet_cli builds it from its flags, and
// the report echoes it under "options"; the defaults live only in
// SearchOptions.
//
// The report is a normalized document — {"schema":1,"doc":"icnet_search_report",
// ...} — in the same style as the bench and calibration artifacts: object keys
// are emitted sorted, doubles use %.17g, and nothing time- or host-dependent
// (wall-clock, pids, paths) is recorded, so the same search produces a
// byte-identical file wherever and however parallel it ran.
#pragma once

#include <string>

#include "ic/search/search.hpp"
#include "ic/serve/wire.hpp"

namespace ic::search {

/// All twelve options, keyed by their wire names.
serve::JsonValue options_to_json(const SearchOptions& options);

/// Inverse of options_to_json. Absent keys keep their SearchOptions{}
/// defaults. Throws std::runtime_error on a non-object, an unknown scheme, a
/// value of the wrong type, or a count that is negative, fractional or above
/// 2^53.
SearchOptions options_from_json(const serve::JsonValue& doc);

/// Render the report as a JSON document.
serve::JsonValue report_to_json(const SearchReport& report);

}  // namespace ic::search

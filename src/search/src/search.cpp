#include "ic/search/search.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "ic/attack/oracle.hpp"
#include "ic/data/dataset.hpp"
#include "ic/locking/anti_sat.hpp"
#include "ic/locking/lut_lock.hpp"
#include "ic/locking/policy.hpp"
#include "ic/locking/xor_lock.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/log.hpp"
#include "ic/support/metrics.hpp"
#include "ic/support/progress.hpp"
#include "ic/support/rng.hpp"
#include "ic/support/timer.hpp"
#include "ic/support/trace.hpp"

namespace ic::search {

using circuit::GateId;
using circuit::Netlist;

const char* scheme_name(LockScheme scheme) {
  switch (scheme) {
    case LockScheme::Lut4: return "lut4";
    case LockScheme::Xor: return "xor";
    case LockScheme::AntiSat: return "antisat";
  }
  IC_ASSERT_MSG(false, "unhandled LockScheme");
  return "lut4";
}

LockScheme scheme_from_name(const std::string& name) {
  if (name == "lut4") return LockScheme::Lut4;
  if (name == "xor") return LockScheme::Xor;
  if (name == "antisat") return LockScheme::AntiSat;
  ic::input_error("unknown lock scheme '" + name + "' (lut4|xor|antisat)");
}

namespace {

/// key_bits_for with the circuit's topological positions
/// (locking::topological_positions) computed by the caller.
std::size_t count_key_bits(LockScheme scheme,
                           const std::vector<GateId>& selection,
                           const Netlist& circuit,
                           const std::vector<std::size_t>& positions,
                           std::size_t budget) {
  switch (scheme) {
    case LockScheme::Lut4: {
      std::size_t bits = 0;
      for (const GateId id : selection) {
        bits += std::size_t{1}
                << locking::lut_inputs(circuit.gate(id), positions[id]);
      }
      return bits;
    }
    case LockScheme::Xor:
      return selection.size();
    case LockScheme::AntiSat:
      return 2 * budget;  // K1 and K2, one bit per tapped wire
  }
  IC_ASSERT_MSG(false, "unhandled LockScheme");
  return 0;
}

}  // namespace

std::size_t key_bits_for(LockScheme scheme,
                         const std::vector<GateId>& selection,
                         const Netlist& circuit, std::size_t budget) {
  return count_key_bits(
      scheme, selection, circuit,
      locking::topological_positions(circuit.topological_order()), budget);
}

namespace {

/// Deterministic per-(step, candidate) seeds: two derive_seed hops so step
/// streams and candidate streams are independent of each other and of the
/// initial-selection stream (index 0 of the base seed).
std::uint64_t candidate_seed(std::uint64_t base, std::size_t step,
                             std::size_t candidate) {
  return derive_seed(derive_seed(base, step + 1), candidate + 1);
}

/// Salted stream for SA acceptance draws, independent of candidate
/// generation at every step.
constexpr std::uint64_t kSaAcceptSalt = 0x5a5a5a5a5a5a5a5aULL;

struct ObjectiveContext {
  const Netlist& circuit;
  const SearchOptions& options;
  std::vector<int> depths;
  std::vector<std::size_t> positions;  ///< locking::topological_positions

  std::size_t key_bits(const std::vector<GateId>& selection) const {
    return count_key_bits(options.scheme, selection, circuit, positions,
                          options.budget);
  }

  double overhead(const std::vector<GateId>& selection) const {
    double penalty = 0.0;
    if (options.objective.area_weight != 0.0) {
      penalty += options.objective.area_weight *
                 static_cast<double>(key_bits(selection));
    }
    if (options.objective.depth_weight != 0.0) {
      int max_depth = 0;
      for (const GateId id : selection) {
        max_depth = std::max(max_depth, depths[id]);
      }
      penalty += options.objective.depth_weight * static_cast<double>(max_depth);
    }
    return penalty;
  }
};

/// Swap one selected gate for an unselected pool gate. `member` is the
/// membership mask over gate ids, kept in sync by the caller.
std::vector<GateId> mutate(const std::vector<GateId>& selection,
                           const std::vector<GateId>& pool,
                           const std::vector<bool>& member, Rng& rng) {
  std::vector<GateId> next = selection;
  const std::size_t out_index = rng.index(next.size());
  GateId replacement;
  do {
    replacement = pool[rng.index(pool.size())];
  } while (member[replacement]);
  next[out_index] = replacement;
  std::sort(next.begin(), next.end());
  return next;
}

/// First index of the maximum value (ties break low, deterministically).
std::size_t argmax(const std::vector<double>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace

SearchReport policy_search(const Netlist& circuit, EngineOracle& oracle,
                           const SearchOptions& options) {
  telemetry::TraceSpan span("search/policy_search");
  // Metric handles are looked up once per process (the registry never frees
  // one), each where the search first records into it.
  auto& metrics = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& step_seconds =
      metrics.histogram("search.step_seconds");
  static telemetry::Gauge& best_gauge = metrics.gauge("search.best_objective");

  IC_CHECK(options.neighbors >= 1, "search needs neighbors >= 1");
  IC_CHECK(options.greedy_steps + options.sa_steps >= 1,
           "search needs at least one greedy or SA step");
  IC_CHECK(options.budget >= 1, "search needs budget >= 1");
  IC_CHECK(options.sa_cooling > 0.0 && options.sa_cooling <= 1.0,
           "sa_cooling must be in (0, 1]");

  const std::vector<GateId> pool = locking::lockable_gates(circuit);
  const std::size_t selection_size =
      options.scheme == LockScheme::AntiSat ? 1 : options.budget;
  IC_CHECK(pool.size() > selection_size,
           "budget " << selection_size << " needs more than "
                     << selection_size << " lockable gates (circuit has "
                     << pool.size() << ")");

  SearchReport report;
  report.circuit = circuit.name();
  report.num_gates = circuit.size();
  report.options = options;

  ObjectiveContext ctx{
      circuit, options, circuit.depths(),
      locking::topological_positions(circuit.topological_order())};

  const std::size_t total_steps = options.greedy_steps + options.sa_steps;
  telemetry::ProgressJob progress("search", total_steps);
  progress.set_phase("greedy");

  // All candidates ever scored, canonical (sorted) selection → (objective,
  // predicted log runtime). std::map keys give the deterministic tie order
  // for the top-k cut.
  std::map<std::vector<GateId>, std::pair<double, double>> scored;
  auto note_scored = [&scored](const std::vector<GateId>& selection,
                               double objective, double log_runtime) {
    scored.emplace(selection, std::make_pair(objective, log_runtime));
  };

  auto score_batch = [&](const std::vector<std::vector<GateId>>& batch) {
    const std::vector<double> preds = oracle.predict_log_batch(batch);
    report.oracle_calls += batch.size();
    report.oracle_batches += 1;
    std::vector<double> objectives(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      objectives[i] = preds[i] - ctx.overhead(batch[i]);
      note_scored(batch[i], objectives[i], preds[i]);
    }
    return objectives;
  };

  // Initial selection: a seeded sample from the lockable pool (stream index
  // 0 of the base seed), scored as its own one-candidate batch.
  std::vector<GateId> current;
  {
    Rng rng(derive_seed(options.seed, 0));
    const auto picks = rng.sample_without_replacement(pool.size(),
                                                      selection_size);
    current.reserve(selection_size);
    for (const std::size_t p : picks) current.push_back(pool[p]);
    std::sort(current.begin(), current.end());
  }
  double current_objective = score_batch({current})[0];

  std::vector<bool> member(circuit.size(), false);
  for (const GateId id : current) member[id] = true;

  report.best_selection = current;
  report.best_objective = current_objective;

  double temperature = options.sa_initial_temp;
  for (std::size_t step = 0; step < total_steps; ++step) {
    const bool sa_phase = step >= options.greedy_steps;
    Timer timer;
    if (sa_phase) progress.set_phase("sa");

    std::vector<std::vector<GateId>> neighbors;
    neighbors.reserve(options.neighbors);
    for (std::size_t i = 0; i < options.neighbors; ++i) {
      Rng rng(candidate_seed(options.seed, step, i));
      neighbors.push_back(mutate(current, pool, member, rng));
    }
    const std::vector<double> objectives = score_batch(neighbors);
    const std::size_t pick = argmax(objectives);
    const double delta = objectives[pick] - current_objective;

    bool accepted = delta > 0.0;
    if (!accepted && sa_phase && temperature > 0.0) {
      Rng accept_rng(derive_seed(options.seed ^ kSaAcceptSalt, step));
      accepted = accept_rng.uniform(0.0, 1.0) < std::exp(delta / temperature);
    }
    if (accepted) {
      for (const GateId id : current) member[id] = false;
      current = neighbors[pick];
      for (const GateId id : current) member[id] = true;
      current_objective = objectives[pick];
      ++report.accepted_steps;
      static telemetry::Counter& accepted_counter =
          metrics.counter("search.accepted");
      accepted_counter.add(1);
    }
    if (current_objective > report.best_objective) {
      report.best_objective = current_objective;
      report.best_selection = current;
    }
    if (sa_phase) temperature *= options.sa_cooling;

    SearchStep record;
    record.phase = sa_phase ? "sa" : "greedy";
    record.step = step;
    record.candidate_objective = objectives[pick];
    record.best_objective = report.best_objective;
    record.accepted = accepted;
    record.oracle_calls = report.oracle_calls;
    report.steps.push_back(std::move(record));

    static telemetry::Counter& steps_counter = metrics.counter("search.steps");
    steps_counter.add(1);
    best_gauge.set(report.best_objective);
    step_seconds.observe(timer.seconds());
    progress.tick(step + 1);
    progress.set_counters("oracle_calls", report.oracle_calls, "accepted",
                          report.accepted_steps);
  }

  {
    const auto it = scored.find(report.best_selection);
    IC_ASSERT(it != scored.end());
    report.best_predicted_log_runtime = it->second.second;
    report.best_predicted_seconds = data::seconds_of_label(it->second.second);
  }

  // ---- top-k verification with the real SAT attack -------------------------
  if (options.top_k > 0) {
    progress.set_phase("verify");
    std::vector<const std::pair<const std::vector<GateId>,
                                std::pair<double, double>>*> ranked;
    ranked.reserve(scored.size());
    for (const auto& entry : scored) ranked.push_back(&entry);
    // Objective-descending; equal objectives fall back to the map's
    // deterministic (lexicographic selection) order via stable_sort.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto* a, const auto* b) {
                       return a->second.first > b->second.first;
                     });
    const std::size_t k = std::min(options.top_k, ranked.size());
    for (std::size_t i = 0; i < k; ++i) {
      const auto& selection = ranked[i]->first;
      VerifiedCandidate verified;
      verified.selection = selection;
      verified.objective = ranked[i]->second.first;
      verified.predicted_log_runtime = ranked[i]->second.second;
      verified.predicted_seconds =
          data::seconds_of_label(verified.predicted_log_runtime);
      verified.key_bits = ctx.key_bits(selection);

      Netlist locked;
      switch (options.scheme) {
        case LockScheme::Lut4:
          locked = locking::lut_lock(circuit, selection, options.seed).locked;
          break;
        case LockScheme::Xor:
          locked = locking::xor_lock(circuit, selection, options.seed).locked;
          break;
        case LockScheme::AntiSat:
          locked = locking::anti_sat_lock(circuit, selection[0],
                                          {options.budget, options.seed})
                       .locked;
          break;
      }
      attack::NetlistOracle chip(circuit);
      attack::AttackOptions attack_options;
      attack_options.max_conflicts = options.verify_max_conflicts;
      attack_options.predicted_seconds = verified.predicted_seconds;
      const attack::AttackResult result =
          attack::sat_attack(locked, chip, attack_options);
      verified.actual_seconds = result.estimated_seconds();
      verified.attack_dips = result.iterations;
      verified.attack_success = result.success;
      verified.attack_hit_cap = result.hit_cap;
      static telemetry::Counter& verifications =
          metrics.counter("search.verifications");
      verifications.add(1);
      ICLOG(info) << "search: verified candidate " << i + 1 << "/" << k
                  << telemetry::kv("predicted_s", verified.predicted_seconds)
                  << telemetry::kv("actual_s", verified.actual_seconds)
                  << telemetry::kv("dips", verified.attack_dips);
      report.verified.push_back(std::move(verified));
      progress.advance(0);  // stamp liveness between long attacks
    }
  }

  ICLOG(info) << "search: done"
              << telemetry::kv("steps", report.steps.size())
              << telemetry::kv("oracle_calls", report.oracle_calls)
              << telemetry::kv("oracle_batches", report.oracle_batches)
              << telemetry::kv("best_objective", report.best_objective);
  return report;
}

}  // namespace ic::search

#include "ic/attack/sat_attack.hpp"

#include <cmath>

#include "ic/attack/encode.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/support/assert.hpp"
#include "ic/support/telemetry.hpp"
#include "ic/support/timer.hpp"

namespace ic::attack {

using circuit::Netlist;
using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

void check_attack_inputs(const Netlist& locked, const Oracle& oracle) {
  IC_CHECK(locked.num_keys() > 0, "netlist '" << locked.name()
                                   << "' has 0 key inputs: nothing to attack");
  IC_CHECK(oracle.num_inputs() == locked.num_inputs(),
           "the oracle has " << oracle.num_inputs()
                             << " inputs but the locked netlist has "
                             << locked.num_inputs());
  IC_CHECK(oracle.num_outputs() == locked.num_outputs(),
           "the oracle has " << oracle.num_outputs()
                             << " outputs but the locked netlist has "
                             << locked.num_outputs());
}

AttackResult sat_attack(const Netlist& locked, Oracle& oracle,
                        const AttackOptions& options) {
  check_attack_inputs(locked, oracle);

  AttackResult result;
  Timer timer;
  Solver solver;

  telemetry::TraceSpan attack_span("sat_attack");
  // Metric handles are looked up once per process (the registry never frees
  // one), each where the attack first records into it.
  auto& registry = telemetry::MetricsRegistry::global();
  static telemetry::Histogram& dip_solve_seconds =
      registry.histogram("sat_attack.dip_solve_seconds");

  // Live progress slot: phase + DIP count + solver effort counters, read by
  // the heartbeat thread (progress.hpp). Publishing is a few relaxed atomic
  // stores per DIP — unmeasurable next to a solve call.
  telemetry::ProgressJob progress("sat_attack");
  progress.set_phase("build_miter");
  if (options.predicted_seconds > 0.0) {
    progress.set_predicted_seconds(options.predicted_seconds);
  }

  telemetry::TraceSpan miter_span("sat_attack/build_miter");
  Timer miter_timer;

  // Cone of influence of the key bits: only gates downstream of a
  // key-programmed LUT (or a key input feeding ordinary logic) can depend
  // on the key. Everything outside the cone is identical in both miter
  // copies and is fully determined by the DIP in the consistency copies.
  std::vector<bool> key_dependent(locked.size(), false);
  for (circuit::GateId id : locked.topological_order()) {
    const auto& g = locked.gate(id);
    if (g.kind == circuit::GateKind::KeyInput) {
      key_dependent[id] = true;
      continue;
    }
    if (g.kind == circuit::GateKind::Lut && g.key_base >= 0) {
      key_dependent[id] = true;
      continue;
    }
    for (circuit::GateId f : g.fanins) {
      if (key_dependent[f]) {
        key_dependent[id] = true;
        break;
      }
    }
  }

  // Constant vars used by the cone-reduced encodings.
  const Var const_true = solver.new_var();
  const Var const_false = solver.new_var();
  solver.add_clause({sat::pos(const_true)});
  solver.add_clause({sat::neg(const_false)});

  // Two copies sharing inputs and the entire key-independent half, with
  // independent keys.
  const CircuitEncoding enc1 = encode_netlist(locked, solver);
  std::vector<Var> shared(locked.size(), sat::kNoVar);
  for (std::size_t g = 0; g < locked.size(); ++g) {
    if (!key_dependent[g]) shared[g] = enc1.gate_vars[g];
  }
  const CircuitEncoding enc2 = encode_netlist(locked, solver, std::move(shared));

  // Miter: act → OR_i (y1_i ⊕ y2_i), restricted to key-dependent outputs —
  // the others are the same variable in both copies and can never differ.
  std::vector<Var> outs1, outs2;
  for (std::size_t i = 0; i < locked.num_outputs(); ++i) {
    if (!key_dependent[locked.outputs()[i]]) continue;
    outs1.push_back(enc1.output_vars[i]);
    outs2.push_back(enc2.output_vars[i]);
  }
  const Var act = solver.new_var();
  std::vector<Lit> any_diff = output_diffs(solver, outs1, outs2);
  any_diff.push_back(sat::neg(act));
  solver.add_clause(any_diff);

  miter_span.end();
  static telemetry::Histogram& miter_build_seconds =
      registry.histogram("sat_attack.miter_build_seconds");
  miter_build_seconds.observe(miter_timer.seconds());
  ICLOG(debug) << "miter built" << telemetry::kv("gates", locked.size())
               << telemetry::kv("keys", locked.num_keys())
               << telemetry::kv("seconds", miter_timer.seconds());
  progress.set_phase("dip_search");

  // Simulator for folding the key-independent values of each DIP.
  const circuit::Simulator locked_sim(locked);
  const std::vector<bool> zero_key(locked.num_keys(), false);

  auto remaining_budget = [&]() -> std::uint64_t {
    if (options.max_conflicts == 0) return 0;
    const std::uint64_t used = solver.stats().conflicts;
    return used >= options.max_conflicts ? 1 : options.max_conflicts - used;
  };

  // Called exactly once per attack, on every return path. Besides filling
  // the result, it publishes the per-attack deltas to the metrics registry —
  // observability only, never read back, so determinism is untouched.
  auto snapshot_stats = [&]() {
    result.conflicts = solver.stats().conflicts;
    result.propagations = solver.stats().propagations;
    result.decisions = solver.stats().decisions;
    result.oracle_queries = oracle.query_count();
    result.wall_seconds = timer.seconds();

    static telemetry::Counter& attacks = registry.counter("sat_attack.attacks");
    static telemetry::Counter& iterations =
        registry.counter("sat_attack.iterations");
    static telemetry::Counter& conflicts =
        registry.counter("sat_attack.conflicts");
    static telemetry::Counter& propagations =
        registry.counter("sat_attack.propagations");
    static telemetry::Counter& decisions =
        registry.counter("sat_attack.decisions");
    static telemetry::Counter& oracle_queries =
        registry.counter("sat_attack.oracle_queries");
    attacks.add(1);
    iterations.add(result.iterations);
    conflicts.add(result.conflicts);
    propagations.add(result.propagations);
    decisions.add(result.decisions);
    oracle_queries.add(result.oracle_queries);
    if (result.hit_cap) {
      static telemetry::Counter& caps_hit =
          registry.counter("sat_attack.caps_hit");
      caps_hit.add(1);
    }
    static telemetry::Gauge& last_wall_seconds =
        registry.gauge("sat_attack.last_wall_seconds");
    last_wall_seconds.set(result.wall_seconds);

    // Calibration telemetry: the estimator's prediction against the modeled
    // seconds the labels are made of (estimated_seconds(), which datasets
    // label with), so the error measures the model and not the machine.
    // Capped attacks are excluded from the error histograms (their effort is
    // the cap, not the workload) but counted, so the capped fraction is
    // visible next to the error distribution.
    if (options.predicted_seconds > 0.0) {
      static telemetry::Counter& samples =
          registry.counter("estimator.calibration.samples");
      samples.add(1);
      if (result.hit_cap) {
        static telemetry::Counter& capped =
            registry.counter("estimator.calibration.capped");
        capped.add(1);
      } else {
        static telemetry::Histogram& log10_error = registry.histogram(
            "estimator.calibration.signed_log10_error",
            {kCalibrationLog10ErrorBounds.begin(),
             kCalibrationLog10ErrorBounds.end()});
        static telemetry::Histogram& rel_error = registry.histogram(
            "estimator.calibration.abs_rel_error",
            {kCalibrationRelErrorBounds.begin(),
             kCalibrationRelErrorBounds.end()});
        const double actual = std::max(result.estimated_seconds(), 1e-9);
        // Signed log-ratio: negative = overprediction, positive = the attack
        // outlived its estimate; one decade per unit.
        log10_error.observe(std::log10(actual / options.predicted_seconds));
        rel_error.observe(std::fabs(actual - options.predicted_seconds) /
                          options.predicted_seconds);
      }
    }
    ICLOG(info) << "sat_attack finished"
                << telemetry::kv("success", result.success)
                << telemetry::kv("hit_cap", result.hit_cap)
                << telemetry::kv("dips", result.iterations)
                << telemetry::kv("conflicts", result.conflicts)
                << telemetry::kv("propagations", result.propagations)
                << telemetry::kv("wall_s", result.wall_seconds);
  };

  std::vector<bool> dip(locked.num_inputs());
  for (;;) {
    if (options.max_conflicts != 0 &&
        solver.stats().conflicts >= options.max_conflicts) {
      result.hit_cap = true;
      snapshot_stats();
      return result;
    }
    if (options.max_wall_seconds > 0.0 &&
        timer.seconds() >= options.max_wall_seconds) {
      result.hit_cap = true;
      snapshot_stats();
      return result;
    }

    telemetry::TraceSpan iter_span("sat_attack/dip_iter");
    solver.set_max_conflicts(remaining_budget());
    const std::uint64_t conflicts_before = solver.stats().conflicts;
    Timer solve_timer;
    const Result r = solver.solve({sat::pos(act)});
    dip_solve_seconds.observe(solve_timer.seconds());
    ICLOG(debug) << "dip solve" << telemetry::kv("iter", result.iterations)
                 << telemetry::kv("seconds", solve_timer.seconds())
                 << telemetry::kv("conflicts",
                                  solver.stats().conflicts - conflicts_before);

    if (r == Result::Unknown) {
      result.hit_cap = true;
      snapshot_stats();
      return result;
    }
    if (r == Result::Unsat) break;  // no more DIPs: keys are fixed

    // Extract the DIP and query the oracle.
    for (std::size_t i = 0; i < dip.size(); ++i) {
      dip[i] = solver.model_value(enc1.input_vars[i]);
    }
    const std::vector<bool> response = oracle.query(dip);
    ++result.iterations;
    progress.tick(result.iterations);
    progress.set_counters("conflicts", solver.stats().conflicts,
                          "propagations", solver.stats().propagations);

    // Constrain both key copies to reproduce the oracle response on the
    // DIP. Only the key-dependent cone is encoded: every other gate's value
    // under this DIP is key-independent and folded to a constant.
    std::vector<Var> fixed(locked.size(), sat::kNoVar);
    const auto dip_values = locked_sim.eval_all(dip, zero_key);
    for (std::size_t g = 0; g < locked.size(); ++g) {
      if (!key_dependent[g]) fixed[g] = dip_values[g] ? const_true : const_false;
    }
    for (const CircuitEncoding* enc : {&enc1, &enc2}) {
      std::vector<Var> vars = fixed;
      for (circuit::GateId k : locked.key_inputs()) vars[k] = enc->gate_vars[k];
      const CircuitEncoding copy = encode_netlist(locked, solver, std::move(vars));
      for (std::size_t i = 0; i < response.size(); ++i) {
        // Key-independent outputs are const vars and the unit is dropped as
        // satisfied (the simulation matches the oracle there by
        // construction).
        solver.add_clause({Lit(copy.output_vars[i], !response[i])});
      }
    }
  }

  // Miter UNSAT: extract any key satisfying the accumulated constraints.
  progress.set_phase("extract_key");
  telemetry::TraceSpan extract_span("sat_attack/extract_key");
  solver.set_max_conflicts(remaining_budget());
  const Result r = solver.solve({sat::neg(act)});
  if (r != Result::Sat) {
    // Either the conflict budget ran out during extraction or the locked
    // netlist is inconsistent with the oracle (wrong oracle).
    result.hit_cap = (r == Result::Unknown);
    snapshot_stats();
    return result;
  }
  result.key.resize(locked.num_keys());
  for (std::size_t i = 0; i < result.key.size(); ++i) {
    result.key[i] = solver.model_value(enc1.key_vars[i]);
  }
  result.success = true;
  snapshot_stats();
  return result;
}

std::size_t verify_key(const Netlist& locked, const std::vector<bool>& key,
                       const Netlist& unlocked, std::size_t words,
                       std::uint64_t seed) {
  return circuit::count_output_mismatches(locked, key, unlocked, {}, words, seed);
}

}  // namespace ic::attack

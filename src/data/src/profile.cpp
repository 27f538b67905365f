#include "ic/data/profile.hpp"

#include <cstdlib>

#include "ic/support/assert.hpp"

namespace ic::data {

ExperimentProfile ExperimentProfile::ci() {
  ExperimentProfile p;
  p.name = "ci";
  return p;
}

ExperimentProfile ExperimentProfile::paper() {
  ExperimentProfile p;
  p.name = "paper";
  p.circuit_gates = 1529;
  p.circuit_inputs = 64;
  p.circuit_outputs = 32;
  p.d1_instances = 400;
  p.d1_max_gates = 350;
  p.d2_instances = 200;
  p.attack_max_conflicts = 500000;
  p.attack_max_wall_seconds = 2500.0;  // the paper's hardest instance: 2411 s
  p.gnn_epochs = 300;
  p.case_study_instances = 100;
  p.case_study_max_gates = 48;
  return p;
}

ExperimentProfile ExperimentProfile::from_env() {
  const char* env = std::getenv("ICNET_PROFILE");
  if (env == nullptr || std::string(env) == "ci") return ci();
  if (std::string(env) == "paper") return paper();
  input_error("ICNET_PROFILE must be 'ci' or 'paper', got '" + std::string(env) + "'");
}

DatasetOptions ExperimentProfile::dataset1_options() const {
  DatasetOptions o;
  o.num_instances = d1_instances;
  o.min_gates = 1;
  o.max_gates = d1_max_gates;
  o.attack.max_conflicts = attack_max_conflicts;
  o.attack.max_wall_seconds = attack_max_wall_seconds;
  o.seed = seed;
  return o;
}

DatasetOptions ExperimentProfile::dataset2_options() const {
  DatasetOptions o;
  o.num_instances = d2_instances;
  o.min_gates = 1;
  o.max_gates = 3;
  o.attack.max_conflicts = attack_max_conflicts;
  o.attack.max_wall_seconds = attack_max_wall_seconds;
  o.seed = seed + 1;
  return o;
}

}  // namespace ic::data

#include <gtest/gtest.h>

#include <algorithm>

#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"

namespace ic::circuit {
namespace {

TEST(Generator, HitsRequestedSizesExactly) {
  GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 4;
  spec.num_gates = 64;
  spec.seed = 3;
  const Netlist nl = generate_circuit(spec, "t");
  EXPECT_EQ(nl.num_inputs(), 10u);
  EXPECT_EQ(nl.num_logic_gates(), 64u);
  EXPECT_GE(nl.num_outputs(), 4u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorSpec spec;
  spec.num_gates = 50;
  spec.seed = 11;
  const Netlist a = generate_circuit(spec, "a");
  const Netlist b = generate_circuit(spec, "b");
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(count_output_mismatches(a, {}, b, {}, 16, 5), 0u);
  spec.seed = 12;
  const Netlist c = generate_circuit(spec, "c");
  // Different seed ought to give a functionally different circuit.
  if (c.size() == a.size() && c.num_outputs() == a.num_outputs() &&
      c.num_inputs() == a.num_inputs()) {
    EXPECT_GT(count_output_mismatches(a, {}, c, {}, 16, 5), 0u);
  }
}

TEST(Generator, NoDeadLogic) {
  GeneratorSpec spec;
  spec.num_gates = 120;
  spec.seed = 21;
  const Netlist nl = generate_circuit(spec, "t");
  const auto fo = nl.fanouts();
  for (GateId id = 0; id < nl.size(); ++id) {
    if (!is_logic(nl.gate(id).kind)) continue;
    const bool is_output = std::find(nl.outputs().begin(), nl.outputs().end(),
                                     id) != nl.outputs().end();
    EXPECT_TRUE(is_output || !fo[id].empty())
        << "gate " << nl.gate(id).name << " is dead";
  }
}

class GeneratorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSweep, ProducesValidCircuitsAcrossSeeds) {
  GeneratorSpec spec;
  spec.num_inputs = 16;
  spec.num_outputs = 8;
  spec.num_gates = 200;
  spec.seed = GetParam();
  const Netlist nl = generate_circuit(spec, "sweep");
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.num_logic_gates(), 200u);
  // The simulator must be able to evaluate it.
  Simulator sim(nl);
  const auto out = sim.eval(std::vector<bool>(16, true));
  EXPECT_EQ(out.size(), nl.num_outputs());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(Generator, GateAlphabetMatchesIscas) {
  GeneratorSpec spec;
  spec.num_gates = 300;
  spec.seed = 2;
  const Netlist nl = generate_circuit(spec, "t");
  const auto hist = nl.kind_histogram();
  EXPECT_EQ(hist[static_cast<int>(GateKind::Lut)], 0u);
  EXPECT_EQ(hist[static_cast<int>(GateKind::Buf)], 0u);
  EXPECT_GT(hist[static_cast<int>(GateKind::Not)], 0u);
  const std::size_t multi = hist[static_cast<int>(GateKind::And)] +
                            hist[static_cast<int>(GateKind::Nand)] +
                            hist[static_cast<int>(GateKind::Or)] +
                            hist[static_cast<int>(GateKind::Nor)] +
                            hist[static_cast<int>(GateKind::Xor)] +
                            hist[static_cast<int>(GateKind::Xnor)];
  EXPECT_GT(multi, 0u);
}

TEST(Library, PaperMainHas1529Gates) {
  const Netlist nl = paper_main();
  EXPECT_EQ(nl.num_logic_gates(), 1529u);  // §IV.A of the paper
  EXPECT_NO_THROW(nl.validate());
}

TEST(Library, CaseStudyCircuitSizes) {
  EXPECT_EQ(c499_like().num_logic_gates(), 202u);
  EXPECT_EQ(c1355_like().num_logic_gates(), 546u);
  EXPECT_EQ(c2670_like().num_logic_gates(), 1193u);
}

TEST(Library, LookupByNameMatchesFactories) {
  for (const auto& name : library_circuit_names()) {
    const Netlist nl = circuit_by_name(name);
    EXPECT_EQ(nl.name(), name);
  }
  EXPECT_THROW(circuit_by_name("c404"), std::runtime_error);
}

}  // namespace
}  // namespace ic::circuit

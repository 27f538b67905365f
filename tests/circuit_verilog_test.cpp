#include <gtest/gtest.h>

#include "ic/circuit/generator.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"
#include "ic/circuit/verilog_io.hpp"

namespace ic::circuit {
namespace {

constexpr const char* kC17Verilog = R"(
// ISCAS-85 c17 in structural Verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand NAND2_1 (N10, N1, N3);
  nand NAND2_2 (N11, N3, N6);
  nand NAND2_3 (N16, N2, N11);
  nand NAND2_4 (N19, N11, N7);
  nand NAND2_5 (N22, N10, N16);
  nand NAND2_6 (N23, N16, N19);
endmodule
)";

TEST(VerilogIo, ParsesC17) {
  const Netlist nl = parse_verilog(kC17Verilog);
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.num_inputs(), 5u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_logic_gates(), 6u);
  // Functionally identical to the .bench-sourced c17 (port order matches).
  EXPECT_EQ(count_output_mismatches(nl, {}, c17(), {}, 16, 1), 0u);
}

TEST(VerilogIo, RoundTripPreservesFunction) {
  GeneratorSpec spec;
  spec.num_inputs = 10;
  spec.num_outputs = 5;
  spec.num_gates = 50;
  spec.seed = 17;
  const Netlist nl = generate_circuit(spec, "vrt");
  const Netlist rt = parse_verilog(write_verilog(nl));
  EXPECT_EQ(rt.num_inputs(), nl.num_inputs());
  EXPECT_EQ(rt.num_outputs(), nl.num_outputs());
  EXPECT_EQ(count_output_mismatches(nl, {}, rt, {}, 32, 2), 0u);
}

TEST(VerilogIo, BlockCommentsAndUnnamedInstances) {
  const Netlist nl = parse_verilog(R"(
module m (a, b, y);
  input a, b; /* two
  inputs */
  output y;
  and (y, a, b);  // unnamed instance
endmodule
)");
  EXPECT_EQ(nl.num_logic_gates(), 1u);
  Simulator sim(nl);
  EXPECT_TRUE(sim.eval({true, true})[0]);
  EXPECT_FALSE(sim.eval({true, false})[0]);
}

TEST(VerilogIo, OutOfOrderInstancesResolve) {
  const Netlist nl = parse_verilog(R"(
module m (a, b, y);
  input a, b;
  output y;
  wire t;
  not n1 (y, t);
  or  o1 (t, a, b);
endmodule
)");
  EXPECT_EQ(nl.num_logic_gates(), 2u);
  Simulator sim(nl);
  EXPECT_TRUE(sim.eval({false, false})[0]);  // NOR behaviour
  EXPECT_FALSE(sim.eval({true, false})[0]);
}

TEST(VerilogIo, InstanceNamesAreReadFromTheSyntaxNotTheTerminalCount) {
  // The same AND gate named and unnamed, with two and three inputs: a name
  // is whatever stands between the primitive and '('.
  for (const std::string name : {"", "g1 "}) {
    for (const bool three : {false, true}) {
      const std::string text =
          "module m (a, b, c, w);\n  input a, b, c;\n  output w;\n  and " +
          name + (three ? "(w, a, b, c);\n" : "(w, a, b);\n") + "endmodule\n";
      const Netlist nl = parse_verilog(text);
      ASSERT_EQ(nl.num_logic_gates(), 1u) << text;
      const Gate& w = nl.gate(nl.find("w"));
      EXPECT_EQ(w.kind, GateKind::And) << text;
      EXPECT_EQ(w.fanins.size(), three ? 3u : 2u) << text;
      Simulator sim(nl);
      EXPECT_TRUE(sim.eval({true, true, true})[0]) << text;
      EXPECT_EQ(sim.eval({true, true, false})[0], !three) << text;
    }
  }
  // More than one word before '(' is not an instance.
  EXPECT_THROW(parse_verilog("module m (a, b, w);\n  input a, b;\n"
                             "  output w;\n  and g1 g2 (w, a, b);\nendmodule\n"),
               std::runtime_error);
}

TEST(VerilogIo, KeyinputNamesBecomeKeyInputs) {
  const Netlist nl = parse_verilog(R"(
module locked (a, keyinput0, y);
  input a, keyinput0;
  output y;
  xor x1 (y, a, keyinput0);
endmodule
)");
  EXPECT_EQ(nl.num_inputs(), 1u);
  EXPECT_EQ(nl.num_keys(), 1u);
}

TEST(VerilogIo, Errors) {
  EXPECT_THROW(parse_verilog("wire x;"), std::runtime_error);  // no module
  EXPECT_THROW(parse_verilog("module m (y); output y; endmodule"),
               std::runtime_error);  // undriven output
  EXPECT_THROW(parse_verilog(R"(
module m (a, y);
  input a;
  output y;
  frobnicate f1 (y, a);
endmodule
)"),
               std::runtime_error);  // unknown primitive
  EXPECT_THROW(parse_verilog(R"(
module m (a, y);
  input a;
  output y;
  not n1 (y, ghost);
endmodule
)"),
               std::runtime_error);  // undeclared driver
}

TEST(VerilogIo, WriterRejectsLuts) {
  Netlist nl("lutty");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  nl.mark_output(nl.add_fixed_lut({a, b}, {false, true, true, false}, "y"));
  EXPECT_THROW(write_verilog(nl), std::runtime_error);
}

TEST(VerilogIo, FileRoundTrip) {
  const Netlist nl = parse_verilog(kC17Verilog);
  const std::string path = ::testing::TempDir() + "/c17_test.v";
  write_verilog_file(nl, path);
  const Netlist loaded = read_verilog_file(path);
  EXPECT_EQ(count_output_mismatches(nl, {}, loaded, {}, 8, 3), 0u);
  EXPECT_THROW(read_verilog_file("/nonexistent.v"), std::runtime_error);
}

}  // namespace
}  // namespace ic::circuit

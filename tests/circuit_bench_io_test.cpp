#include <gtest/gtest.h>

#include "ic/circuit/bench_io.hpp"
#include "ic/circuit/library.hpp"
#include "ic/circuit/simulator.hpp"

namespace ic::circuit {
namespace {

TEST(BenchIo, ParsesC17) {
  const Netlist nl = c17();
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.num_inputs(), 5u);
  EXPECT_EQ(nl.num_outputs(), 2u);
  EXPECT_EQ(nl.num_logic_gates(), 6u);
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.gate(id).kind)) {
      EXPECT_EQ(nl.gate(id).kind, GateKind::Nand);
    }
  }
}

TEST(BenchIo, RoundTripPreservesStructureAndFunction) {
  const Netlist original = c17();
  const Netlist reparsed = parse_bench(write_bench(original), "c17rt");
  EXPECT_EQ(reparsed.size(), original.size());
  EXPECT_EQ(reparsed.num_inputs(), original.num_inputs());
  EXPECT_EQ(reparsed.num_outputs(), original.num_outputs());
  EXPECT_EQ(count_output_mismatches(original, {}, reparsed, {}, 8, 1), 0u);
}

TEST(BenchIo, ForwardReferencesResolve) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(t, b)
t = OR(a, b)
)");
  EXPECT_EQ(nl.num_logic_gates(), 2u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  const Netlist nl = parse_bench(R"(
# a comment
INPUT(a)   # trailing comment
INPUT(b)

OUTPUT(y)
y = NAND(a, b)
)");
  EXPECT_EQ(nl.num_logic_gates(), 1u);
}

TEST(BenchIo, KeyinputNamesBecomeKeyInputs) {
  const Netlist nl = parse_bench(R"(
INPUT(a)
INPUT(keyinput0)
OUTPUT(y)
y = XOR(a, keyinput0)
)");
  EXPECT_EQ(nl.num_inputs(), 1u);
  EXPECT_EQ(nl.num_keys(), 1u);
}

TEST(BenchIo, FixedLutRoundTrip) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
y = LUT 0x6 (a, b)
)";
  const Netlist nl = parse_bench(text);
  const Gate& g = nl.gate(nl.find("y"));
  ASSERT_EQ(g.kind, GateKind::Lut);
  ASSERT_EQ(g.lut_truth.size(), 4u);
  // 0x6 = 0110: XOR truth table.
  EXPECT_FALSE(g.lut_truth[0]);
  EXPECT_TRUE(g.lut_truth[1]);
  EXPECT_TRUE(g.lut_truth[2]);
  EXPECT_FALSE(g.lut_truth[3]);
  const Netlist rt = parse_bench(write_bench(nl));
  EXPECT_EQ(count_output_mismatches(nl, {}, rt, {}, 4, 2), 0u);
}

TEST(BenchIo, KeyLutRoundTrip) {
  const char* text = R"(
INPUT(a)
INPUT(b)
INPUT(keyinput0)
INPUT(keyinput1)
INPUT(keyinput2)
INPUT(keyinput3)
OUTPUT(y)
y = KLUT 0 (a, b)
)";
  const Netlist nl = parse_bench(text);
  EXPECT_EQ(nl.num_keys(), 4u);
  const Gate& g = nl.gate(nl.find("y"));
  EXPECT_EQ(g.kind, GateKind::Lut);
  EXPECT_EQ(g.key_base, 0);
  const Netlist rt = parse_bench(write_bench(nl));
  const std::vector<bool> key{false, true, true, false};  // XOR program
  EXPECT_EQ(count_output_mismatches(nl, key, rt, key, 4, 3), 0u);
}

struct BadInput {
  const char* label;
  const char* text;
};

class BenchIoErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(BenchIoErrors, Throws) {
  EXPECT_THROW(parse_bench(GetParam().text), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BenchIoErrors,
    ::testing::Values(
        BadInput{"MissingParen", "INPUT(a)\nOUTPUT y\n"},
        BadInput{"UnknownKind", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = FROB(a, b)\n"},
        BadInput{"UndefinedSignal", "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n"},
        BadInput{"UndefinedOutput", "INPUT(a)\nOUTPUT(nope)\nx = NOT(a)\n"},
        BadInput{"Cycle", "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = NOT(p)\n"},
        BadInput{"MissingEquals", "INPUT(a)\nOUTPUT(y)\ny NOT(a)\n"},
        BadInput{"LutWithoutConstant", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = LUT (a, b)\n"},
        BadInput{"KlutBadBase",
                 "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = KLUT zero (a, b)\n"},
        // The key inputs exist, so only the base's text is at fault.
        BadInput{"KlutBaseWithSuffix",
                 "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nINPUT(keyinput1)\n"
                 "INPUT(keyinput2)\nINPUT(keyinput3)\nOUTPUT(y)\n"
                 "y = KLUT 0abc (a, b)\n"},
        BadInput{"KlutFractionalBase",
                 "INPUT(a)\nINPUT(b)\nINPUT(keyinput0)\nINPUT(keyinput1)\n"
                 "INPUT(keyinput2)\nINPUT(keyinput3)\nOUTPUT(y)\n"
                 "y = KLUT 0.5 (a, b)\n"}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(BenchIo, FileIoRoundTrip) {
  const Netlist nl = c17();
  const std::string path = ::testing::TempDir() + "/c17_test.bench";
  write_bench_file(nl, path);
  const Netlist loaded = read_bench_file(path);
  EXPECT_EQ(loaded.size(), nl.size());
  EXPECT_THROW(read_bench_file("/nonexistent/file.bench"), std::runtime_error);
}

}  // namespace
}  // namespace ic::circuit

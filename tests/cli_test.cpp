// icnet_cli's numeric flags, driven through the real binary: a value that is
// not one whole number in the flag's range is a usage error (exit 2) whose
// message names the flag and the text, and well-formed values still work.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ic/circuit/bench_io.hpp"

namespace {

struct CliRun {
  int status = -1;
  std::string stderr_text;
};

CliRun run_cli(const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "cli_test_stderr.txt";
  const std::string command = std::string("'") + IC_CLI_PATH + "' " + args +
                              " >/dev/null 2>'" + err_path + "'";
  const int raw = std::system(command.c_str());
  CliRun run;
  if (raw != -1 && WIFEXITED(raw)) run.status = WEXITSTATUS(raw);
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  run.stderr_text = text.str();
  return run;
}

/// A path under the test temp dir, quoted for the shell.
std::string temp_path(const std::string& name) {
  std::string quoted = "'";
  quoted += ::testing::TempDir();
  quoted += name;
  quoted += '\'';
  return quoted;
}

TEST(Cli, GenWritesTheRequestedGateCount) {
  const std::string path = ::testing::TempDir() + "cli_test_gen40.bench";
  const CliRun run = run_cli("gen '" + path + "' --gates 40 --seed 3");
  ASSERT_EQ(run.status, 0) << run.stderr_text;
  EXPECT_EQ(ic::circuit::read_bench_file(path).num_logic_gates(), 40u);
  std::remove(path.c_str());
}

struct BadFlag {
  std::string command;  ///< subcommand and the arguments before the flag
  std::string flag;
  std::string value;
};

TEST(Cli, BadNumericFlagsExitTwoNamingTheFlag) {
  const std::string circuit_path = ::testing::TempDir() + "cli_test_in.bench";
  const std::string circuit = temp_path("cli_test_in.bench");
  ASSERT_EQ(run_cli("gen " + circuit + " --gates 40").status, 0);
  const std::string out = temp_path("cli_test_out");
  const BadFlag cases[] = {
      {"gen " + out, "gates", "abc"},
      {"gen " + out, "gates", "40abc"},
      {"lock " + circuit + " " + out, "gates", "2.9"},
      {"lock " + circuit + " " + out, "gates", "-2"},
      {"dataset " + circuit + " " + out, "instances", "1e999"},
      {"query", "port", "abc"},
      {"query", "port", "70000"},
      {"stats --port 1", "timeout-ms", "x"},
      {"search " + circuit + " " + out, "area-weight", "+1"},
      {"gen " + out, "progress-interval", "x"},
      {"gen " + out, "progress-interval", "1e300"},
      {"gen " + out, "jobs", "-1"},
      {"gen " + out, "jobs", "0"},
      {"gen " + out, "metrics-interval", "1.5"},
  };
  for (const BadFlag& c : cases) {
    const std::string args = c.command + " --" + c.flag + " " + c.value;
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.status, 2) << args << "\n" << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("--" + c.flag), std::string::npos)
        << args << "\n" << run.stderr_text;
    EXPECT_NE(run.stderr_text.find("'" + c.value + "'"), std::string::npos)
        << args << "\n" << run.stderr_text;
  }
  std::remove(circuit_path.c_str());
}

/// Writes a .bench netlist with `inputs` inputs and one output, their AND.
void write_and_netlist(const std::string& name, int inputs) {
  std::ofstream out(::testing::TempDir() + name);
  for (int i = 0; i < inputs; ++i) out << "INPUT(i" << i << ")\n";
  out << "OUTPUT(o)\no = AND(i0";
  for (int i = 1; i < inputs; ++i) out << ", i" << i;
  out << ")\n";
}

TEST(Cli, AttackRefusesAnUnlockedNetlistAndAMismatchedOracleAsInputErrors) {
  const std::string plain = temp_path("cli_test_plain.bench");
  const std::string locked = temp_path("cli_test_locked.bench");
  ASSERT_EQ(run_cli("gen " + plain + " --gates 40 --inputs 8 --seed 3").status, 0);
  ASSERT_EQ(run_cli("lock " + plain + " " + locked + " --gates 3 --seed 5").status, 0);
  const std::size_t outputs =
      ic::circuit::read_bench_file(::testing::TempDir() + "cli_test_locked.bench")
          .num_outputs();
  ASSERT_GT(outputs, 1u);
  write_and_netlist("cli_test_six_inputs.bench", 6);
  write_and_netlist("cli_test_one_output.bench", 8);

  struct Case {
    std::string args;
    std::string message;  ///< what stderr must say
  };
  const Case cases[] = {
      {"attack " + plain + " " + plain, "has 0 key inputs"},
      {"attack " + locked + " " + temp_path("cli_test_six_inputs.bench"),
       "the oracle has 6 inputs but the locked netlist has 8"},
      {"attack " + locked + " " + temp_path("cli_test_one_output.bench"),
       "the oracle has 1 outputs but the locked netlist has " +
           std::to_string(outputs)},
  };
  for (const Case& c : cases) {
    const CliRun run = run_cli(c.args + " --flight-dump none");
    EXPECT_NE(run.status, 0) << c.args;
    EXPECT_NE(run.stderr_text.find(c.message), std::string::npos)
        << c.args << "\n" << run.stderr_text;
    EXPECT_EQ(run.stderr_text.find("contract violation"), std::string::npos)
        << c.args << "\n" << run.stderr_text;
  }
  for (const char* name : {"cli_test_plain.bench", "cli_test_locked.bench",
                           "cli_test_six_inputs.bench",
                           "cli_test_one_output.bench"}) {
    std::remove((::testing::TempDir() + name).c_str());
  }
}

}  // namespace

#include "ic/circuit/bench_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::circuit {

namespace {

struct PendingGate {
  std::string name;
  std::string kind;
  std::vector<std::string> fanin_names;
  std::vector<bool> lut_truth;   // fixed LUT
  std::int32_t key_base = -1;    // key LUT
  int line = 0;
};

[[noreturn]] void parse_error(int line, const std::string& msg) {
  input_error("bench parse error at line " + std::to_string(line) + ": " + msg);
}

// Extract "X(...)" -> contents between the outermost parens.
std::string_view paren_contents(std::string_view s, int line) {
  const std::size_t open = s.find('(');
  const std::size_t close = s.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    parse_error(line, "expected '(...)' in '" + std::string(s) + "'");
  }
  return s.substr(open + 1, close - open - 1);
}

std::vector<bool> parse_hex_truth(std::string_view hex, std::size_t arity, int line) {
  if (starts_with(hex, "0x") || starts_with(hex, "0X")) hex.remove_prefix(2);
  // A 64-bit constant holds at most 2^6 rows; check before shifting.
  IC_CHECK(arity <= 6, "bench parse error at line "
                           << line << ": fixed LUT with " << arity
                           << " fanins; a hex constant holds at most 6");
  const std::size_t rows = std::size_t{1} << arity;
  std::vector<bool> truth(rows, false);
  // Hex digits are most-significant-first; bit i of the value is row i.
  std::uint64_t value = 0;
  if (hex.size() > 16 || hex.empty()) {
    parse_error(line, "LUT truth constant must be 1..16 hex digits");
  }
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
    else parse_error(line, std::string("bad hex digit '") + c + "'");
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  for (std::size_t i = 0; i < rows; ++i) truth[i] = (value >> i) & 1u;
  return truth;
}

}  // namespace

Netlist parse_bench(std::string_view text, std::string name) {
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<PendingGate> pending;

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view raw =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments and whitespace.
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const std::string_view linev = trim(raw);
    if (linev.empty()) continue;
    const std::string line(linev);

    const std::string upper = to_upper(line);
    if (starts_with(upper, "INPUT")) {
      input_names.emplace_back(trim(paren_contents(line, line_no)));
    } else if (starts_with(upper, "OUTPUT")) {
      output_names.emplace_back(trim(paren_contents(line, line_no)));
    } else {
      const std::size_t eq = line.find('=');
      if (eq == std::string::npos) parse_error(line_no, "expected '='");
      PendingGate pg;
      pg.line = line_no;
      pg.name = std::string(trim(std::string_view(line).substr(0, eq)));
      std::string rhs(trim(std::string_view(line).substr(eq + 1)));
      const std::size_t open = rhs.find('(');
      if (open == std::string::npos) parse_error(line_no, "expected '(' on RHS");
      std::string head(trim(std::string_view(rhs).substr(0, open)));
      const auto head_parts = split(head, " \t");
      if (head_parts.empty()) parse_error(line_no, "missing gate kind");
      pg.kind = to_upper(head_parts[0]);
      const std::string args(trim(paren_contents(rhs, line_no)));
      for (const auto& a : split(args, ", \t")) pg.fanin_names.push_back(a);
      if (pg.fanin_names.empty()) parse_error(line_no, "gate has no fanins");

      if (pg.kind == "LUT") {
        if (head_parts.size() != 2) {
          parse_error(line_no, "LUT needs a truth constant: name = LUT 0x.. (a,b)");
        }
        pg.lut_truth = parse_hex_truth(head_parts[1], pg.fanin_names.size(), line_no);
      } else if (pg.kind == "KLUT") {
        if (head_parts.size() != 2) {
          parse_error(line_no, "KLUT needs a key base: name = KLUT <n> (a,b)");
        }
        const auto key_base = parse_number<std::int32_t>(head_parts[1]);
        if (!key_base) {
          parse_error(line_no, "bad KLUT key base '" + head_parts[1] + "'");
        }
        pg.key_base = *key_base;
      } else if (head_parts.size() != 1) {
        parse_error(line_no, "unexpected tokens before '(' in '" + line + "'");
      }
      pending.push_back(std::move(pg));
    }
  }

  Netlist nl(std::move(name));
  // Key inputs must be created in their key-vector order: sort "keyinput*"
  // names by their numeric suffix when present, otherwise by position.
  for (const auto& in : input_names) {
    if (starts_with(to_lower(in), "keyinput")) {
      nl.add_key_input(in);
    } else {
      nl.add_input(in);
    }
  }

  // Resolve fanins; .bench allows forward references, so iterate until all
  // pending gates are placed (the dependency graph is a DAG for valid files).
  std::vector<bool> placed(pending.size(), false);
  std::size_t remaining = pending.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (placed[i]) continue;
      PendingGate& pg = pending[i];
      std::vector<GateId> fanins;
      fanins.reserve(pg.fanin_names.size());
      bool ready = true;
      for (const auto& fn : pg.fanin_names) {
        const GateId f = nl.find(fn);
        if (f == kNoGate) { ready = false; break; }
        fanins.push_back(f);
      }
      if (!ready) continue;
      if (pg.kind == "LUT") {
        nl.add_fixed_lut(std::move(fanins), pg.lut_truth, pg.name);
      } else if (pg.kind == "KLUT") {
        nl.add_key_lut(std::move(fanins), pg.key_base, pg.name);
      } else {
        nl.add_gate(gate_kind_from_name(pg.kind), std::move(fanins), pg.name);
      }
      placed[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (!placed[i]) {
          parse_error(pending[i].line,
                      "unresolvable fanin reference (cycle or undefined signal) for '" +
                          pending[i].name + "'");
        }
      }
    }
  }

  for (const auto& out : output_names) {
    const GateId id = nl.find(out);
    IC_CHECK(id != kNoGate, "OUTPUT(" << out << ") names an undefined signal");
    nl.mark_output(id);
  }
  nl.validate();
  return nl;
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream in(path);
  IC_CHECK(in.good(), "cannot open bench file '" << path << "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_bench(ss.str(), path);
}

std::string write_bench(const Netlist& nl) {
  std::ostringstream os;
  os << "# " << nl.name() << " — " << nl.num_inputs() << " inputs, "
     << nl.num_keys() << " key inputs, " << nl.num_outputs() << " outputs, "
     << nl.num_logic_gates() << " gates\n";
  for (GateId id : nl.primary_inputs()) os << "INPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.key_inputs()) os << "INPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.outputs()) os << "OUTPUT(" << nl.gate(id).name << ")\n";
  for (GateId id : nl.topological_order()) {
    const Gate& g = nl.gate(id);
    if (!is_logic(g.kind)) continue;
    os << g.name << " = ";
    if (g.kind == GateKind::Lut) {
      if (g.key_base >= 0) {
        os << "KLUT " << g.key_base;
      } else {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < g.lut_truth.size(); ++i) {
          if (g.lut_truth[i]) value |= std::uint64_t{1} << i;
        }
        os << "LUT 0x" << std::hex << value << std::dec;
      }
      os << " (";
    } else {
      os << gate_kind_name(g.kind) << "(";
    }
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << nl.gate(g.fanins[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

void write_bench_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  IC_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << write_bench(nl);
  IC_CHECK(out.good(), "write to '" << path << "' failed");
}

}  // namespace ic::circuit

#include "ic/circuit/verilog_io.hpp"

#include <fstream>
#include <sstream>
#include <unordered_set>

#include "ic/support/assert.hpp"
#include "ic/support/strings.hpp"

namespace ic::circuit {

namespace {

[[noreturn]] void verilog_error(const std::string& msg) {
  input_error("verilog parse error: " + msg);
}

/// Strip // line comments and /* */ block comments.
std::string strip_comments(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (i + 1 < text.size() && text[i] == '/' && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (i + 1 < text.size() && text[i] == '/' && text[i + 1] == '*') {
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) ++i;
      IC_CHECK(i + 1 < text.size(), "verilog parse error: unterminated /* comment");
      i += 2;
    } else {
      out.push_back(text[i++]);
    }
  }
  return out;
}

/// Split the module body into ';'-terminated statements.
std::vector<std::string> statements(std::string_view body) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] == ';') {
      const auto stmt = trim(body.substr(start, i - start));
      if (!stmt.empty()) out.emplace_back(stmt);
      start = i + 1;
    }
  }
  return out;
}

bool is_key_name(std::string_view name) {
  return starts_with(to_lower(name), "keyinput");
}

struct Instance {
  GateKind kind;
  std::vector<std::string> terminals;  // [0] = output
};

}  // namespace

Netlist parse_verilog(std::string_view raw) {
  const std::string text = strip_comments(raw);

  const std::size_t mod = text.find("module");
  IC_CHECK(mod != std::string::npos, "verilog parse error: no 'module'");
  const std::size_t endmod = text.find("endmodule", mod);
  IC_CHECK(endmod != std::string::npos, "verilog parse error: no 'endmodule'");

  // Module header: name and port list up to the first ';'.
  const std::size_t header_end = text.find(';', mod);
  IC_CHECK(header_end != std::string::npos && header_end < endmod,
           "verilog parse error: unterminated module header");
  const std::string header(
      trim(std::string_view(text).substr(mod + 6, header_end - mod - 6)));
  const std::size_t paren = header.find('(');
  const std::string module_name(
      trim(std::string_view(header).substr(0, paren == std::string::npos
                                                   ? header.size()
                                                   : paren)));
  IC_CHECK(!module_name.empty(), "verilog parse error: module has no name");

  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::vector<Instance> instances;

  const std::string_view body =
      std::string_view(text).substr(header_end + 1, endmod - header_end - 1);
  for (const std::string& stmt : statements(body)) {
    auto tokens = split(stmt, " \t\r\n(),");
    IC_CHECK(!tokens.empty(), "verilog parse error: empty statement");
    const std::string head = to_lower(tokens[0]);
    if (head == "input") {
      input_names.insert(input_names.end(), tokens.begin() + 1, tokens.end());
    } else if (head == "output") {
      output_names.insert(output_names.end(), tokens.begin() + 1, tokens.end());
    } else if (head == "wire") {
      continue;  // declarations carry no structure
    } else {
      // Primitive instantiation: kind [instance-name] (out, in...).
      GateKind kind;
      try {
        kind = gate_kind_from_name(head);
      } catch (const std::runtime_error&) {
        verilog_error("unsupported primitive '" + tokens[0] + "' in '" + stmt + "'");
      }
      IC_CHECK(is_logic(kind) && kind != GateKind::Lut,
               "verilog parse error: '" << head << "' is not a gate primitive");
      // The instance name is optional: it is whatever stands between the
      // primitive and '('.
      const std::size_t open = stmt.find('(');
      const std::size_t prefix =
          split(std::string_view(stmt).substr(0, open), " \t\r\n(),").size();
      IC_CHECK(open != std::string::npos && (prefix == 1 || prefix == 2),
               "verilog parse error: '" << stmt
                                        << "' is not 'kind [name] (out, in...)'");
      Instance inst;
      inst.kind = kind;
      inst.terminals = split(std::string_view(stmt).substr(open), " \t\r\n(),");
      const std::size_t min_terms = (kind == GateKind::Not || kind == GateKind::Buf) ? 2 : 3;
      IC_CHECK(inst.terminals.size() >= min_terms,
               "verilog parse error: '" << stmt << "' has too few terminals");
      instances.push_back(std::move(inst));
    }
  }

  Netlist nl(module_name);
  for (const auto& in : input_names) {
    if (is_key_name(in)) {
      nl.add_key_input(in);
    } else {
      nl.add_input(in);
    }
  }

  // Instances may appear in any order; resolve with the same worklist
  // approach as the .bench reader. Gate names are the *output net* names so
  // fanins can be resolved by net.
  std::vector<bool> placed(instances.size(), false);
  std::size_t remaining = instances.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (placed[i]) continue;
      const Instance& inst = instances[i];
      std::vector<GateId> fanins;
      bool ready = true;
      for (std::size_t t = 1; t < inst.terminals.size(); ++t) {
        const GateId f = nl.find(inst.terminals[t]);
        if (f == kNoGate) {
          ready = false;
          break;
        }
        fanins.push_back(f);
      }
      if (!ready) continue;
      nl.add_gate(inst.kind, std::move(fanins), inst.terminals[0]);
      placed[i] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      for (std::size_t i = 0; i < instances.size(); ++i) {
        if (!placed[i]) {
          verilog_error("unresolvable net (cycle or undeclared driver) for '" +
                        instances[i].terminals[0] + "'");
        }
      }
    }
  }

  for (const auto& out : output_names) {
    const GateId id = nl.find(out);
    IC_CHECK(id != kNoGate, "verilog parse error: output '" << out
                                                            << "' is undriven");
    nl.mark_output(id);
  }
  nl.validate();
  return nl;
}

Netlist read_verilog_file(const std::string& path) {
  std::ifstream in(path);
  IC_CHECK(in.good(), "cannot open verilog file '" << path << "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_verilog(ss.str());
}

std::string write_verilog(const Netlist& nl) {
  std::ostringstream os;
  os << "// " << nl.name() << " — generated by icnet\n";
  os << "module " << nl.name() << " (";
  bool first = true;
  auto emit_port = [&](const std::string& name) {
    if (!first) os << ", ";
    os << name;
    first = false;
  };
  for (GateId id : nl.primary_inputs()) emit_port(nl.gate(id).name);
  for (GateId id : nl.key_inputs()) emit_port(nl.gate(id).name);
  std::unordered_set<GateId> out_set(nl.outputs().begin(), nl.outputs().end());
  for (GateId id : nl.outputs()) emit_port(nl.gate(id).name);
  os << ");\n";

  os << "  input";
  first = true;
  for (GateId id : nl.primary_inputs()) {
    os << (first ? " " : ", ") << nl.gate(id).name;
    first = false;
  }
  for (GateId id : nl.key_inputs()) {
    os << (first ? " " : ", ") << nl.gate(id).name;
    first = false;
  }
  os << ";\n  output";
  first = true;
  for (GateId id : nl.outputs()) {
    os << (first ? " " : ", ") << nl.gate(id).name;
    first = false;
  }
  os << ";\n";

  // Wires: every logic gate that is not an output.
  std::vector<std::string> wires;
  for (GateId id = 0; id < nl.size(); ++id) {
    if (is_logic(nl.gate(id).kind) && !out_set.contains(id)) {
      wires.push_back(nl.gate(id).name);
    }
  }
  if (!wires.empty()) {
    os << "  wire";
    first = true;
    for (const auto& w : wires) {
      os << (first ? " " : ", ") << w;
      first = false;
    }
    os << ";\n";
  }

  std::size_t serial = 0;
  for (GateId id : nl.topological_order()) {
    const Gate& g = nl.gate(id);
    if (!is_logic(g.kind)) continue;
    IC_CHECK(g.kind != GateKind::Lut,
             "write_verilog: LUT gate '" << g.name
                                         << "' has no Verilog primitive");
    os << "  " << to_lower(gate_kind_name(g.kind)) << " g" << serial++ << " ("
       << g.name;
    for (GateId f : g.fanins) os << ", " << nl.gate(f).name;
    os << ");\n";
  }
  os << "endmodule\n";
  return os.str();
}

void write_verilog_file(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  IC_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << write_verilog(nl);
  IC_CHECK(out.good(), "write to '" << path << "' failed");
}

}  // namespace ic::circuit

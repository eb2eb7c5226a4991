#include "oracle.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common.hpp"

namespace corpusbench {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

int to_int(const std::string& token) {
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(token, &used);
  } catch (const std::exception&) {
    fail("bad number '" + token + "'");
  }
  if (used != token.size()) fail("bad number '" + token + "'");
  return value;
}

/// Logical lines of a BLIF file: comments stripped, `\` continuations
/// joined, blank lines dropped.
std::vector<std::string> blif_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string raw;
  std::string pending;
  while (std::getline(is, raw)) {
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ' ||
                            raw.back() == '\t'))
      raw.pop_back();
    if (!raw.empty() && raw.back() == '\\') {
      raw.pop_back();
      pending += raw + " ";
      continue;
    }
    pending += raw;
    if (pending.find_first_not_of(" \t") != std::string::npos)
      out.push_back(pending);
    pending.clear();
  }
  if (pending.find_first_not_of(" \t") != std::string::npos)
    out.push_back(pending);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// BLIF

blif_model blif_model::parse(const std::string& text) {
  blif_model model;
  std::unordered_map<std::string, int> id_of;
  const auto signal = [&](const std::string& name) {
    const auto [it, added] =
        id_of.emplace(name, static_cast<int>(id_of.size()));
    return it->second;
  };
  std::unordered_map<int, cover> driver;
  std::vector<int> driver_order;

  const std::vector<std::string> lines = blif_lines(text);
  cover* open = nullptr;
  int open_fanin = 0;
  bool open_seen_value = false;
  for (const std::string& line : lines) {
    const std::vector<std::string> tokens = split_ws(line);
    const std::string& head = tokens[0];
    if (head[0] == '.') {
      open = nullptr;
      if (head == ".model" || head == ".end") continue;
      if (head == ".inputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          model.inputs_.push_back(tokens[i]);
          model.input_signal_.push_back(signal(tokens[i]));
        }
      } else if (head == ".outputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i)
          model.outputs_.push_back(tokens[i]);
      } else if (head == ".names") {
        if (tokens.size() < 2) fail("blif: .names without an output");
        const int out = signal(tokens.back());
        if (driver.count(out) != 0)
          fail("blif: signal " + tokens.back() + " driven twice");
        cover c;
        for (std::size_t i = 1; i + 1 < tokens.size(); ++i)
          c.fanin.push_back(signal(tokens[i]));
        open_fanin = static_cast<int>(c.fanin.size());
        driver_order.push_back(out);
        open = &driver.emplace(out, std::move(c)).first->second;
        open_seen_value = false;
      } else {
        fail("blif: unsupported construct " + head);
      }
      continue;
    }
    if (open == nullptr) fail("blif: cover line outside .names: " + line);
    std::string cube;
    std::string value;
    if (open_fanin == 0) {
      if (tokens.size() != 1) fail("blif: bad constant line: " + line);
      value = tokens[0];
    } else {
      if (tokens.size() != 2) fail("blif: bad cover line: " + line);
      cube = tokens[0];
      value = tokens[1];
      if (static_cast<int>(cube.size()) != open_fanin ||
          cube.find_first_not_of("01-") != std::string::npos)
        fail("blif: bad cube: " + line);
    }
    if (value != "0" && value != "1") fail("blif: bad output value: " + line);
    const bool onset = value == "1";
    if (open_seen_value && onset != open->onset)
      fail("blif: mixed on-set and off-set cover");
    open->onset = onset;
    open_seen_value = true;
    open->cubes.push_back(cube);
  }

  model.signal_count_ = id_of.size();
  std::set<int> is_input(model.input_signal_.begin(),
                         model.input_signal_.end());
  for (const std::string& o : model.outputs_) {
    const auto it = id_of.find(o);
    if (it == id_of.end()) fail("blif: output " + o + " is never driven");
    model.output_signal_.push_back(it->second);
  }

  // Topological schedule by iterative DFS from every driven signal.
  std::vector<char> state(model.signal_count_, 0);  // 0 new, 1 open, 2 done
  for (const int root : driver_order) {
    if (state[static_cast<std::size_t>(root)] == 2) continue;
    std::vector<std::pair<int, std::size_t>> stack{{root, 0}};
    state[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [s, next] = stack.back();
      const cover& c = driver.at(s);
      if (next < c.fanin.size()) {
        const int f = c.fanin[next++];
        if (is_input.count(f) != 0 || state[static_cast<std::size_t>(f)] == 2)
          continue;
        if (state[static_cast<std::size_t>(f)] == 1)
          fail("blif: combinational cycle");
        if (driver.count(f) == 0) fail("blif: undriven signal");
        state[static_cast<std::size_t>(f)] = 1;
        stack.emplace_back(f, 0);
        continue;
      }
      state[static_cast<std::size_t>(s)] = 2;
      model.schedule_.emplace_back(s, c);
      stack.pop_back();
    }
  }
  for (const int o : model.output_signal_)
    if (is_input.count(o) == 0 && driver.count(o) == 0)
      fail("blif: output is never driven");
  return model;
}

std::vector<std::uint64_t> blif_model::simulate(
    const std::vector<std::uint64_t>& inputs) const {
  if (inputs.size() != input_signal_.size())
    fail("simulate: wrong input count");
  std::vector<std::uint64_t> value(signal_count_, 0);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    value[static_cast<std::size_t>(input_signal_[i])] = inputs[i];
  for (const auto& [out, c] : schedule_) {
    std::uint64_t any = 0;
    for (const std::string& cube : c.cubes) {
      std::uint64_t all = ~0ULL;
      for (std::size_t i = 0; i < cube.size(); ++i) {
        const std::uint64_t v = value[static_cast<std::size_t>(c.fanin[i])];
        if (cube[i] == '1') all &= v;
        else if (cube[i] == '0') all &= ~v;
      }
      any |= all;
    }
    value[static_cast<std::size_t>(out)] = c.onset ? any : ~any;
  }
  std::vector<std::uint64_t> out;
  out.reserve(output_signal_.size());
  for (const int s : output_signal_)
    out.push_back(value[static_cast<std::size_t>(s)]);
  return out;
}

// ---------------------------------------------------------------------------
// .xbar

xbar_design xbar_design::parse(const std::string& text) {
  xbar_design d;
  std::istringstream is(text);
  std::string line;
  bool header = false;
  bool dim = false;
  bool ended = false;
  while (std::getline(is, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    const std::vector<std::string> t = split_ws(line);
    if (t.empty()) continue;
    if (ended) fail("xbar: content after end");
    if (!header) {
      if (t.size() != 2 || t[0] != "xbar") fail("xbar: missing header");
      if (t[1] != "1") fail("xbar: only format version 1 is checked");
      header = true;
      continue;
    }
    if (!dim) {
      if (t.size() != 3 || t[0] != "dim") fail("xbar: missing dim line");
      d.rows = to_int(t[1]);
      d.columns = to_int(t[2]);
      if (d.rows < 1 || d.columns < 0) fail("xbar: bad dimensions");
      dim = true;
      continue;
    }
    if (t[0] == "end" && t.size() == 1) {
      ended = true;
    } else if (t[0] == "input" && t.size() == 2) {
      d.input_row = to_int(t[1]);
    } else if (t[0] == "output" && t.size() == 3) {
      d.outputs.emplace_back(to_int(t[1]), t[2]);
    } else if (t[0] == "const" && t.size() == 3) {
      d.constants.emplace_back(t[1], t[2] == "1");
    } else if (t[0] == "var" && t.size() == 3) {
      d.variable_names[to_int(t[1])] = t[2];
    } else if (t[0] == "d" && t.size() == 4) {
      device dev;
      dev.row = to_int(t[1]);
      dev.column = to_int(t[2]);
      if (t[3] == "on") {
        dev.variable = -1;
      } else if (t[3].size() >= 2 && (t[3][0] == '+' || t[3][0] == '-')) {
        dev.positive = t[3][0] == '+';
        dev.variable = to_int(t[3].substr(1));
        if (dev.variable < 0) fail("xbar: negative variable");
      } else {
        fail("xbar: bad device spec " + t[3]);
      }
      d.devices.push_back(dev);
    } else {
      fail("xbar: unrecognized line: " + line);
    }
  }
  if (!ended) fail("xbar: missing end");
  if (d.input_row < 0 || d.input_row >= d.rows)
    fail("xbar: input row out of range");
  for (const auto& [row, name] : d.outputs)
    if (row < 0 || row >= d.rows) fail("xbar: output row out of range");
  for (const device& dev : d.devices)
    if (dev.row < 0 || dev.row >= d.rows || dev.column < 0 ||
        dev.column >= d.columns)
      fail("xbar: device outside the array");
  return d;
}

int xbar_design::on_devices() const {
  return static_cast<int>(std::count_if(
      devices.begin(), devices.end(),
      [](const device& dev) { return dev.variable < 0; }));
}

std::vector<std::pair<std::string, std::uint64_t>> xbar_design::sense(
    const std::vector<std::uint64_t>& variables) const {
  // Adjacency by wordline and by bitline, with each device's conduction
  // mask across the 64 lanes.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> by_row(
      static_cast<std::size_t>(rows));
  std::vector<std::vector<std::pair<int, std::uint64_t>>> by_column(
      static_cast<std::size_t>(columns));
  for (const device& dev : devices) {
    std::uint64_t mask = ~0ULL;
    if (dev.variable >= 0) {
      if (static_cast<std::size_t>(dev.variable) >= variables.size())
        fail("xbar: device reads an unknown variable");
      const std::uint64_t v = variables[static_cast<std::size_t>(dev.variable)];
      mask = dev.positive ? v : ~v;
    }
    by_row[static_cast<std::size_t>(dev.row)].emplace_back(dev.column, mask);
    by_column[static_cast<std::size_t>(dev.column)].emplace_back(dev.row,
                                                                 mask);
  }
  // Monotone worklist fixpoint: a line is re-examined only when new lanes
  // reached it.
  std::vector<std::uint64_t> row_reach(static_cast<std::size_t>(rows), 0);
  std::vector<std::uint64_t> column_reach(static_cast<std::size_t>(columns),
                                          0);
  std::vector<std::pair<bool, int>> work;  // (is_row, index)
  row_reach[static_cast<std::size_t>(input_row)] = ~0ULL;
  work.emplace_back(true, input_row);
  while (!work.empty()) {
    const auto [is_row, index] = work.back();
    work.pop_back();
    const std::uint64_t from =
        is_row ? row_reach[static_cast<std::size_t>(index)]
               : column_reach[static_cast<std::size_t>(index)];
    const auto& edges = is_row ? by_row[static_cast<std::size_t>(index)]
                               : by_column[static_cast<std::size_t>(index)];
    auto& target = is_row ? column_reach : row_reach;
    for (const auto& [other, mask] : edges) {
      const std::uint64_t add =
          from & mask & ~target[static_cast<std::size_t>(other)];
      if (add == 0) continue;
      target[static_cast<std::size_t>(other)] |= add;
      work.emplace_back(!is_row, other);
    }
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [row, name] : outputs)
    out.emplace_back(name, row_reach[static_cast<std::size_t>(row)]);
  for (const auto& [name, value] : constants)
    out.emplace_back(name, value ? ~0ULL : 0ULL);
  return out;
}

// ---------------------------------------------------------------------------
// checks

oracle_verdict check_design(const blif_model& netlist,
                            const std::string& design_text,
                            const claimed_stats& stats, std::uint64_t seed) {
  constexpr std::size_t kExhaustiveInputs = 16;
  constexpr std::uint64_t kSamples = 4096;
  oracle_verdict verdict;
  const auto reject = [&](const std::string& why) {
    verdict.ok = false;
    verdict.failure = why;
    return verdict;
  };
  xbar_design d;
  try {
    d = xbar_design::parse(design_text);
  } catch (const std::exception& e) {
    return reject(e.what());
  }

  // Structural properties: S and D read from the text agree with each
  // other and with the claimed n + k.
  const int s_text = d.rows + d.columns;
  if (d.rows != stats.rows || d.columns != stats.columns)
    return reject("dimensions " + std::to_string(d.rows) + "x" +
                  std::to_string(d.columns) + " differ from the stats");
  if (s_text != stats.semiperimeter)
    return reject("S from the text " + std::to_string(s_text) +
                  " != claimed S " + std::to_string(stats.semiperimeter));
  if (static_cast<long long>(s_text) != stats.graph_nodes + stats.vh_count)
    return reject("S " + std::to_string(s_text) + " != n + k = " +
                  std::to_string(stats.graph_nodes) + " + " +
                  std::to_string(stats.vh_count));
  if (std::max(d.rows, d.columns) != stats.max_dimension)
    return reject("D != max(rows, columns)");
  if (d.on_devices() != stats.vh_count)
    return reject("always-on bridges " + std::to_string(d.on_devices()) +
                  " != k " + std::to_string(stats.vh_count));

  // Every netlist output is sensed exactly once.
  std::multiset<std::string> sensed;
  for (const auto& [row, name] : d.outputs) sensed.insert(name);
  for (const auto& [name, value] : d.constants) sensed.insert(name);
  const std::multiset<std::string> wanted(netlist.outputs().begin(),
                                          netlist.outputs().end());
  if (sensed != wanted) return reject("output set differs from the netlist");

  // Design variable -> netlist input position, by name when named.
  const std::size_t n = netlist.inputs().size();
  std::unordered_map<std::string, std::size_t> position;
  for (std::size_t i = 0; i < n; ++i) position[netlist.inputs()[i]] = i;
  int max_variable = -1;
  for (const xbar_design::device& dev : d.devices)
    max_variable = std::max(max_variable, dev.variable);
  std::vector<std::size_t> input_of(static_cast<std::size_t>(max_variable + 1));
  for (int v = 0; v <= max_variable; ++v) {
    const auto named = d.variable_names.find(v);
    if (named == d.variable_names.end()) {
      if (static_cast<std::size_t>(v) >= n)
        return reject("variable " + std::to_string(v) + " has no input");
      input_of[static_cast<std::size_t>(v)] = static_cast<std::size_t>(v);
      continue;
    }
    const auto it = position.find(named->second);
    if (it == position.end())
      return reject("variable " + named->second + " is not a netlist input");
    input_of[static_cast<std::size_t>(v)] = it->second;
  }

  std::map<std::string, std::size_t> output_index;
  for (std::size_t o = 0; o < netlist.outputs().size(); ++o)
    output_index[netlist.outputs()[o]] = o;

  const bool exhaustive = n <= kExhaustiveInputs;
  const std::uint64_t total = exhaustive ? (1ULL << n) : kSamples;
  const std::uint64_t words = (total + 63) / 64;
  seeded_rng rng(seed ^ 0x5DEECE66DULL);
  std::vector<std::uint64_t> inputs(n);
  std::vector<std::uint64_t> variables(input_of.size());
  static constexpr std::uint64_t lane_pattern[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  for (std::uint64_t w = 0; w < words; ++w) {
    std::uint64_t valid = ~0ULL;
    if (exhaustive) {
      for (std::size_t i = 0; i < n; ++i)
        inputs[i] = i < 6 ? lane_pattern[i]
                          : (((w >> (i - 6)) & 1ULL) != 0 ? ~0ULL : 0ULL);
      if (total < 64) valid = (1ULL << total) - 1;
    } else {
      for (std::size_t i = 0; i < n; ++i) inputs[i] = rng.next();
    }
    for (std::size_t v = 0; v < input_of.size(); ++v)
      variables[v] = inputs[input_of[v]];
    const std::vector<std::uint64_t> expect = netlist.simulate(inputs);
    for (const auto& [name, got] : d.sense(variables)) {
      const std::uint64_t diff = (got ^ expect[output_index.at(name)]) & valid;
      if (diff != 0)
        return reject("output " + name + " differs from the netlist");
    }
  }
  return verdict;
}

std::map<std::string, bool> simulate_one(const blif_model& netlist,
                                         const std::string& assignment) {
  if (assignment.size() != netlist.inputs().size())
    fail("assignment length != input count");
  std::vector<std::uint64_t> inputs(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i)
    inputs[i] = assignment[i] == '1' ? 1ULL : 0ULL;
  const std::vector<std::uint64_t> words = netlist.simulate(inputs);
  std::map<std::string, bool> out;
  for (std::size_t o = 0; o < words.size(); ++o)
    out[netlist.outputs()[o]] = (words[o] & 1ULL) != 0;
  return out;
}

std::string corrupt_one_device(const std::string& design_text) {
  std::vector<std::string> lines;
  std::istringstream is(design_text);
  std::string line;
  int input_row = -1;
  while (std::getline(is, line)) {
    const std::vector<std::string> t = split_ws(line);
    if (t.size() == 2 && t[0] == "input") input_row = to_int(t[1]);
    lines.push_back(line);
  }
  // Prefer a literal device on the input wordline: flipping it changes the
  // function of the node it connects to the '1' terminal.
  std::size_t target = lines.size();
  for (std::size_t pass = 0; pass < 2 && target == lines.size(); ++pass)
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::vector<std::string> t = split_ws(lines[i]);
      if (t.size() != 4 || t[0] != "d" || t[3] == "on") continue;
      if (pass == 0 && to_int(t[1]) != input_row) continue;
      target = i;
      break;
    }
  if (target == lines.size()) fail("corrupt: design has no literal device");
  const std::vector<std::string> t = split_ws(lines[target]);
  const char flipped = t[3][0] == '+' ? '-' : '+';
  lines[target] = "d " + t[1] + " " + t[2] + " " + flipped + t[3].substr(1);
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

}  // namespace corpusbench

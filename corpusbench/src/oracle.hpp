// Independent correctness oracle for the corpus benchmark.
//
// Nothing here calls into the COMPACT libraries: the netlist semantics come
// from a small BLIF simulator (the corpus uses only `.names` covers), and a
// design's function comes from reading the `.xbar` text and propagating
// flow through conducting devices (sneak-path reachability from the input
// wordline). Both run 64 assignments at once, one per bit of a word.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace corpusbench {

/// A parsed combinational BLIF netlist.
class blif_model {
 public:
  /// Throws std::runtime_error on anything outside the supported subset.
  static blif_model parse(const std::string& text);

  [[nodiscard]] const std::vector<std::string>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<std::string>& outputs() const {
    return outputs_;
  }
  /// Simulate 64 assignments: inputs[i] holds the values of input i, one
  /// assignment per bit. Returns one word per output, in outputs() order.
  [[nodiscard]] std::vector<std::uint64_t> simulate(
      const std::vector<std::uint64_t>& inputs) const;

 private:
  struct cover {
    std::vector<int> fanin;          // signal ids
    std::vector<std::string> cubes;  // one char per fanin: '0' '1' '-'
    bool onset = true;               // false: the cubes list the off-set
  };
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<int> output_signal_;
  std::size_t signal_count_ = 0;
  std::vector<int> input_signal_;
  std::vector<std::pair<int, cover>> schedule_;  // topological order
};

/// A crossbar design read from `.xbar` format-1 text.
struct xbar_design {
  int rows = 0;
  int columns = 0;
  int input_row = -1;
  struct device {
    int row = 0;
    int column = 0;
    int variable = -1;  // -1: always on
    bool positive = true;
  };
  std::vector<device> devices;
  std::vector<std::pair<int, std::string>> outputs;       // (row, name)
  std::vector<std::pair<std::string, bool>> constants;    // (name, value)
  std::map<int, std::string> variable_names;

  /// Throws std::runtime_error on malformed text or format version != 1.
  static xbar_design parse(const std::string& text);
  [[nodiscard]] int on_devices() const;
  /// Sense every output for 64 assignments: variables[v] holds the values
  /// of design variable v. Returns (name, word) per output and constant.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> sense(
      const std::vector<std::uint64_t>& variables) const;
};

/// What a synthesize response claims about its design.
struct claimed_stats {
  long long graph_nodes = 0;
  int vh_count = 0;
  int rows = 0;
  int columns = 0;
  int semiperimeter = 0;
  int max_dimension = 0;
};

struct oracle_verdict {
  bool ok = true;
  std::string failure;  // first failure, empty when ok
};

/// Check a design against its netlist: the structural properties (S from
/// the text = rows + columns = n + k, D = max(rows, columns), one always-on
/// bridge per VH label) and the function on every assignment when the
/// netlist has at most 16 inputs, else on 4096 assignments drawn from
/// `seed`.
[[nodiscard]] oracle_verdict check_design(const blif_model& netlist,
                                          const std::string& design_text,
                                          const claimed_stats& stats,
                                          std::uint64_t seed);

/// Outputs the netlist computes for one assignment given as '0'/'1' per
/// declared input; keyed by output name.
[[nodiscard]] std::map<std::string, bool> simulate_one(
    const blif_model& netlist, const std::string& assignment);

/// Corrupt one device of `design_text` (flip the literal of the first
/// literal device on the input wordline) and return the corrupted text.
[[nodiscard]] std::string corrupt_one_device(const std::string& design_text);

}  // namespace corpusbench

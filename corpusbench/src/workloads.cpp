// The four workloads. Circuit lists and budgets are explained, with the
// measurements behind them, in corpusbench/README.md.
#include <stdexcept>

#include "common.hpp"

namespace corpusbench {
namespace {

// Method 1 budget for circuits OCT proves optimal: the slowest proof
// (ctrl7x26) takes ~1.6 s, so 30 s leaves a wide margin and the budget
// never decides a design.
constexpr double kProvenBudget = 30.0;
// Method 2 budget. priority64's root dive takes half of it (a known fault),
// the rest of the set proves in well under a second.
constexpr double kMipBudget = 4.0;
// Method 1 budget on circuits OCT cannot prove: time is pinned here and the
// incumbent at this budget is the same as at 10 s.
constexpr double kShortBudget = 1.0;

const std::vector<std::string> kProven = {
    "arbiter8", "ctrl7x26", "cavlc10x11", "router4",   "int2float8",
    "i2c12",    "dec6",     "mux8",       "par16x2",   "par48x4",
    "priority24", "priority64", "priority96"};
const std::vector<std::string> kUnproven = {"add12", "alu6", "cmp12",
                                            "mul4",  "mul5", "arbiter16"};
// Unproven circuits the serve-warm corpus adds on top of the two lists.
const std::vector<std::string> kUnprovenLarge = {"add24", "add32", "mul6"};

request_spec synth(const std::string& circuit, const std::string& labeler,
                   double gamma, double budget) {
  request_spec r;
  r.circuit = circuit;
  r.labeler = labeler;
  r.gamma = gamma;
  r.time_limit_seconds = budget;
  r.key = labeler + (labeler == "mip" ? "@" + std::to_string(gamma).substr(0, 3)
                                      : std::string()) +
          "/" + circuit;
  return r;
}

}  // namespace

workload_spec make_workload(const std::string& name) {
  workload_spec w;
  w.name = name;
  if (name == "oct-proven") {
    for (const std::string& c : kProven)
      w.synthesize.push_back(synth(c, "oct", 0.5, kProvenBudget));
  } else if (name == "mip-weighted") {
    for (const char* c : {"mux8", "par16x2", "priority24", "priority64"})
      w.synthesize.push_back(synth(c, "mip", 0.5, kMipBudget));
    for (const char* c : {"dec6", "i2c12", "router4", "int2float8"})
      w.synthesize.push_back(synth(c, "mip", 1.0, kMipBudget));
  } else if (name == "oct-budget") {
    for (const std::string& c : kUnproven)
      w.synthesize.push_back(synth(c, "oct", 0.5, kShortBudget));
  } else if (name == "serve-warm") {
    w.served = true;
    for (const std::string& c : kProven)
      w.synthesize.push_back(synth(c, "oct", 0.5, kProvenBudget));
    for (const std::string& c : kUnproven)
      w.synthesize.push_back(synth(c, "oct", 0.5, kShortBudget));
    for (const std::string& c : kUnprovenLarge)
      w.synthesize.push_back(synth(c, "oct", 0.5, kShortBudget));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace corpusbench

// The traced path: one synthesize request executed by calling each layer's
// public function from the benchmark, with a span around every call. It
// mirrors what api::service::handle runs for the request (parse, SBDD
// build, graph build, labeling through the label cache, map, serialize),
// so its design must be byte-identical to the service's.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace compact::core {
class labeling_cache;
}

namespace corpusbench {

/// Spans of one benchmark run, kept in memory and written out at the end.
class span_log {
 public:
  struct span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a request root
    std::string request;
    double start = 0.0;
    double end = 0.0;
  };
  int open(const std::string& name, int parent, const std::string& request);
  void close(int id);
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
  /// Span duration minus the time its direct children cover.
  [[nodiscard]] double self_seconds(int id) const;
  /// Chrome trace-event JSON (one complete event per span).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::vector<span> spans_;
};

struct traced_result {
  std::string design_text;
  /// Wall seconds per layer span (frontend.parse, frontend.bdd_build,
  /// core.graph, core.kernelize, core.label_oct | core.label_mip,
  /// core.map, xbar.serialize, xbar.evaluate).
  std::map<std::string, double> seconds;
  /// Sum of the spans on the request's path (core.kernelize and
  /// xbar.evaluate are probes outside it).
  double path_seconds = 0.0;
  /// Work counts: bdd.nodes, core.graph_nodes, core.kernel_nodes,
  /// core.label_optimal, core.label_oct_proven, milp.bnb_nodes,
  /// milp.lp_iterations, xbar.design_bytes.
  std::map<std::string, double> counts;
};

/// Run `spec` through the layers. `cache` plays the service's shared label
/// cache (may be null). `assignments` are evaluated on the mapped crossbar
/// inside the xbar.evaluate probe span.
[[nodiscard]] traced_result run_traced(
    const request_spec& spec, const std::string& netlist_text,
    compact::core::labeling_cache* cache,
    const std::vector<std::string>& assignments, span_log& log);

}  // namespace corpusbench

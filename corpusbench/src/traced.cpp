#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "bdd/manager.hpp"
#include "bdd/stats.hpp"
#include "core/bdd_graph.hpp"
#include "core/label_cache.hpp"
#include "core/labelers.hpp"
#include "core/mapping.hpp"
#include "core/oct_reduce.hpp"
#include "frontend/blif.hpp"
#include "frontend/to_bdd.hpp"
#include "util/metrics.hpp"
#include "xbar/evaluate.hpp"
#include "xbar/serialize.hpp"

namespace corpusbench {

int span_log::open(const std::string& name, int parent,
                   const std::string& request) {
  span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start = now_seconds();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void span_log::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_seconds();
}

double span_log::self_seconds(int id) const {
  const span& s = spans_[static_cast<std::size_t>(id)];
  double covered = 0.0;
  for (const span& child : spans_)
    if (child.parent == id) covered += child.end - child.start;
  return (s.end - s.start) - covered;
}

std::string span_log::to_chrome_json() const {
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"",
                  i == 0 ? "" : ",", (s.start - origin) * 1e6,
                  (s.end - s.start) * 1e6);
    out += buf;
    out += s.name + "\",\"args\":{\"request\":\"" + s.request +
           "\",\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"self_us\":";
    std::snprintf(buf, sizeof buf, "%.3f",
                  self_seconds(static_cast<int>(i)) * 1e6);
    out += buf;
    out += "}}";
  }
  out += "]}\n";
  return out;
}

namespace {

/// RAII span around one layer call; records the duration under `name`.
class layer_span {
 public:
  layer_span(span_log& log, traced_result& result, const std::string& name,
             int parent, const std::string& request, bool on_path = true)
      : log_(log), result_(result), name_(name), on_path_(on_path),
        id_(log.open(name, parent, request)) {}
  ~layer_span() {
    log_.close(id_);
    const span_log::span& s = log_.spans()[static_cast<std::size_t>(id_)];
    result_.seconds[name_] += s.end - s.start;
    if (on_path_) result_.path_seconds += s.end - s.start;
  }
  layer_span(const layer_span&) = delete;
  layer_span& operator=(const layer_span&) = delete;

 private:
  span_log& log_;
  traced_result& result_;
  std::string name_;
  bool on_path_;
  int id_;
};

std::uint64_t counter_value(const char* name) {
  return compact::global_metrics().counter(name).value();
}

}  // namespace

traced_result run_traced(const request_spec& spec,
                         const std::string& netlist_text,
                         compact::core::labeling_cache* cache,
                         const std::vector<std::string>& assignments,
                         span_log& log) {
  using namespace compact;
  traced_result result;
  const int root = log.open("request", -1, spec.key);

  std::optional<frontend::network> net;
  {
    const layer_span s(log, result, "frontend.parse", root, spec.key);
    std::istringstream in(netlist_text);
    net.emplace(frontend::parse_blif(in));
  }
  bdd::manager m(net->input_count());
  std::optional<frontend::sbdd> built;
  {
    const layer_span s(log, result, "frontend.bdd_build", root, spec.key);
    const std::vector<int> order =
        frontend::optimize_order(*net, frontend::order_effort::none);
    built.emplace(frontend::build_sbdd(*net, m, order));
  }
  result.counts["bdd.nodes"] = static_cast<double>(
      bdd::collect_reachable(m, built->roots).nodes.size());

  std::optional<core::bdd_graph> graph;
  {
    const layer_span s(log, result, "core.graph", root, spec.key);
    graph.emplace(core::build_bdd_graph(m, built->roots, built->names));
  }
  result.counts["core.graph_nodes"] =
      static_cast<double>(graph->g.node_count());

  {
    // A probe, off the request's path: the labelers kernelize internally,
    // so this call repeats that step on its own to time and size it.
    const layer_span s(log, result, "core.kernelize", root, spec.key, false);
    const core::oct_kernel kernel = core::kernelize_for_oct(graph->g);
    result.counts["core.kernel_nodes"] =
        static_cast<double>(kernel.stats().kernel_nodes);
  }

  // The label stage exactly as the pipeline runs it: the option set the
  // registered "oct" / "mip" labeler derives, a lookup in the shared label
  // cache, and on a miss the labeling function itself.
  core::labeling labels;
  const bool mip = spec.labeler == "mip";
  {
    const layer_span s(log, result, mip ? "core.label_mip" : "core.label_oct",
                       root, spec.key);
    core::oct_label_options oct;
    oct.time_limit_seconds = spec.time_limit_seconds;
    core::mip_label_options weighted;
    weighted.gamma = spec.gamma;
    weighted.time_limit_seconds = spec.time_limit_seconds;
    weighted.oct_time_limit_seconds =
        std::max(1.0, spec.time_limit_seconds * 0.25);
    weighted.cache = cache;
    const std::string salt =
        mip ? core::mip_cache_salt(weighted) : core::oct_cache_salt(oct);
    std::optional<core::label_cache_key> key;
    std::optional<core::cached_labeling> hit;
    if (cache != nullptr) {
      key = core::make_label_cache_key(*graph, spec.labeler, salt);
      hit = cache->find(*key);
    }
    bool optimal = false;
    if (hit) {
      labels = std::move(hit->l);
      optimal = hit->optimal;
    } else if (mip) {
      const std::uint64_t nodes0 = counter_value("milp.bnb.nodes_explored");
      const std::uint64_t iters0 = counter_value("milp.bnb.lp_iterations");
      core::mip_label_result r = core::label_weighted(*graph, weighted);
      result.counts["milp.bnb_nodes"] = static_cast<double>(
          counter_value("milp.bnb.nodes_explored") - nodes0);
      result.counts["milp.lp_iterations"] = static_cast<double>(
          counter_value("milp.bnb.lp_iterations") - iters0);
      if (key) {
        core::cached_labeling entry;
        entry.l = r.l;
        entry.optimal = r.optimal;
        entry.relative_gap = r.relative_gap;
        cache->store(*key, std::move(entry));
      }
      labels = std::move(r.l);
      optimal = r.optimal;
    } else {
      core::oct_label_result r =
          core::label_minimal_semiperimeter(*graph, oct);
      if (key) {
        core::cached_labeling entry;
        entry.l = r.l;
        entry.optimal = r.optimal;
        entry.oct_size = r.oct_size;
        entry.promoted = r.promoted;
        cache->store(*key, std::move(entry));
      }
      labels = std::move(r.l);
      optimal = r.optimal;
    }
    result.counts["core.label_optimal"] = optimal ? 1.0 : 0.0;
  }
  if (mip) {
    // A probe, off the path: Method 2 starts from a Method 1 labeling; this
    // repeats that warm start with label_weighted's own option set.
    const layer_span s(log, result, "core.label_oct", root, spec.key, false);
    core::oct_label_options warm;
    warm.time_limit_seconds = std::min(
        std::max(1.0, spec.time_limit_seconds * 0.25),
        std::max(1.0, spec.time_limit_seconds));
    result.counts["core.label_oct_proven"] =
        core::label_minimal_semiperimeter(*graph, warm).optimal ? 1.0 : 0.0;
  } else {
    result.counts["core.label_oct_proven"] =
        result.counts["core.label_optimal"];
  }

  std::optional<core::mapping_result> mapped;
  {
    const layer_span s(log, result, "core.map", root, spec.key);
    mapped.emplace(core::map_to_crossbar(*graph, labels));
  }
  {
    const layer_span s(log, result, "xbar.serialize", root, spec.key);
    std::vector<std::string> names;
    for (const int i : net->inputs()) names.push_back(net->node(i).name);
    std::ostringstream os;
    xbar::write_design(mapped->design, os, names);
    result.design_text = os.str();
  }
  result.counts["xbar.design_bytes"] =
      static_cast<double>(result.design_text.size());

  {
    // A probe, off the synthesize path: the evaluate layer on the mapped
    // crossbar (what an op = "evaluate" request runs after parsing).
    const layer_span s(log, result, "xbar.evaluate", root, spec.key, false);
    for (const std::string& a : assignments) {
      std::vector<bool> bits;
      bits.reserve(a.size());
      for (const char c : a) bits.push_back(c == '1');
      (void)xbar::evaluate(mapped->design, bits);
    }
  }
  log.close(root);
  return result;
}

}  // namespace corpusbench

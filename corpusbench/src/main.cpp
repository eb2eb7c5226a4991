// corpusbench — the COMPACT corpus benchmark (see corpusbench/README.md).
//
//   corpusbench --workload NAME --seed N --seconds S --trace 0|1
//               [--corpus DIR] [--serve PATH] [--scratch DIR] [--results DIR]
//
// With --trace 0 it measures the end-to-end metrics through the public
// request path (api::service in process, or compact-serve over its socket);
// with --trace 1 it times the benchmark's own calls into each layer. Either
// way every output is checked against the independent oracle, and the last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/compact_api.hpp"
#include "common.hpp"
#include "core/label_cache.hpp"
#include "daemon.hpp"
#include "host_speed.hpp"
#include "oracle.hpp"
#include "traced.hpp"
#include "util/metrics.hpp"

namespace {

using namespace corpusbench;
namespace api = compact::api;

// Closed-loop client connections (and daemon workers) on the served path.
constexpr int kConnections = 2;
// Host probes right after set-up; their median scales in-process set-up.
constexpr int kSetupProbes = 3;

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string corpus = "benchmarks";
  std::string serve = ".bench_build/cmake/compact-serve";
  std::string scratch = ".bench_build/run";
  std::string results;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "error: " << message
            << "\nusage: corpusbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--corpus DIR] [--serve PATH] [--scratch DIR] "
               "[--results DIR]\n";
  std::exit(2);
}

options parse_args(int argc, char** argv) {
  options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(a + " needs a value");
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
        have_seconds = o.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace expects 0 or 1");
        o.trace = v == "1";
        have_trace = true;
      } else if (a == "--corpus") {
        o.corpus = v;
      } else if (a == "--serve") {
        o.serve = v;
      } else if (a == "--scratch") {
        o.scratch = v;
      } else if (a == "--results") {
        o.results = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Everything the benchmark knows about one circuit.
struct circuit {
  std::string text;
  std::optional<blif_model> model;
};

api::request_v1 to_request(const request_spec& spec, const circuit& c,
                           const std::string& design_text = {}) {
  api::request_v1 r;
  r.id = spec.key;
  r.op = spec.op;
  r.api_version = COMPACT_API_VERSION;
  if (spec.op == "evaluate") {
    r.design_text = design_text;
    r.assignment = spec.assignment;
    return r;
  }
  r.source.text = c.text;
  r.source.format = "blif";
  r.synthesis.labeler = spec.labeler;
  r.synthesis.gamma = spec.gamma;
  r.synthesis.time_limit_seconds = spec.time_limit_seconds;
  r.synthesis.threads = 1;
  return r;
}

/// What one distinct request produced across the run's passes.
struct request_record {
  std::vector<double> latency;
  std::vector<double> queue;
  std::vector<double> service;
  std::vector<double> serde;
  std::vector<double> start;  // now_seconds() when each sample was sent
  std::optional<api::response_v1> first;  // first successful response
  int failed = 0;
  bool changed = false;  // a later pass answered with other bytes
  std::string first_error;

  void add(const api::response_v1& r, double seconds, double sent = 0.0) {
    latency.push_back(seconds);
    start.push_back(sent);
    queue.push_back(r.queue_seconds);
    service.push_back(r.service_seconds);
    if (!r.ok) {
      ++failed;
      if (first_error.empty())
        first_error = std::string(api::error_code_name(r.code)) + ": " +
                      r.error_message;
      return;
    }
    if (!first) {
      first = r;
    } else if (r.design_text != first->design_text ||
               r.outputs != first->outputs) {
      changed = true;
    }
  }
};

double sum_of_medians(const std::map<std::string, request_record>& records,
                      std::vector<double> request_record::*field) {
  double total = 0.0;
  for (const auto& [key, rec] : records)
    if (!(rec.*field).empty()) total += median(rec.*field);
  return total;
}

/// Per-request medians on stderr, for the reader of a run's log.
void print_table(const std::map<std::string, request_record>& records) {
  for (const auto& [key, rec] : records) {
    char line[200];
    if (rec.first && rec.first->has_stats)
      std::snprintf(line, sizeof line,
                    "  %-24s n=%-3zu median %9.4f s  S=%-5d D=%-5d %s\n",
                    key.c_str(), rec.latency.size(), median(rec.latency),
                    rec.first->stats.semiperimeter,
                    rec.first->stats.max_dimension,
                    rec.first->stats.optimal ? "proven" : "budget");
    else
      std::snprintf(line, sizeof line, "  %-24s n=%-3zu median %9.4f s\n",
                    key.c_str(), rec.latency.size(), median(rec.latency));
    std::cerr << line;
  }
}

claimed_stats claimed_of(const api::synthesis_stats_v1& s) {
  claimed_stats c;
  c.graph_nodes = static_cast<long long>(s.graph_nodes);
  c.vh_count = s.vh_count;
  c.rows = s.rows;
  c.columns = s.columns;
  c.semiperimeter = s.semiperimeter;
  c.max_dimension = s.max_dimension;
  return c;
}

double own_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

class benchmark {
 public:
  /// `started` is when main() began: set-up is timed from there.
  benchmark(options o, double started)
      : opt_(std::move(o)), spec_(make_workload(opt_.workload)),
        rng_(opt_.seed), started_(started) {}

  int run();

 private:
  // Set-up shared by both modes.
  void load_corpus();
  void prepare_oracle();
  void make_evaluations();
  double prime();
  void warm_daemon();
  void warm_service(api::service& svc);

  // Measurement.
  void timed_in_process();
  void timed_served();
  void traced();
  void serve_pass(std::map<std::string, request_record>& into,
                  const std::vector<const request_spec*>& order,
                  bool with_serde);

  // Checks.
  void check_outputs(const std::map<std::string, request_record>& records);
  void check_mip_against_oct(
      const std::map<std::string, request_record>& records);
  void self_test(const std::map<std::string, request_record>& records);
  void fail(const std::string& why) {
    if (correct_) std::cerr << "corpusbench: check failed: " << why << "\n";
    correct_ = false;
  }

  [[nodiscard]] std::vector<const request_spec*> all_requests() const;
  [[nodiscard]] std::vector<const request_spec*> shuffled(
      const std::vector<const request_spec*>& requests) {
    std::vector<const request_spec*> order = requests;
    rng_.shuffle(order);
    return order;
  }
  [[nodiscard]] const std::string& design_of(const std::string& circuit) const {
    return served_design_.at(circuit);
  }
  /// `seconds` measured from `from`, at nominal host speed.
  [[nodiscard]] double at_nominal(double seconds, double from) const {
    return seconds * host_->factor(from, from + seconds);
  }
  /// True when the request's time is set by its wall-clock solver budget
  /// (its median latency reaches half of it), which host speed cannot
  /// change: its durations are then reported as measured.
  [[nodiscard]] bool budget_bound(const std::string& key,
                                  const request_record& rec) const;
  /// The latencies of `rec`, at nominal speed unless budget-bound.
  [[nodiscard]] std::vector<double> durations(const std::string& key,
                                              const request_record& rec) const;
  /// Sum over distinct requests of the median of durations().
  [[nodiscard]] double solve_seconds(
      const std::map<std::string, request_record>& records) const;
  void report_totals(const std::map<std::string, request_record>& records,
                     long long ok, double busy_seconds, double peak_rss);
  void print_result() const;

  options opt_;
  workload_spec spec_;
  seeded_rng rng_;
  double started_;
  std::map<std::string, circuit> corpus_;
  std::vector<request_spec> evaluations_;
  std::map<std::string, std::string> served_design_;  // circuit -> warm design
  std::unique_ptr<daemon_process> daemon_;
  std::optional<host_speed> host_;

  bool correct_ = true;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
};

std::vector<const request_spec*> benchmark::all_requests() const {
  std::vector<const request_spec*> out;
  for (const request_spec& r : spec_.synthesize) out.push_back(&r);
  if (spec_.served)
    for (const request_spec& r : evaluations_) out.push_back(&r);
  return out;
}

void benchmark::load_corpus() {
  for (const request_spec& r : spec_.synthesize)
    if (corpus_.count(r.circuit) == 0)
      corpus_[r.circuit].text =
          read_file(opt_.corpus + "/" + r.circuit + ".blif");
  if (corpus_.count("mux8") == 0)
    corpus_["mux8"].text = read_file(opt_.corpus + "/mux8.blif");
}

void benchmark::prepare_oracle() {
  for (auto& [name, c] : corpus_) c.model = blif_model::parse(c.text);
}

/// Seeded evaluate requests, evaluations_per_design per circuit. The
/// served workload sends them; the traced run evaluates their assignments
/// on every workload.
void benchmark::make_evaluations() {
  for (const request_spec& s : spec_.synthesize) {
    const std::size_t inputs = corpus_.at(s.circuit).model->inputs().size();
    for (int e = 0; e < spec_.evaluations_per_design; ++e) {
      request_spec r;
      r.op = "evaluate";
      r.circuit = s.circuit;
      r.key = "eval" + std::to_string(e) + "/" + s.circuit;
      for (std::size_t i = 0; i < inputs; ++i)
        r.assignment += (rng_.next() & 1) != 0 ? '1' : '0';
      evaluations_.push_back(r);
    }
  }
}

/// Let lazy set-up finish before timing: one small request (Method 1 on
/// mux8) through every layer, on a throwaway service.
double benchmark::prime() {
  const double t = now_seconds();
  request_spec warm;
  warm.circuit = "mux8";
  warm.key = "prime/mux8";
  warm.time_limit_seconds = 1.0;
  api::service svc;
  const api::response_v1 r = svc.handle(to_request(warm, corpus_.at("mux8")));
  if (!r.ok) fail("prime request failed: " + r.error_message);
  return now_seconds() - t;
}

/// Send every synthesize request once over kConnections connections; the
/// daemon's label cache then holds every labeling.
void benchmark::warm_daemon() {
  std::map<std::string, request_record> warm;
  std::vector<const request_spec*> requests;
  for (const request_spec& r : spec_.synthesize) requests.push_back(&r);
  serve_pass(warm, requests, false);
  for (const auto& [key, rec] : warm) {
    if (!rec.first) {
      fail("warm-up request " + key + " failed: " + rec.first_error);
      continue;
    }
    for (const request_spec& r : spec_.synthesize)
      if (r.key == key) served_design_[r.circuit] = rec.first->design_text;
  }
}

void benchmark::warm_service(api::service& svc) {
  for (const request_spec& r : spec_.synthesize) {
    const api::response_v1 resp = svc.handle(to_request(r, corpus_.at(r.circuit)));
    if (!resp.ok) fail("warm-up request " + r.key + " failed");
  }
}

/// One pass of `order` through the daemon on kConnections closed-loop
/// connections. Client latency covers request serialization, the round
/// trip and response parsing; with_serde additionally times the four
/// serde calls of the request on their own.
void benchmark::serve_pass(std::map<std::string, request_record>& into,
                           const std::vector<const request_spec*>& order,
                           bool with_serde) {
  struct sample {
    const request_spec* spec;
    api::response_v1 response;
    double sent;
    double latency;
    double serde;
  };
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<sample>> per_thread(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      try {
        serve_client client(daemon_->socket_path());
        for (std::size_t i = next++; i < order.size(); i = next++) {
          const request_spec& spec = *order[i];
          const api::request_v1 request =
              spec.op == "evaluate"
                  ? to_request(spec, corpus_.at(spec.circuit),
                               design_of(spec.circuit))
                  : to_request(spec, corpus_.at(spec.circuit));
          const double t0 = now_seconds();
          const std::string reply = client.round_trip(api::to_json(request));
          api::response_v1 response = api::response_from_json(reply);
          const double latency = now_seconds() - t0;
          double serde = 0.0;
          if (with_serde) {
            const double s0 = now_seconds();
            const std::string line = api::to_json(request);
            (void)api::request_from_json(line);
            const std::string answer = api::to_json(response);
            (void)api::response_from_json(answer);
            serde = now_seconds() - s0;
          }
          if (response.id != spec.key) {
            response.ok = false;
            response.error_message = "response id " + response.id;
          }
          per_thread[static_cast<std::size_t>(t)].push_back(
              {&spec, std::move(response), t0, latency, serde});
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("served pass: " + e);
  for (const std::vector<sample>& samples : per_thread)
    for (const sample& s : samples) {
      request_record& rec = into[s.spec->key];
      rec.add(s.response, s.latency, s.sent);
      if (with_serde) rec.serde.push_back(s.serde);
    }
}

bool benchmark::budget_bound(const std::string& key,
                             const request_record& rec) const {
  for (const request_spec& r : spec_.synthesize)
    if (r.key == key)
      return median(rec.latency) >= 0.5 * r.time_limit_seconds;
  return false;
}

std::vector<double> benchmark::durations(const std::string& key,
                                         const request_record& rec) const {
  if (budget_bound(key, rec)) return rec.latency;
  std::vector<double> out;
  for (std::size_t i = 0; i < rec.latency.size(); ++i)
    out.push_back(at_nominal(rec.latency[i], rec.start[i]));
  return out;
}

double benchmark::solve_seconds(
    const std::map<std::string, request_record>& records) const {
  double total = 0.0;
  for (const auto& [key, rec] : records) total += median(durations(key, rec));
  return total;
}

/// Count the run's requests, check every answer, and emit the metrics
/// measured in the timed phase.
void benchmark::report_totals(
    const std::map<std::string, request_record>& records, long long ok,
    double busy_seconds, double peak_rss) {
  for (const auto& [key, rec] : records) {
    attempted_ += static_cast<long long>(rec.latency.size());
    failed_ += rec.failed;
  }
  print_table(records);
  check_outputs(records);
  if (spec_.name == "mip-weighted") check_mip_against_oct(records);
  self_test(records);

  long long s_total = 0, d_total = 0;
  for (const request_spec& r : spec_.synthesize) {
    const request_record& rec = records.at(r.key);
    if (!rec.first) continue;
    s_total += rec.first->stats.semiperimeter;
    d_total += rec.first->stats.max_dimension;
  }
  metric("solve_s", solve_seconds(records), "s");
  metric("requests_per_s", static_cast<double>(ok) / busy_seconds, "1/s");
  metric("total_semiperimeter", static_cast<double>(s_total), "count");
  metric("total_max_dimension", static_cast<double>(d_total), "count");
  metric("peak_rss_mb", peak_rss, "MB");
}

/// One user, one request at a time, each on a fresh service; a host probe
/// runs before every request.
void benchmark::timed_in_process() {
  std::map<std::string, request_record> records;
  const std::vector<const request_spec*> requests = all_requests();
  long long passes = 0;
  long long ok = 0;
  // The timed phase less its host probes, at nominal speed as durations()
  // reports it.
  double busy = 0.0;
  const double start = now_seconds();
  while (passes == 0 || now_seconds() - start < opt_.seconds) {
    for (const request_spec* spec : shuffled(requests)) {
      host_->probe();
      const double t0 = now_seconds();
      const api::request_v1 request =
          to_request(*spec, corpus_.at(spec->circuit));
      api::service svc;  // cold caches for every request
      const api::response_v1 response = svc.handle(request);
      records[spec->key].add(response, now_seconds() - t0, t0);
      if (response.ok) ++ok;
    }
    ++passes;
  }
  host_->probe();
  const double rss = own_peak_rss_mb();
  for (const auto& [key, rec] : records)
    for (const double d : durations(key, rec)) busy += d;
  report_totals(records, ok, busy, rss);
}

/// Closed loop over kConnections connections; a host probe runs between
/// passes, while the daemon is idle.
void benchmark::timed_served() {
  std::map<std::string, request_record> records;
  const std::vector<const request_spec*> requests = all_requests();
  std::vector<std::pair<double, double>> pass_spans;
  host_->probe();
  const double start = now_seconds();
  while (pass_spans.empty() || now_seconds() - start < opt_.seconds) {
    const double t0 = now_seconds();
    serve_pass(records, shuffled(requests), false);
    pass_spans.emplace_back(t0, now_seconds());
    host_->probe();
  }
  const double rss = daemon_->peak_rss_mb();
  if (!daemon_->stop()) fail("compact-serve did not shut down cleanly");

  long long ok = 0;
  for (const auto& [key, rec] : records)
    ok += static_cast<long long>(rec.latency.size()) - rec.failed;
  double busy = 0.0;
  for (const auto& [from, to] : pass_spans) busy += at_nominal(to - from, from);
  // Every served design must be the one the warm-up produced.
  for (const request_spec& r : spec_.synthesize) {
    const request_record& rec = records.at(r.key);
    if (rec.first && rec.first->design_text != design_of(r.circuit))
      fail(r.key + ": served design differs from the warm-up's");
  }
  report_totals(records, ok, busy, rss);
}

void benchmark::check_outputs(
    const std::map<std::string, request_record>& records) {
  for (const auto& [key, rec] : records) {
    if (rec.failed > 0) fail(key + " failed: " + rec.first_error);
    if (rec.changed) fail(key + ": answers differ between passes");
  }
  for (const request_spec& r : spec_.synthesize) {
    const auto it = records.find(r.key);
    if (it == records.end() || !it->second.first) continue;
    const api::response_v1& resp = *it->second.first;
    const claimed_stats claimed = claimed_of(resp.stats);
    const oracle_verdict v = check_design(*corpus_.at(r.circuit).model,
                                          resp.design_text, claimed, opt_.seed);
    if (!v.ok) fail(r.key + ": " + v.failure);
  }
  for (const request_spec& e : evaluations_) {
    const auto it = records.find(e.key);
    if (it == records.end() || !it->second.first) continue;
    const api::response_v1& resp = *it->second.first;
    const std::map<std::string, bool> expect =
        simulate_one(*corpus_.at(e.circuit).model, e.assignment);
    if (resp.outputs.size() != resp.output_names.size() ||
        resp.output_names.size() != expect.size()) {
      fail(e.key + ": evaluate answered the wrong number of outputs");
      continue;
    }
    for (std::size_t i = 0; i < resp.output_names.size(); ++i) {
      const auto want = expect.find(resp.output_names[i]);
      if (want == expect.end() || want->second != (resp.outputs[i] == '1'))
        fail(e.key + ": output " + resp.output_names[i] +
             " differs from the netlist");
    }
  }
}

/// Method 2 must do no worse on its own objective than the Method 1
/// design, and where Method 1 proved its S minimal, no labeling beats it.
void benchmark::check_mip_against_oct(
    const std::map<std::string, request_record>& records) {
  const workload_spec proven = make_workload("oct-proven");
  for (const request_spec& r : spec_.synthesize) {
    const auto it = records.find(r.key);
    if (it == records.end() || !it->second.first) continue;
    request_spec oct = r;
    oct.labeler = "oct";
    oct.time_limit_seconds = proven.synthesize.front().time_limit_seconds;
    api::service svc;
    const api::response_v1 ref = svc.handle(to_request(oct, corpus_.at(r.circuit)));
    if (!ref.ok) {
      fail(r.key + ": Method 1 reference failed");
      continue;
    }
    const api::synthesis_stats_v1& m = it->second.first->stats;
    const auto objective = [&](const api::synthesis_stats_v1& s) {
      return r.gamma * s.semiperimeter + (1.0 - r.gamma) * s.max_dimension;
    };
    if (objective(m) > objective(ref.stats) + 1e-9)
      fail(r.key + ": weighted objective worse than the Method 1 design's");
    if (ref.stats.optimal && m.semiperimeter < ref.stats.semiperimeter)
      fail(r.key + ": S below the proven Method 1 minimum");
  }
}

/// The oracle must reject a design with one corrupted device.
void benchmark::self_test(const std::map<std::string, request_record>& records) {
  for (const request_spec& r : spec_.synthesize) {
    const auto it = records.find(r.key);
    if (it == records.end() || !it->second.first) continue;
    const api::response_v1& resp = *it->second.first;
    const claimed_stats claimed = claimed_of(resp.stats);
    const std::string corrupted = corrupt_one_device(resp.design_text);
    if (check_design(*corpus_.at(r.circuit).model, corrupted, claimed,
                     opt_.seed)
            .ok)
      fail("self-test: the oracle accepted a corrupted " + r.circuit +
           " design");
    return;  // one design suffices
  }
  fail("self-test: no design to corrupt");
}

void benchmark::traced() {
  compact::set_metrics_enabled(true);
  span_log log;
  const bool warm = spec_.served;

  // Leg A runs the requests through api::service untraced; leg B through
  // the layers, traced. On serve-warm both start from a warm label cache,
  // as the daemon does.
  api::service warm_service_instance;
  compact::core::labeling_cache traced_cache;
  if (warm) {
    warm_service(warm_service_instance);
    span_log discard;
    for (const request_spec& r : spec_.synthesize)
      (void)run_traced(r, corpus_.at(r.circuit).text, &traced_cache, {},
                       discard);
  } else {
    daemon_ = std::make_unique<daemon_process>(opt_.serve, opt_.scratch,
                                               kConnections);
  }
  std::map<std::string, std::vector<std::string>> assignments;
  for (const request_spec& e : evaluations_)
    assignments[e.circuit].push_back(e.assignment);

  std::map<std::string, request_record> handled;   // leg A
  std::map<std::string, request_record> served;    // leg C
  std::map<std::string, std::map<std::string, std::vector<double>>> layer;
  std::map<std::string, std::vector<double>> path;
  std::map<std::string, std::map<std::string, double>> counts;
  double cache_hits = 0.0, cache_misses = 0.0;

  std::vector<const request_spec*> synth;
  for (const request_spec& r : spec_.synthesize) synth.push_back(&r);
  long long passes = 0;
  const double start = now_seconds();
  while (passes == 0 || now_seconds() - start < opt_.seconds) {
    const std::vector<const request_spec*> order = shuffled(synth);
    for (const request_spec* spec : order) {
      const circuit& c = corpus_.at(spec->circuit);
      const api::request_v1 request = to_request(*spec, c);
      api::response_v1 response;
      double latency = 0.0;
      host_->probe();
      if (warm) {
        const api::service_stats_v1 before = warm_service_instance.stats();
        const double t0 = now_seconds();
        response = warm_service_instance.handle(request);
        latency = now_seconds() - t0;
        const api::service_stats_v1 after = warm_service_instance.stats();
        if (passes == 0) {
          cache_hits += static_cast<double>(after.label_cache.hits -
                                            before.label_cache.hits);
          cache_misses += static_cast<double>(after.label_cache.misses -
                                              before.label_cache.misses);
        }
      } else {
        const double t0 = now_seconds();
        api::service svc;
        response = svc.handle(request);
        latency = now_seconds() - t0;
        if (passes == 0) {
          const api::service_stats_v1 s = svc.stats();
          cache_hits += static_cast<double>(s.label_cache.hits);
          cache_misses += static_cast<double>(s.label_cache.misses);
        }
      }
      handled[spec->key].add(response, latency);

      compact::core::labeling_cache fresh;
      const traced_result t =
          run_traced(*spec, c.text, warm ? &traced_cache : &fresh,
                     assignments[spec->circuit], log);
      if (response.ok && t.design_text != response.design_text)
        fail(spec->key + ": traced design differs from api::handle's");
      for (const auto& [name, seconds] : t.seconds)
        layer[name][spec->key].push_back(seconds);
      path[spec->key].push_back(t.path_seconds);
      if (passes == 0) counts[spec->key] = t.counts;
    }
    // Leg C: the served path. The warm daemon answers every pass; a cold
    // workload's fresh daemon answers once, while its cache is still cold.
    if (warm) {
      serve_pass(served, shuffled(all_requests()), true);
    } else if (passes == 0) {
      serve_pass(served, order, true);
    }
    ++passes;
  }
  if (!daemon_->stop()) fail("compact-serve did not shut down cleanly");

  for (const auto* records : {&handled, &served})
    for (const auto& [key, rec] : *records) {
      attempted_ += static_cast<long long>(rec.latency.size());
      failed_ += rec.failed;
    }
  // The cold workloads must bypass the label cache; on serve-warm every
  // labeling must come from it.
  if (!warm && cache_hits != 0.0)
    fail("a cold workload hit the label cache");
  if (warm && (cache_hits != static_cast<double>(synth.size()) ||
               cache_misses != 0.0))
    fail("serve-warm labeled outside the warm label cache");
  check_outputs(handled);
  check_outputs(served);
  if (spec_.name == "mip-weighted") check_mip_against_oct(handled);
  self_test(handled);

  const auto layer_total = [&](const std::string& name) {
    double total = 0.0;
    for (const auto& [key, samples] : layer[name]) total += median(samples);
    return total;
  };
  const auto count_total = [&](const std::string& name) {
    double total = 0.0;
    for (const auto& [key, c] : counts) {
      const auto it = c.find(name);
      if (it != c.end()) total += it->second;
    }
    return total;
  };
  double handle_total = 0.0, path_total = 0.0;
  for (const auto& [key, rec] : handled) handle_total += median(rec.latency);
  for (const auto& [key, samples] : path) path_total += median(samples);

  metric("frontend.parse_s", layer_total("frontend.parse"), "s");
  metric("frontend.bdd_build_s", layer_total("frontend.bdd_build"), "s");
  metric("bdd.nodes", count_total("bdd.nodes"), "count");
  metric("core.graph_s", layer_total("core.graph"), "s");
  metric("core.graph_nodes", count_total("core.graph_nodes"), "count");
  metric("core.kernelize_s", layer_total("core.kernelize"), "s");
  metric("core.kernel_nodes", count_total("core.kernel_nodes"), "count");
  metric("core.label_oct_s", layer_total("core.label_oct"), "s");
  metric("core.label_oct_proven", count_total("core.label_oct_proven"),
         "count");
  metric("core.label_mip_s", layer_total("core.label_mip"), "s");
  metric("milp.bnb_nodes", count_total("milp.bnb_nodes"), "count");
  metric("milp.lp_iterations", count_total("milp.lp_iterations"), "count");
  metric("core.map_s", layer_total("core.map"), "s");
  metric("xbar.serialize_s", layer_total("xbar.serialize"), "s");
  metric("xbar.design_bytes", count_total("xbar.design_bytes"), "B");
  metric("xbar.evaluate_s", layer_total("xbar.evaluate"), "s");
  metric("api.serde_s", sum_of_medians(served, &request_record::serde), "s");
  metric("api.label_cache_hits", cache_hits, "count");
  metric("api.label_cache_misses", cache_misses, "count");
  metric("api.handle_s", handle_total, "s");
  metric("trace.remainder_s", handle_total - path_total, "s");
  const double queue = sum_of_medians(served, &request_record::queue);
  const double service = sum_of_medians(served, &request_record::service);
  metric("host.reference_ms", host_->median_seconds() * 1e3, "ms");
  metric("serve.queue_s", queue, "s");
  metric("serve.service_s", service, "s");
  metric("serve.transport_s",
         sum_of_medians(served, &request_record::latency) - queue - service,
         "s");

  if (!opt_.results.empty()) {
    std::filesystem::create_directories(opt_.results);
    std::ofstream out(opt_.results + "/trace-" + spec_.name + "-seed" +
                      std::to_string(opt_.seed) + ".json");
    out << log.to_chrome_json();
  }
}

int benchmark::run() {
  // Set-up is the program's: from the start of main() until the first timed
  // request can be sent. The benchmark's own preparation (the oracle, the
  // host probe, its seeded inputs) follows it.
  load_corpus();
  double prime_seconds = 0.0;
  if (spec_.served) {
    const double w0 = now_seconds();
    daemon_ = std::make_unique<daemon_process>(opt_.serve, opt_.scratch,
                                               kConnections);
    warm_daemon();
    prime_seconds = now_seconds() - w0;
  } else {
    prime_seconds = prime();
  }
  const double setup_end = now_seconds();

  // In process, set-up (reading the circuits, the prime) is CPU work and is
  // reported at nominal host speed, like solve_s, from the probes taken
  // right after it. The
  // daemon's warm-up holds budget-bound requests and is reported as
  // measured.
  host_.emplace();
  for (int i = 0; i < kSetupProbes; ++i) host_->probe();
  const double speed =
      spec_.served ? 1.0 : host_->factor(setup_end, now_seconds());
  const double setup = (setup_end - started_) * speed;
  std::cerr << "set-up " << setup_end - started_ << " s measured, host factor "
            << speed << "\n";
  prepare_oracle();
  make_evaluations();
  if (opt_.trace) {
    metric("setup.prime_s", prime_seconds, "s");
    traced();
  } else {
    metric("setup_s", setup, "s");
    if (spec_.served)
      timed_served();
    else
      timed_in_process();
  }
  print_result();
  return correct_ ? 0 : 1;
}

void benchmark::print_result() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    std::snprintf(buf, sizeof buf, "%.17g", value_unit.first);
    out += (i == 0 ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + value_unit.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const double started = corpusbench::now_seconds();
  const options opt = parse_args(argc, argv);
  try {
    benchmark b(opt, started);
    return b.run();
  } catch (const std::exception& e) {
    std::cerr << "corpusbench: " << e.what() << "\n";
    return 1;
  }
}

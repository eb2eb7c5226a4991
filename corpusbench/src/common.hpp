// Shared pieces of the corpus benchmark: workload and request definitions,
// clocks, and the small statistics it reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace corpusbench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic generator for everything the seed decides.
class seeded_rng {
 public:
  explicit seeded_rng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() { return mix64(state_++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// One distinct request of a workload. Synthesize requests name a circuit
/// and labeler options; evaluate requests name the circuit whose served
/// design they evaluate and carry their assignment.
struct request_spec {
  std::string key;  // unique within the workload
  std::string circuit;
  std::string op = "synthesize";
  std::string labeler = "oct";
  double gamma = 0.5;
  double time_limit_seconds = 0.0;
  std::string assignment;  // evaluate only
};

struct workload_spec {
  std::string name;
  /// serve-warm: requests go to compact-serve over its socket, with the
  /// label cache warmed in set-up. Otherwise each request runs in process
  /// on a fresh api::service (cold caches).
  bool served = false;
  std::vector<request_spec> synthesize;  // distinct synthesize requests
  /// Seeded assignments per circuit: sent as evaluate requests when
  /// served, evaluated on the traced path by every workload.
  int evaluations_per_design = 2;
};

/// The four workloads.
[[nodiscard]] workload_spec make_workload(const std::string& name);

}  // namespace corpusbench

// Host speed reference. The 4-CPU hosts this benchmark runs on share their
// cores with other tenants, and the share changes over seconds to minutes:
// every circuit then slows alike by up to a third, in wall time and CPU
// time. A fixed reference kernel, run between requests, measures the speed
// around each request, so that the durations of work can be reported at a
// nominal host speed (see corpusbench/README.md, "Noise").
#pragma once

#include <cstdint>
#include <vector>

namespace corpusbench {

class host_speed {
 public:
  /// Wall seconds the reference kernel takes at nominal speed; scaled
  /// durations are expressed at this speed.
  static constexpr double kNominalSeconds = 0.003;

  host_speed();
  /// Run the reference kernel twice and record when and how long the
  /// second run took.
  void probe();
  /// Median kernel time over all probes.
  [[nodiscard]] double median_seconds() const;
  /// kNominalSeconds over the median kernel time of the probes taken in
  /// [from, to] and the nearest one on either side: below 1 when the host
  /// ran slow then. A duration in that window times this factor is the
  /// duration at nominal speed.
  [[nodiscard]] double factor(double from, double to) const;

 private:
  double run_kernel();

  std::vector<std::uint32_t> next_;  // one random cycle through the table
  std::vector<double> seconds_;
  std::vector<double> stamps_;  // probe midpoints (now_seconds), ascending
  std::uint64_t sink_ = 0;
};

}  // namespace corpusbench

#include "host_speed.hpp"

#include <algorithm>
#include <unordered_map>

#include "common.hpp"

namespace corpusbench {
namespace {

constexpr std::size_t kTableSize = 1u << 18;  // 1 MB of uint32: L2/L3 bound
constexpr int kChaseSteps = 200000;
constexpr std::uint32_t kHashInserts = 20000;

}  // namespace

host_speed::host_speed() : next_(kTableSize) {
  // One random cycle through every slot (Sattolo's algorithm), fixed seed.
  for (std::size_t i = 0; i < kTableSize; ++i)
    next_[i] = static_cast<std::uint32_t>(i);
  seeded_rng rng(0x5eed);
  for (std::size_t i = kTableSize - 1; i > 0; --i)
    std::swap(next_[i], next_[rng.below(i)]);
}

double host_speed::run_kernel() {
  const double start = now_seconds();
  // Pointer chasing with data-dependent branches, then hashing with
  // allocation: the mix of the solvers' and the graph builders' work.
  std::uint32_t p = 0;
  std::uint64_t acc = 0;
  for (int i = 0; i < kChaseSteps; ++i) {
    p = next_[p];
    acc += (p & 1u) != 0 ? p * 3ULL : p >> 1;
    if ((acc & 0x100u) != 0) acc ^= static_cast<std::uint64_t>(i);
  }
  std::unordered_map<std::uint32_t, std::uint32_t> table;
  for (std::uint32_t i = 0; i < kHashInserts; ++i)
    table[(i * 2654435761u) >> 7] += i;
  sink_ += acc + table.size();
  return now_seconds() - start;
}

void host_speed::probe() {
  // The first run refills the caches the measured work just used, so the
  // timed second run sees the host, not the footprint of that work.
  (void)run_kernel();
  const double start = now_seconds();
  seconds_.push_back(run_kernel());
  stamps_.push_back(start + 0.5 * seconds_.back());
}

double host_speed::median_seconds() const { return median(seconds_); }

double host_speed::factor(double from, double to) const {
  if (seconds_.empty()) return 1.0;
  // The probes inside [from, to] and the nearest one on either side.
  const auto first = std::lower_bound(stamps_.begin(), stamps_.end(), from);
  const auto last = std::upper_bound(stamps_.begin(), stamps_.end(), to);
  const std::ptrdiff_t lo =
      std::max<std::ptrdiff_t>(0, (first - stamps_.begin()) - 1);
  const std::ptrdiff_t hi =
      std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(seconds_.size()),
                               (last - stamps_.begin()) + 1);
  const double m = median(
      std::vector<double>(seconds_.begin() + lo, seconds_.begin() + hi));
  return m > 0.0 ? kNominalSeconds / m : 1.0;
}

}  // namespace corpusbench

// The branch-and-bound's primal machinery: diving must discover incumbents
// on instances where naive rounding of the half-integral LP point fails
// (the situation the VH-labeling MIP is always in).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "milp/branch_and_bound.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace compact::milp {
namespace {

/// Vertex cover of an odd cycle: the LP relaxation is all-half, rounding
/// all-up gives a cover but never the optimum; diving must find covers of
/// size (n+1)/2.
model odd_cycle_cover(int n) {
  model m;
  for (int i = 0; i < n; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    m.add_binary(1.0, name);
  }
  for (int i = 0; i < n; ++i)
    m.add_constraint({{i, 1.0}, {(i + 1) % n, 1.0}},
                     relation::greater_equal, 1.0);
  return m;
}

TEST(DivingTest, FindsOptimaWithoutWarmStart) {
  for (int n : {5, 9, 13}) {
    const model m = odd_cycle_cover(n);
    mip_options options;
    options.time_limit_seconds = 20.0;
    const mip_result r = solve_mip(m, options);
    ASSERT_EQ(r.status, mip_status::optimal) << "n=" << n;
    EXPECT_NEAR(r.objective, (n + 1) / 2, 1e-6);
  }
}

std::uint64_t counter_value(const char* name) {
  return global_metrics().counter(name).value();
}

TEST(DivingTest, DiveReachingTheIncumbentIsAbandonedDeterministically) {
  // Nine disjoint 5-cycles, no warm start: the root dive finds the optimum
  // (27) and the proof then enumerates 2^9 - 1 nodes, since every subtree
  // keeps an LP bound below 27. The one later dive starts under the
  // incumbent and is abandoned once its LP bound reaches it. Dives are
  // bounded by simplex pivots, not wall-clock time, so the whole search is
  // the same for any thread count and any time limit it completes within.
  model m;
  const int cycles = 9;
  const int length = 5;
  for (int i = 0; i < cycles * length; ++i) m.add_binary(1.0, "");
  for (int c = 0; c < cycles; ++c)
    for (int i = 0; i < length; ++i)
      m.add_constraint({{c * length + i, 1.0},
                        {c * length + (i + 1) % length, 1.0}},
                       relation::greater_equal, 1.0);

  set_metrics_enabled(true);
  std::optional<mip_result> reference;
  std::uint64_t reference_dive_iterations = 0;
  for (const int threads : {1, 2, 8}) {
    for (const double limit : {5.0, 50.0}) {
      mip_options options;
      options.threads = threads;
      options.time_limit_seconds = limit;
      const std::uint64_t dives0 = counter_value("milp.bnb.dives");
      const std::uint64_t cutoffs0 = counter_value("milp.bnb.dive_cutoffs");
      const std::uint64_t dive_iterations0 =
          counter_value("milp.bnb.dive_lp_iterations");
      const mip_result r = solve_mip(m, options);
      const std::uint64_t dive_iterations =
          counter_value("milp.bnb.dive_lp_iterations") - dive_iterations0;
      ASSERT_EQ(r.status, mip_status::optimal);
      EXPECT_EQ(r.objective, 27.0);
      EXPECT_EQ(counter_value("milp.bnb.dives") - dives0, 2u);
      EXPECT_EQ(counter_value("milp.bnb.dive_cutoffs") - cutoffs0, 1u);
      if (!reference) {
        reference = r;
        reference_dive_iterations = dive_iterations;
        continue;
      }
      EXPECT_EQ(r.x, reference->x) << threads << " threads, " << limit;
      EXPECT_EQ(r.objective, reference->objective);
      EXPECT_EQ(r.nodes_explored, reference->nodes_explored);
      EXPECT_EQ(dive_iterations, reference_dive_iterations);
    }
  }
  set_metrics_enabled(false);
}

TEST(DivingTest, LargeCoveringInstanceGetsAnIncumbent) {
  // Big enough that full enumeration is hopeless within the budget, but an
  // incumbent must exist (diving or integral LP) — no warm start given.
  rng random(2);
  model m;
  const int n = 60;
  for (int i = 0; i < n; ++i) m.add_binary(1.0, "");
  for (int c = 0; c < 120; ++c) {
    std::vector<linear_term> terms;
    for (int i = 0; i < n; ++i)
      if (random.next_below(5) == 0) terms.push_back({i, 1.0});
    if (terms.empty()) terms.push_back({c % n, 1.0});
    m.add_constraint(terms, relation::greater_equal, 1.0);
  }
  mip_options options;
  options.time_limit_seconds = 5.0;
  const mip_result r = solve_mip(m, options);
  ASSERT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
  EXPECT_FALSE(r.x.empty());
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(DivingTest, MixedIntegerContinuousInstances) {
  // Facility-style: open binary facilities to cover continuous demand.
  // min 3y1 + 2y2 + x  s.t.  x <= 4y1 + 2y2, x >= 3, 0 <= x <= 10.
  // Open y2 alone caps x at 2 < 3 -> need y1 (cost 3) with x = 3:
  // candidates: y1=1: 3+3=6 ; y1=1,y2=1: 5+3=8 -> optimum 6.
  model m;
  const int y1 = m.add_binary(3.0, "y1");
  const int y2 = m.add_binary(2.0, "y2");
  const int x = m.add_variable(0.0, 10.0, 1.0, false, "x");
  m.add_constraint({{x, 1.0}, {y1, -4.0}, {y2, -2.0}},
                   relation::less_equal, 0.0);
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-6);
  EXPECT_NEAR(r.x[static_cast<std::size_t>(y1)], 1.0, 1e-6);
}

TEST(DivingTest, EqualityConstrainedBinaries) {
  // Exactly-k selection: sum x = 3 over 7 binaries, minimize weighted sum.
  model m;
  std::vector<linear_term> sum;
  for (int i = 0; i < 7; ++i) {
    m.add_binary(static_cast<double>(7 - i), "");
    sum.push_back({i, 1.0});
  }
  m.add_constraint(sum, relation::equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  // Cheapest three: weights 1, 2, 3 (variables 6, 5, 4).
  EXPECT_NEAR(r.objective, 6.0, 1e-6);
}

}  // namespace
}  // namespace compact::milp

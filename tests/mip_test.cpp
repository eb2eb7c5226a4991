#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "milp/branch_and_bound.hpp"
#include "milp/presolve.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace compact::milp {
namespace {

std::uint64_t counter_value(const char* name) {
  return global_metrics().counter(name).value();
}

TEST(MipTest, PureLpPassesThrough) {
  model m;
  const int x = m.add_continuous(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 2.5);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
}

TEST(MipTest, SimpleKnapsack) {
  // max 5a + 4b + 3c s.t. 2a + 3b + c <= 3, binaries.
  // Best: a + c = weight 3, value 8.
  model m;
  const int a = m.add_binary(-5.0, "a");
  const int b = m.add_binary(-4.0, "b");
  const int c = m.add_binary(-3.0, "c");
  m.add_constraint({{a, 2.0}, {b, 3.0}, {c, 1.0}}, relation::less_equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, -8.0, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 0.0, 1e-6);
  EXPECT_NEAR(r.x[2], 1.0, 1e-6);
}

TEST(MipTest, IntegralityForcesRounding) {
  // min x s.t. 2x >= 3, x integer in [0, 5] -> x = 2 (LP gives 1.5).
  model m;
  const int x = m.add_variable(0.0, 5.0, 1.0, true, "x");
  m.add_constraint({{x, 2.0}}, relation::greater_equal, 3.0);
  const mip_result r = solve_mip(m);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(MipTest, InfeasibleModel) {
  model m;
  const int x = m.add_binary(1.0, "x");
  const int y = m.add_binary(1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 3.0);
  EXPECT_EQ(solve_mip(m).status, mip_status::infeasible);
}

TEST(MipTest, WarmStartAccepted) {
  model m;
  const int x = m.add_binary(1.0, "x");
  const int y = m.add_binary(1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 1.0);
  mip_options options;
  options.warm_start = std::vector<double>{1.0, 1.0};  // feasible, obj 2
  const mip_result r = solve_mip(m, options);
  ASSERT_EQ(r.status, mip_status::optimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);  // improves past the warm start
}

TEST(MipTest, BadWarmStartThrows) {
  model m;
  const int x = m.add_binary(1.0, "x");
  m.add_constraint({{x, 1.0}}, relation::greater_equal, 1.0);
  mip_options options;
  options.warm_start = std::vector<double>{0.0};
  EXPECT_THROW((void)solve_mip(m, options), compact::error);
}

TEST(MipTest, TraceIsMonotone) {
  // A small set-cover-ish instance that needs some branching.
  model m;
  rng random(13);
  const int n = 12;
  for (int i = 0; i < n; ++i)
    m.add_binary(1.0 + 0.01 * static_cast<double>(i), "x");
  for (int c = 0; c < 14; ++c) {
    std::vector<linear_term> terms;
    for (int i = 0; i < n; ++i)
      if (random.next_below(3) == 0) terms.push_back({i, 1.0});
    if (terms.size() < 2) terms.push_back({static_cast<int>(c % n), 1.0});
    m.add_constraint(terms, relation::greater_equal, 1.0);
  }
  // Milestones arrive through the on_trace event callback.
  std::vector<mip_trace_entry> trace;
  mip_options options;
  options.on_trace = [&trace](const mip_trace_entry& e) {
    trace.push_back(e);
  };
  const mip_result r = solve_mip(m, options);
  ASSERT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i].best_integer, trace[i - 1].best_integer + 1e-9);
    EXPECT_GE(trace[i].seconds, trace[i - 1].seconds);
  }
  // Bound never exceeds incumbent at termination.
  EXPECT_LE(r.best_bound, r.objective + 1e-6);
  if (r.status == mip_status::optimal) {
    EXPECT_LE(r.relative_gap, 1e-6);
  }
}

TEST(MipTest, RandomBinaryProgramsMatchBruteForce) {
  rng random(7);
  for (int t = 0; t < 15; ++t) {
    model m;
    const int n = 2 + static_cast<int>(random.next_below(6));  // up to 7
    std::vector<double> cost(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      cost[static_cast<std::size_t>(j)] = random.next_double() * 4.0 - 2.0;
      m.add_binary(cost[static_cast<std::size_t>(j)], "");
    }
    const int rows = 1 + static_cast<int>(random.next_below(4));
    std::vector<std::vector<double>> a(
        static_cast<std::size_t>(rows),
        std::vector<double>(static_cast<std::size_t>(n)));
    std::vector<double> rhs(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      std::vector<linear_term> terms;
      for (int j = 0; j < n; ++j) {
        a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            std::floor(random.next_double() * 5.0) - 1.0;
        if (a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] != 0.0)
          terms.push_back(
              {j, a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]});
      }
      rhs[static_cast<std::size_t>(i)] = std::floor(random.next_double() * 4.0);
      if (terms.empty()) terms.push_back({0, 0.0});
      m.add_constraint(terms, relation::less_equal,
                       rhs[static_cast<std::size_t>(i)]);
    }

    // Brute force.
    double best = 1e18;
    for (int mask = 0; mask < (1 << n); ++mask) {
      bool feasible = true;
      double obj = 0.0;
      for (int i = 0; i < rows && feasible; ++i) {
        double lhs = 0.0;
        for (int j = 0; j < n; ++j)
          if (mask & (1 << j))
            lhs += a[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
        if (lhs > rhs[static_cast<std::size_t>(i)] + 1e-9) feasible = false;
      }
      if (!feasible) continue;
      for (int j = 0; j < n; ++j)
        if (mask & (1 << j)) obj += cost[static_cast<std::size_t>(j)];
      best = std::min(best, obj);
    }

    const mip_result r = solve_mip(m);
    if (best > 1e17) {
      EXPECT_EQ(r.status, mip_status::infeasible) << "trial " << t;
    } else {
      ASSERT_EQ(r.status, mip_status::optimal) << "trial " << t;
      EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << t;
      EXPECT_TRUE(m.is_feasible(r.x));
    }
  }
}

TEST(MipTest, TimeLimitReturnsFeasibleWithGap) {
  // A deliberately tight time budget on a nontrivial instance: the solver
  // must still return the warm-start incumbent with a sane gap.
  model m;
  rng random(55);
  const int n = 30;
  for (int i = 0; i < n; ++i) m.add_binary(1.0, "");
  for (int c = 0; c < 60; ++c) {
    std::vector<linear_term> terms;
    for (int i = 0; i < n; ++i)
      if (random.next_below(4) == 0) terms.push_back({i, 1.0});
    if (terms.empty()) terms.push_back({0, 1.0});
    m.add_constraint(terms, relation::greater_equal, 1.0);
  }
  mip_options options;
  options.time_limit_seconds = 0.02;
  options.warm_start = std::vector<double>(static_cast<std::size_t>(n), 1.0);
  const mip_result r = solve_mip(m, options);
  ASSERT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
  EXPECT_GE(r.relative_gap, 0.0);
  EXPECT_LE(r.relative_gap, 1.0);
  EXPECT_TRUE(m.is_feasible(r.x));
}

TEST(MipTest, WarmStartMeetingTheRootBoundIsProvenAtTheRoot) {
  // Vertex cover of a 21-cycle: the root LP is all-half at 10.5, which the
  // unit lattice rounds up to 11, the size of the alternating cover given
  // as warm start. The root LP alone proves it: no strong branching, no
  // dive, and nothing that depends on the time limit.
  const int n = 21;
  model m;
  for (int i = 0; i < n; ++i) m.add_binary(1.0, "");
  for (int i = 0; i < n; ++i)
    m.add_constraint({{i, 1.0}, {(i + 1) % n, 1.0}}, relation::greater_equal,
                     1.0);
  std::vector<double> warm(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; i += 2) warm[static_cast<std::size_t>(i)] = 1.0;
  const long root_iterations = solve_lp(presolve_model(m).reduced).iterations;

  set_metrics_enabled(true);
  for (const double limit : {1.0, 100.0}) {
    mip_options options;
    options.time_limit_seconds = limit;
    options.objective_lattice = 1.0;
    options.warm_start = warm;
    const std::uint64_t iterations0 = counter_value("milp.bnb.lp_iterations");
    const std::uint64_t dives0 = counter_value("milp.bnb.dives");
    const std::uint64_t dive_iterations0 =
        counter_value("milp.bnb.dive_lp_iterations");
    const mip_result r = solve_mip(m, options);
    EXPECT_EQ(r.status, mip_status::optimal) << limit;
    EXPECT_EQ(r.nodes_explored, 1) << limit;
    EXPECT_EQ(r.x, warm) << limit;
    EXPECT_EQ(r.objective, 11.0) << limit;
    EXPECT_EQ(r.best_bound, 11.0) << limit;
    EXPECT_EQ(counter_value("milp.bnb.lp_iterations") - iterations0,
              static_cast<std::uint64_t>(root_iterations))
        << limit;
    EXPECT_EQ(counter_value("milp.bnb.dives"), dives0) << limit;
    EXPECT_EQ(counter_value("milp.bnb.dive_lp_iterations"), dive_iterations0)
        << limit;
  }
  set_metrics_enabled(false);
}

TEST(MipTest, GapToleranceStopsEarly) {
  model m;
  const int x = m.add_binary(-1.0, "x");
  const int y = m.add_binary(-1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 1.0);
  mip_options options;
  options.gap_tolerance = 0.9;  // huge tolerance: accept anything close
  const mip_result r = solve_mip(m, options);
  EXPECT_TRUE(r.status == mip_status::optimal ||
              r.status == mip_status::feasible);
}

}  // namespace
}  // namespace compact::milp

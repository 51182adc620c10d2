// Unit and property tests for src/chen: the per-interval energy-optimal
// schedule (Eq. 5/6), its derivatives (Proposition 1), the arrival
// monotonicity (Proposition 2), insertion curves, and the McNaughton
// realization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "chen/insertion_curve.hpp"
#include "chen/interval_schedule.hpp"
#include "chen/realize.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "support/reference_insertion_curve.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using chen::IntervalSolution;
using model::Load;

std::vector<Load> make_loads(const std::vector<double>& amounts) {
  std::vector<Load> loads;
  for (std::size_t i = 0; i < amounts.size(); ++i)
    loads.push_back({model::JobId(i), amounts[i]});
  return loads;
}

// ----------------------------------------------------- dedicated/pool split

TEST(IntervalSolution, FewJobsAllDedicated) {
  IntervalSolution s(make_loads({3.0, 1.0}), 4, 1.0);
  EXPECT_EQ(s.dedicated_count(), 2u);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 0.0);
  EXPECT_DOUBLE_EQ(s.speed_of(0), 3.0);
  EXPECT_DOUBLE_EQ(s.speed_of(1), 1.0);
  EXPECT_DOUBLE_EQ(s.slowest_speed(), 0.0);  // idle pool processors
}

TEST(IntervalSolution, EqualJobsShareAsPool) {
  IntervalSolution s(make_loads({1.0, 1.0, 1.0, 1.0}), 2, 1.0);
  EXPECT_EQ(s.dedicated_count(), 0u);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 2.0);
  for (model::JobId j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(s.speed_of(j), 2.0);
}

TEST(IntervalSolution, LargeJobGetsDedicatedProcessor) {
  // One giant job and three crumbs on two processors.
  IntervalSolution s(make_loads({10.0, 0.5, 0.5, 0.5}), 2, 1.0);
  EXPECT_EQ(s.dedicated_count(), 1u);
  EXPECT_DOUBLE_EQ(s.speed_of(0), 10.0);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 1.5);
}

TEST(IntervalSolution, BoundaryCaseExactAverage) {
  // u_0 exactly equals the average of the rest over m-1 processors:
  // 2.0 == (1.0 + 1.0 + 2.0) / 2 ... pick loads so equality holds.
  IntervalSolution s(make_loads({2.0, 2.0, 1.0, 1.0}), 3, 1.0);
  // u_0 = 2 >= (2+1+1)/2 = 2 -> dedicated; u_1 = 2 >= (1+1)/1 = 2 -> dedicated.
  EXPECT_EQ(s.dedicated_count(), 2u);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 2.0);
}

TEST(IntervalSolution, ZeroLoadsIgnored) {
  IntervalSolution s(make_loads({0.0, 2.0, 0.0}), 2, 2.0);
  EXPECT_EQ(s.sorted_loads().size(), 1u);
  EXPECT_DOUBLE_EQ(s.speed_of(1), 1.0);
  EXPECT_DOUBLE_EQ(s.speed_of(0), 0.0);
}

TEST(IntervalSolution, IntervalLengthScalesSpeeds) {
  IntervalSolution s(make_loads({4.0, 4.0, 4.0}), 2, 2.0);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 12.0 / 4.0);
}

TEST(IntervalSolution, SingleProcessorIsAllPool) {
  IntervalSolution s(make_loads({2.0, 1.0}), 1, 1.0);
  EXPECT_EQ(s.dedicated_count(), 0u);
  EXPECT_DOUBLE_EQ(s.pool_speed(), 3.0);
}

TEST(IntervalSolution, ProcessorSpeedsDescending) {
  util::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const int m = int(rng.uniform_int(1, 6));
    const int p = int(rng.uniform_int(0, 10));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.0, 5.0));
    IntervalSolution s(make_loads(amounts), m, rng.uniform(0.5, 3.0));
    const auto speeds = s.processor_speeds();
    ASSERT_EQ(speeds.size(), std::size_t(m));
    for (std::size_t i = 1; i < speeds.size(); ++i)
      EXPECT_LE(speeds[i], speeds[i - 1] + 1e-12);
    EXPECT_DOUBLE_EQ(speeds.back(), s.slowest_speed());
  }
}

// Energy optimality: the dedicated/pool split must beat random feasible
// alternatives that assign each job entirely to one processor (with
// per-processor loads balanced as a pool inside each processor group).
TEST(IntervalSolution, EnergyBeatsRandomPartitions) {
  util::Rng rng(5);
  const double alpha = 2.7;
  for (int trial = 0; trial < 200; ++trial) {
    const int m = int(rng.uniform_int(2, 4));
    const int p = int(rng.uniform_int(2, 6));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.1, 4.0));
    const double length = rng.uniform(0.5, 2.0);
    IntervalSolution s(make_loads(amounts), m, length);
    const double optimal = s.energy(alpha);

    // Random alternative: partition jobs into m groups; within a group the
    // best is constant speed = group load / length. This is a valid (not
    // necessarily optimal) schedule, so optimal must not exceed it.
    for (int alt = 0; alt < 20; ++alt) {
      std::vector<double> group(m, 0.0);
      for (double a : amounts) group[std::size_t(rng.uniform_int(0, m - 1))] += a;
      double energy = 0.0;
      for (double g : group)
        energy += length * std::pow(g / length, alpha);
      EXPECT_LE(optimal, energy * (1.0 + 1e-9));
    }
  }
}

// --------------------------------------------------------- Proposition 1(b)

TEST(IntervalSolution, DerivativeMatchesFiniteDifference) {
  util::Rng rng(17);
  const double alpha = 3.0;
  for (int trial = 0; trial < 100; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const int p = int(rng.uniform_int(1, 7));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.2, 4.0));
    const double length = rng.uniform(0.5, 2.0);
    const model::JobId target = model::JobId(rng.uniform_int(0, p - 1));

    IntervalSolution base(make_loads(amounts), m, length);
    const double analytic =
        chen::interval_energy_derivative(base, target, alpha);

    const double h = 1e-6;
    auto bumped_up = amounts, bumped_dn = amounts;
    bumped_up[std::size_t(target)] += h;
    bumped_dn[std::size_t(target)] -= h;
    const double e_up = chen::interval_energy(make_loads(bumped_up), m,
                                              length, alpha);
    const double e_dn = chen::interval_energy(make_loads(bumped_dn), m,
                                              length, alpha);
    const double numeric = (e_up - e_dn) / (2.0 * h);
    EXPECT_NEAR(analytic, numeric, 1e-3 * std::max(1.0, std::abs(numeric)))
        << "m=" << m << " p=" << p << " target=" << target;
  }
}

TEST(IntervalSolution, EnergyConvexAlongRandomLines) {
  util::Rng rng(23);
  const double alpha = 2.2;
  for (int trial = 0; trial < 50; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const int p = int(rng.uniform_int(2, 6));
    std::vector<double> a, b;
    for (int i = 0; i < p; ++i) {
      a.push_back(rng.uniform(0.0, 3.0));
      b.push_back(rng.uniform(0.0, 3.0));
    }
    auto blend = [&](double t) {
      std::vector<double> mix(a.size());
      for (std::size_t i = 0; i < a.size(); ++i)
        mix[i] = (1 - t) * a[i] + t * b[i];
      return chen::interval_energy(make_loads(mix), m, 1.0, alpha);
    };
    const double mid = blend(0.5);
    EXPECT_LE(mid, 0.5 * blend(0.0) + 0.5 * blend(1.0) + 1e-9);
  }
}

// ------------------------------------------------------------ Proposition 2

TEST(IntervalSolution, Proposition2LoadMonotonicity) {
  util::Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = int(rng.uniform_int(1, 5));
    const int p = int(rng.uniform_int(0, 8));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.1, 4.0));
    const double z = rng.uniform(0.01, 5.0);
    const double length = rng.uniform(0.5, 2.0);

    IntervalSolution before(make_loads(amounts), m, length);
    auto with_new = amounts;
    with_new.push_back(z);
    IntervalSolution after(make_loads(with_new), m, length);

    for (std::size_t i = 0; i < std::size_t(m); ++i) {
      const double li = before.load_on_processor(i);
      const double li_after = after.load_on_processor(i);
      EXPECT_GE(li_after, li - 1e-9) << "processor " << i;
      EXPECT_LE(li_after - li, z + 1e-9) << "processor " << i;
    }
  }
}

// --------------------------------------------------------- insertion curves

TEST(InsertionCurve, MatchesDirectEvaluation) {
  util::Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const int m = int(rng.uniform_int(1, 5));
    const int p = int(rng.uniform_int(0, 8));
    std::vector<double> loads;
    for (int i = 0; i < p; ++i) loads.push_back(rng.uniform(0.1, 4.0));
    const double length = rng.uniform(0.5, 2.0);
    const auto curve = chen::insertion_curve(loads, m, length);

    auto sorted = loads;
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    for (int probe = 0; probe < 20; ++probe) {
      const double s = rng.uniform(0.0, 8.0);
      EXPECT_NEAR(curve.eval(s),
                  chen::insertion_amount(sorted, m, length, s), 1e-9)
          << "s=" << s << " m=" << m;
    }
  }
}

TEST(InsertionCurve, ZeroBelowSlowestProcessorSpeed) {
  util::Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const int p = int(rng.uniform_int(1, 8));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.1, 4.0));
    const double length = rng.uniform(0.5, 2.0);
    IntervalSolution rest(make_loads(amounts), m, length);
    const auto curve = chen::insertion_curve(amounts, m, length);
    const double s0 = rest.slowest_speed();
    EXPECT_NEAR(curve.eval(s0), 0.0, 1e-9);
    EXPECT_GT(curve.eval(s0 + 0.01), 0.0);
  }
}

// Inverse consistency: inserting z = curve(s) as a real job yields a Chen
// schedule that processes exactly that job at speed ~ s.
TEST(InsertionCurve, InverseConsistentWithChen) {
  util::Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const int m = int(rng.uniform_int(1, 5));
    const int p = int(rng.uniform_int(0, 7));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.1, 4.0));
    const double length = rng.uniform(0.5, 2.0);
    const auto curve = chen::insertion_curve(amounts, m, length);

    const double s = rng.uniform(0.05, 6.0);
    const double z = curve.eval(s);
    if (z <= 1e-9) continue;
    auto with_new = make_loads(amounts);
    const model::JobId new_id = model::JobId(p);
    with_new.push_back({new_id, z});
    IntervalSolution sol(with_new, m, length);
    EXPECT_NEAR(sol.speed_of(new_id), s, 1e-6 * std::max(1.0, s))
        << "m=" << m << " z=" << z;
  }
}

TEST(InsertionCurve, FinalSlopeIsIntervalLength) {
  const auto curve = chen::insertion_curve({1.0, 2.0}, 3, 1.75);
  EXPECT_DOUBLE_EQ(curve.final_slope(), 1.75);
}

TEST(InsertionCurve, EmptyIntervalIsDedicatedLine) {
  const auto curve = chen::insertion_curve({}, 2, 2.0);
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 2.0);   // z = s * l
  EXPECT_DOUBLE_EQ(curve.eval(3.0), 6.0);
}

TEST(InsertionCurve, FullyDedicatedIntervalBlocksSlowInsertion) {
  // Two processors each with a dedicated job at speed 2; a new job cannot
  // run slower than 2 here.
  const auto curve = chen::insertion_curve({2.0, 2.0}, 2, 1.0);
  EXPECT_DOUBLE_EQ(curve.eval(1.0), 0.0);
  EXPECT_DOUBLE_EQ(curve.eval(2.0), 0.0);
  EXPECT_GT(curve.eval(2.5), 0.0);
}

// ------------------------------------- in-place builder vs frozen reference

// Bitwise equality of every knot and the final slope.
void expect_same_curve(const util::PiecewiseLinear& got,
                       const reference::ReferenceCurve& want,
                       const std::string& what) {
  ASSERT_EQ(got.knots().size(), want.knots.size()) << what;
  for (std::size_t i = 0; i < want.knots.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knots()[i].x),
              std::bit_cast<std::uint64_t>(want.knots[i].x))
        << what << " knot " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knots()[i].y),
              std::bit_cast<std::uint64_t>(want.knots[i].y))
        << what << " knot " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_slope()),
            std::bit_cast<std::uint64_t>(want.final_slope))
      << what;
}

// Checks the in-place builder (through one reused scratch and curve) and
// both wrapper overloads against the frozen reference.
void expect_matches_reference(const std::vector<Load>& loads,
                              model::JobId ignore_job, int m, double length,
                              chen::InsertionScratch& scratch,
                              util::PiecewiseLinear& reused,
                              const std::string& what) {
  std::vector<double> others;
  for (const Load& l : loads)
    if (l.job != ignore_job) others.push_back(l.amount);
  const auto want = reference::reference_insertion_curve(others, m, length);
  chen::build_insertion_curve(loads, ignore_job, m, length, scratch, reused);
  expect_same_curve(reused, want, what + " (in place)");
  expect_same_curve(chen::insertion_curve(others, m, length), want,
                    what + " (amounts)");
  expect_same_curve(chen::insertion_curve(loads, ignore_job, m, length), want,
                    what + " (loads)");
}

TEST(InsertionCurve, InPlaceBuilderMatchesFrozenReference) {
  util::Rng rng(2024);
  // One scratch and one curve across every trial: the buffers grow and
  // shrink with the random load counts.
  chen::InsertionScratch scratch;
  util::PiecewiseLinear reused;
  for (int trial = 0; trial < 3000; ++trial) {
    const int m = int(rng.uniform_int(1, 6));
    const int p = int(rng.uniform_int(0, 3 * m + 2));  // often > m loads
    const double length = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const std::vector<double> pool{rng.uniform(0.1, 4.0),
                                   rng.uniform(0.1, 4.0),
                                   rng.uniform(0.1, 4.0)};
    const bool duplicates = rng.bernoulli(0.3);
    std::vector<Load> loads;
    for (int i = 0; i < p; ++i) {
      double amount = duplicates ? pool[std::size_t(rng.uniform_int(0, 2))]
                                 : std::pow(10.0, rng.uniform(-3.0, 3.0));
      if (rng.bernoulli(0.15)) amount = 0.0;
      loads.push_back({model::JobId(i), amount});
    }
    const model::JobId ignore_job =
        p > 0 && rng.bernoulli(0.4) ? model::JobId(rng.uniform_int(0, p - 1))
                                    : model::JobId(-1);
    expect_matches_reference(loads, ignore_job, m, length, scratch, reused,
                             "trial " + std::to_string(trial));
  }
}

TEST(InsertionCurve, InPlaceBuilderMatchesReferenceOnRoundEqualThresholds) {
  // Distinct loads whose thresholds u/l round to the same double: the
  // builder must drop the duplicate candidate exactly as sort + unique did.
  util::Rng rng(77);
  chen::InsertionScratch scratch;
  util::PiecewiseLinear reused;
  int collisions = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const double length = rng.uniform(1.5, 9.0);
    std::vector<Load> loads;
    for (int i = 0; i < 4; ++i) {
      const double u = rng.uniform(0.5, 4.0);
      const double v = std::nextafter(u, 8.0);
      if (u / length == v / length) ++collisions;
      loads.push_back({model::JobId(2 * i), u});
      loads.push_back({model::JobId(2 * i + 1), v});
    }
    expect_matches_reference(loads, -1, m, length, scratch, reused,
                             "trial " + std::to_string(trial));
  }
  EXPECT_GT(collisions, 0) << "no threshold pair rounded equal";
}

TEST(InsertionCurve, InPlaceBuilderMatchesReferenceOnEdgeCases) {
  chen::InsertionScratch scratch;
  util::PiecewiseLinear reused;
  const double tiny = std::numeric_limits<double>::denorm_min();
  // A threshold that underflows to the 0 candidate, all-zero loads, no
  // loads, a buffer that shrinks to nothing and grows back, and loads at
  // both ends of the double range.
  const std::vector<std::vector<double>> cases{
      {tiny, 1.0}, {0.0, 0.0}, {}, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, {},
      {3.0, 0.0, 2.0, 2.0, 1e-9, 5e6}, {1e-300, 3e-300, 2e-300},
      {1e300, 5e299}};
  for (std::size_t c = 0; c < cases.size(); ++c)
    for (int m = 1; m <= 3; ++m)
      expect_matches_reference(make_loads(cases[c]), -1, m, 4.0, scratch,
                               reused,
                               "case " + std::to_string(c) + " m=" +
                                   std::to_string(m));
}

// ------------------------------------------------------------- realization

TEST(Realize, DedicatedAndPoolSegmentsValid) {
  util::Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    const int m = int(rng.uniform_int(1, 5));
    const int p = int(rng.uniform_int(1, 9));
    std::vector<double> amounts;
    for (int i = 0; i < p; ++i) amounts.push_back(rng.uniform(0.1, 4.0));
    const double length = rng.uniform(0.5, 2.0);

    IntervalSolution sol(make_loads(amounts), m, length);
    model::Schedule schedule(m);
    chen::realize_interval(sol, 10.0, schedule);
    schedule.normalize();

    // Work conservation per job.
    for (int j = 0; j < p; ++j)
      EXPECT_NEAR(schedule.work_done(j), amounts[std::size_t(j)],
                  1e-9 * std::max(1.0, amounts[std::size_t(j)]));

    // Feasibility: build a tiny instance whose window is the interval.
    std::vector<model::Job> jobs;
    for (int j = 0; j < p; ++j)
      jobs.push_back({-1, 10.0, 10.0 + length, amounts[std::size_t(j)], 1.0});
    const auto inst =
        model::make_instance(model::Machine{m, 3.0}, std::move(jobs));
    const auto v = model::validate_schedule(schedule, inst);
    EXPECT_TRUE(v.ok) << v.summary();

    // Energy of the realized segments equals the analytic P_k.
    EXPECT_NEAR(schedule.energy(3.0), sol.energy(3.0),
                1e-9 * std::max(1.0, sol.energy(3.0)));
  }
}

TEST(Realize, AssignmentAcrossIntervals) {
  // Two intervals, three jobs, two processors; loads hand-constructed.
  const auto partition = model::TimePartition::from_boundaries({0.0, 1.0, 3.0});
  model::WorkAssignment assignment(2);
  assignment.set_load(0, 0, 1.0);
  assignment.set_load(0, 1, 1.0);
  assignment.set_load(1, 1, 2.0);
  assignment.set_load(1, 2, 2.0);
  const auto schedule = chen::realize_assignment(assignment, partition, 2);
  EXPECT_NEAR(schedule.work_done(0), 1.0, 1e-12);
  EXPECT_NEAR(schedule.work_done(1), 3.0, 1e-12);
  EXPECT_NEAR(schedule.work_done(2), 2.0, 1e-12);
}

}  // namespace
}  // namespace pss

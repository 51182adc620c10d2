// Tests for the fractional PD extension (online algorithm for the relaxed
// program): service fractions, dual variables, structural feasibility, and
// its relationship to integral PD.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fractional_pd.hpp"
#include "core/rejection.hpp"
#include "core/run.hpp"
#include "model/schedule.hpp"
#include "util/math.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using model::Job;
using model::Machine;

// Validate structure of a fractional schedule: windows and nonparallel
// execution must hold; completion is checked against the served fraction.
void expect_fractional_feasible(const core::FractionalPdResult& result,
                                const model::Instance& inst) {
  model::Schedule marked = result.schedule;
  for (const Job& job : inst.jobs())
    if (result.fraction[std::size_t(job.id)] < 1.0 - 1e-9)
      marked.mark_rejected(job.id);  // relax the completion check only
  const auto validation = model::validate_schedule(marked, inst);
  EXPECT_TRUE(validation.ok) << validation.summary();
  for (const Job& job : inst.jobs()) {
    EXPECT_NEAR(result.schedule.work_done(job.id),
                result.fraction[std::size_t(job.id)] * job.work,
                1e-6 * std::max(1.0, job.work))
        << "job " << job.id;
  }
}

TEST(FractionalPd, FullServiceBelowCap) {
  // Lone affordable job: served fully, same as integral PD.
  const auto inst = model::make_instance(Machine{1, 2.0},
                                         {Job{-1, 0, 1, 1.0, 10.0}});
  const auto frac = core::run_fractional_pd(inst);
  EXPECT_DOUBLE_EQ(frac.fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(frac.lost_value, 0.0);
  const auto integral = core::run_pd(inst);
  EXPECT_NEAR(frac.energy, integral.cost.energy, 1e-12);
}

TEST(FractionalPd, PartialServiceAtTheCap) {
  // m=1, alpha=2, delta=1 (marginal-cost pricing): the cap speed solves
  // P'(s) = v/w, i.e. s_cap = v/2 = 0.25 on a unit window, so a job with
  // work 1 gets exactly z = 0.25 served.
  const auto inst = model::make_instance(Machine{1, 2.0},
                                         {Job{-1, 0, 1, 1.0, 0.5}});
  const auto frac = core::run_fractional_pd(inst);
  EXPECT_NEAR(frac.fraction[0], 0.25, 1e-12);
  EXPECT_NEAR(frac.lost_value, 0.375, 1e-12);  // (1 - 0.25) * 0.5
  EXPECT_NEAR(frac.energy, 0.0625, 1e-12);     // 1 * 0.25^2
  EXPECT_DOUBLE_EQ(frac.lambda[0], 0.5);       // marginal hit the price
  // Integral PD rejects this job outright and pays the full value 0.5;
  // marginal-cost partial service is strictly cheaper (0.4375).
  const auto integral = core::run_pd(inst);
  EXPECT_FALSE(integral.accepted[0]);
  EXPECT_GT(integral.cost.total(), frac.total_cost());
}

TEST(FractionalPd, AgreesWithIntegralOnFullAccepts) {
  // Run both with the *same* delta: whenever integral PD accepts every
  // job, the caps coincide and the two algorithms build identical
  // assignments (partial service never triggers).
  workload::UniformConfig config;
  config.num_jobs = 25;
  config.value_scale = 50.0;  // everything precious
  const double delta = core::optimal_delta(3.0);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = workload::uniform_random(config, Machine{2, 3.0}, seed);
    const auto integral = core::run_pd(inst, {.delta = delta});
    for (bool a : integral.accepted) ASSERT_TRUE(a);
    const auto frac = core::run_fractional_pd(inst, delta);
    for (double f : frac.fraction) EXPECT_NEAR(f, 1.0, 1e-9);
    EXPECT_NEAR(frac.energy, integral.cost.energy,
                1e-7 * std::max(1.0, integral.cost.energy));
  }
}

TEST(FractionalPd, StructurallyFeasibleOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::TightConfig config;
    config.num_jobs = 30;
    config.value_scale = 0.8;
    const int m = 1 + int(seed % 3);
    const auto inst = workload::tight_laxity(config, Machine{m, 3.0}, seed);
    const auto frac = core::run_fractional_pd(inst);
    expect_fractional_feasible(frac, inst);
    for (double f : frac.fraction) {
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-12);
    }
  }
}

TEST(FractionalPd, LambdaConventions) {
  workload::UniformConfig config;
  config.num_jobs = 30;
  config.value_scale = 1.0;
  const auto inst = workload::uniform_random(config, Machine{1, 3.0}, 7);
  const auto frac = core::run_fractional_pd(inst);
  for (const Job& job : inst.jobs()) {
    const double f = frac.fraction[std::size_t(job.id)];
    const double lambda = frac.lambda[std::size_t(job.id)];
    if (f < 1.0 - 1e-9) {
      // Any partially (or un-)served job pegged lambda at its value.
      EXPECT_NEAR(lambda, job.value, 1e-9 * job.value) << job.to_string();
    } else {
      EXPECT_LE(lambda, job.value * (1.0 + 1e-9)) << job.to_string();
    }
  }
  EXPECT_GT(frac.dual_lower_bound, 0.0);
}

TEST(FractionalPd, DominatesIntegralUnderScarcity) {
  // When values are contested, serving fractions recovers value integral
  // PD forfeits. (Not a theorem across arbitrary sequences — capacity
  // occupied by fractions can hurt later jobs — but on these workloads the
  // fractional cost model is strictly cheaper on average.)
  workload::TightConfig config;
  config.num_jobs = 40;
  config.value_scale = 0.5;
  double frac_total = 0.0, integral_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = workload::tight_laxity(config, Machine{2, 3.0}, seed);
    frac_total += core::run_fractional_pd(inst).total_cost();
    integral_total += core::run_pd(inst).cost.total();
  }
  EXPECT_LT(frac_total, integral_total);
}

}  // namespace
}  // namespace pss

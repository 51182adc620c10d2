// Property coverage for the engine's curve-cache invalidation triggers —
// the paths tests/test_fuzz.cpp does not reach — each checked bitwise
// against the reference oracle (tests/support/reference_pd):
//   * interior interval splits mid-stream (a later arrival's boundary lands
//     inside an interval that already carries committed load),
//   * horizon extension to the right (t > hi appends intervals),
//   * the prepend path (t < lo in ensure_boundary, reachable through the
//     1e-12 release-order tolerance and by driving OnlineState directly).
// Plus direct unit tests of CurveCache (epoch, length) validation across
// store refinements, and of LazyLinearSum against the materialized sum.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/online_state.hpp"
#include "core/pd_scheduler.hpp"
#include "model/instance.hpp"
#include "model/interval_store.hpp"
#include "model/time_partition.hpp"
#include "support/reference_pd.hpp"
#include "util/math.hpp"
#include "util/piecewise_linear.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::CurveCache;
using core::OnlineState;
using core::PdScheduler;
using model::IntervalStore;
using model::Job;
using model::Machine;

// A store over `bounds` carrying the given (interval, job, amount) loads.
IntervalStore make_store(const std::vector<double>& bounds,
                         const std::vector<std::tuple<std::size_t,
                                                      model::JobId, double>>&
                             loads) {
  IntervalStore store;
  for (const double b : bounds) store.ensure_boundary(b);
  for (const auto& [k, job, amount] : loads)
    store.set_load(store.handle_at(k), job, amount);
  return store;
}

Job make_job(model::JobId id, double release, double deadline, double work,
             double value) {
  Job job;
  job.id = id;
  job.release = release;
  job.deadline = deadline;
  job.work = work;
  job.value = value;
  return job;
}

void expect_lockstep_identical(const std::vector<Job>& jobs, Machine machine,
                               long long* splits = nullptr,
                               long long* extensions = nullptr) {
  reference::ReferencePd reference(machine);
  PdScheduler cached(machine);
  for (const Job& job : jobs) {
    const auto a = reference.on_arrival(job);
    const auto b = cached.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
  }
  ASSERT_EQ(reference.planned_energy(), cached.planned_energy());
  if (splits) *splits = cached.counters().interval_splits;
  if (extensions) *extensions = cached.counters().horizon_extensions;
}

// ------------------------------------------------ interior splits mid-stream

// Jobs whose windows nest strictly inside earlier (loaded) intervals, so
// every later arrival splits an interval that carries committed work and
// the cache must discard both halves.
TEST(CacheInvalidation, InteriorSplitsMidStreamFuzz) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const double alpha = rng.uniform(1.2, 3.5);
    const int m = int(rng.uniform_int(1, 6));
    std::vector<Job> jobs;
    // One wide loaded umbrella, then arrivals with irrational-ish interior
    // boundaries that never coincide with existing ones.
    jobs.push_back(make_job(0, 0.0, 64.0, rng.uniform(4.0, 12.0),
                            util::kInf));
    double t = 0.0;
    for (int i = 1; i < 18; ++i) {
      t += rng.uniform(0.2, 2.8);
      const double span = rng.uniform(0.3, 7.0);
      jobs.push_back(make_job(i, t, std::min(t + span, 63.9),
                              rng.uniform(0.2, 4.0),
                              std::pow(10.0, rng.uniform(-1.0, 2.0))));
    }
    long long splits = 0;
    expect_lockstep_identical(jobs, Machine{m, alpha}, &splits);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(splits, 0) << "trial " << trial
                         << " never exercised the split path";
  }
}

// --------------------------------------------- horizon extension to the right

TEST(CacheInvalidation, HorizonExtensionFuzz) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const double alpha = rng.uniform(1.2, 3.5);
    const int m = int(rng.uniform_int(1, 6));
    std::vector<Job> jobs;
    double t = 0.0;
    double horizon = 0.0;
    for (int i = 0; i < 20; ++i) {
      t += rng.uniform(0.1, 1.5);
      // Deadline always beyond the current horizon: every arrival appends.
      const double deadline = std::max(t, horizon) + rng.uniform(0.5, 4.0);
      horizon = deadline;
      jobs.push_back(make_job(i, t, deadline, rng.uniform(0.3, 3.0),
                              std::pow(10.0, rng.uniform(-1.0, 2.0))));
    }
    long long extensions = 0;
    expect_lockstep_identical(jobs, Machine{m, alpha}, nullptr, &extensions);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(extensions, 0) << "trial " << trial;
  }
}

// ----------------------------------------------------------- prepend (t < lo)

// The release-order guard admits releases up to 1e-12 before the previous
// one, so a second arrival can introduce a boundary strictly left of the
// horizon start — the prepend rebuild path, previously untested.
TEST(CacheInvalidation, PrependThroughReleaseTolerance) {
  const double r0 = 1.0;
  const double r1 = r0 - 0.5e-12;  // within tolerance, strictly < lo
  ASSERT_LT(r1, r0);
  const std::vector<Job> jobs = {
      make_job(0, r0, 2.0, 1.0, util::kInf),
      make_job(1, r1, 1.5, 0.7, 5.0),
  };
  reference::ReferencePd reference(Machine{2, 2.0});
  PdScheduler cached(Machine{2, 2.0});
  for (const Job& job : jobs) {
    const auto a = reference.on_arrival(job);
    const auto b = cached.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.speed, b.speed);
    ASSERT_EQ(a.lambda, b.lambda);
  }
  EXPECT_EQ(cached.counters().horizon_extensions, 1);
  EXPECT_EQ(cached.partition().boundaries().front(), r1);
  ASSERT_EQ(reference.planned_energy(), cached.planned_energy());
  // Job 0's committed work survived the index shift.
  EXPECT_NEAR(cached.assignment().total_of(0), 1.0, 1e-9);
}

// Driving OnlineState directly: a prepend shifts every interval's position
// but no handle, so previously built curves stay valid and hit.
TEST(CacheInvalidation, OnlineStatePrependKeepsCacheAligned) {
  OnlineState state;
  CurveCache cache;
  state.ensure_boundary(1.0);
  state.ensure_boundary(2.0);
  state.ensure_boundary(3.0);
  ASSERT_EQ(state.num_intervals(), 2u);
  state.store.set_load(state.store.handle_at(0), 7, 1.5);
  state.store.set_load(state.store.handle_at(1), 8, 0.5);

  const auto before = cache.curves_for(state.store, 2, {0, 2});
  const std::vector<util::PiecewiseLinear::Knot> knots0 = before[0]->knots();
  ASSERT_EQ(cache.stats().rebuilds, 2);

  state.ensure_boundary(0.5);  // t < lo: prepend
  ASSERT_EQ(state.num_intervals(), 3u);
  EXPECT_EQ(state.horizon_extensions, 2);  // the append at t=3, this prepend
  // Job 7's load moved to position 1 with its interval.
  EXPECT_EQ(state.store.load_of(state.store.handle_at(1), 7), 1.5);

  const auto after = cache.curves_for(state.store, 2, {0, 3});
  // Only the new leading interval needed a build; the shifted entries hit.
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 2);
  ASSERT_EQ(after[1]->knots().size(), knots0.size());
  for (std::size_t i = 0; i < knots0.size(); ++i) {
    EXPECT_EQ(after[1]->knots()[i].x, knots0[i].x);
    EXPECT_EQ(after[1]->knots()[i].y, knots0[i].y);
  }
}

// ------------------------------------------------------- CurveCache mechanics

TEST(CurveCache, EpochInvalidationOnSetLoad) {
  IntervalStore store =
      make_store({0.0, 1.0, 2.5, 3.0}, {{0, 1, 2.0}, {1, 2, 1.0}});

  CurveCache cache;
  (void)cache.curves_for(store, 2, {0, 3});
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 0);

  (void)cache.curves_for(store, 2, {0, 3});
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 3);

  store.set_load(store.handle_at(1), 3, 0.25);  // dirties interval 1 only
  const auto curves = cache.curves_for(store, 2, {0, 3});
  EXPECT_EQ(cache.stats().rebuilds, 4);
  EXPECT_EQ(cache.stats().hits, 5);

  // The rebuilt curve matches a from-scratch build exactly.
  const auto fresh = chen::insertion_curve(store.loads(store.handle_at(1)),
                                           -1, 2, 1.5);
  ASSERT_EQ(curves[1]->knots().size(), fresh.knots().size());
  for (std::size_t i = 0; i < fresh.knots().size(); ++i) {
    EXPECT_EQ(curves[1]->knots()[i].x, fresh.knots()[i].x);
    EXPECT_EQ(curves[1]->knots()[i].y, fresh.knots()[i].y);
  }
}

TEST(CurveCache, SplitInvalidatesBothHalves) {
  IntervalStore store = make_store({0.0, 2.0, 4.0}, {{0, 1, 3.0}, {1, 2, 1.0}});

  CurveCache cache;
  (void)cache.curves_for(store, 1, {0, 2});
  ASSERT_EQ(cache.stats().rebuilds, 2);

  // Split interval 0 at half its length; both halves must rebuild (the
  // left keeps its handle but changed epoch and length, the right is a
  // fresh handle), the shifted old interval 1 must not.
  store.ensure_boundary(1.0);
  (void)cache.curves_for(store, 1, {0, 3});
  EXPECT_EQ(cache.stats().rebuilds, 4);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(CurveCache, IgnoreJobLoadBypassesCache) {
  IntervalStore store = make_store({0.0, 2.0}, {{0, 5, 1.0}, {0, 6, 4.0}});

  CurveCache cache;
  // Excluding job 5 must produce the other-loads curve, not the all-loads
  // curve, and must not poison the cache for later all-loads queries.
  const auto excluding = cache.curves_for(store, 2, {0, 1}, 5);
  const auto expected = chen::insertion_curve({4.0}, 2, 2.0);
  EXPECT_EQ(excluding[0]->eval(1.0), expected.eval(1.0));
  EXPECT_EQ(cache.stats().hits, 0);

  const auto all = cache.curves_for(store, 2, {0, 1});
  const auto expected_all = chen::insertion_curve({1.0, 4.0}, 2, 2.0);
  EXPECT_EQ(all[0]->eval(1.0), expected_all.eval(1.0));
}

// --------------------------------------------- LazyLinearSum vs materialized

TEST(LazyLinearSum, MatchesMaterializedSumEverywhere) {
  util::Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_curves = int(rng.uniform_int(1, 6));
    std::vector<util::PiecewiseLinear> curves;
    for (int c = 0; c < num_curves; ++c) {
      std::vector<double> loads;
      const int p = int(rng.uniform_int(0, 6));
      for (int i = 0; i < p; ++i) loads.push_back(rng.uniform(0.05, 4.0));
      curves.push_back(
          chen::insertion_curve(loads, int(rng.uniform_int(1, 4)),
                                rng.uniform(0.2, 3.0)));
    }
    const auto total = util::PiecewiseLinear::sum(curves);
    std::vector<const util::PiecewiseLinear*> ptrs;
    for (const auto& c : curves) ptrs.push_back(&c);
    const util::LazyLinearSum lazy(ptrs);

    EXPECT_EQ(lazy.final_slope(), total.final_slope());
    for (int probe = 0; probe < 50; ++probe) {
      const double s = std::pow(10.0, rng.uniform(-2.0, 1.5));
      EXPECT_EQ(lazy.eval(s), total.eval(s)) << "trial " << trial;
      const double target = rng.uniform(0.0, 1.5) * std::max(1.0, total.eval(s));
      const auto a = total.first_at_least(target);
      const auto b = lazy.first_at_least(target);
      ASSERT_EQ(a.has_value(), b.has_value()) << "trial " << trial;
      if (a.has_value()) {
        EXPECT_EQ(*a, *b) << "trial " << trial;
      }
    }
  }
}

TEST(LazyLinearSum, MatchesReferenceWaterFill) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const std::size_t num_intervals = std::size_t(rng.uniform_int(1, 5));
    std::vector<double> bounds{0.0};
    for (std::size_t k = 0; k < num_intervals; ++k)
      bounds.push_back(bounds.back() + rng.uniform(0.3, 2.0));
    const auto partition = model::TimePartition::from_boundaries(bounds);
    model::WorkAssignment assignment(num_intervals);
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (int j = 0; j < 3; ++j)
        if (rng.bernoulli(0.5))
          assignment.set_load(k, 100 + j, rng.uniform(0.1, 3.0));

    const double work = rng.uniform(0.2, 6.0);
    const double cap = rng.bernoulli(0.3) ? util::kInf : rng.uniform(0.5, 6.0);
    const model::IntervalRange window{0, num_intervals};
    const auto reference = convex::water_fill(assignment, partition, m,
                                              window, work, cap, 7);

    IntervalStore store = make_store(bounds, {});
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (const model::Load& l : assignment.loads(k))
        store.set_load(store.handle_at(k), l.job, l.amount);
    CurveCache cache;
    const auto curves = cache.curves_for(store, m, window, 7);
    const auto fast = convex::water_fill_over_curves(curves, work, cap);

    ASSERT_EQ(reference.has_value(), fast.has_value()) << "trial " << trial;
    if (!reference.has_value()) continue;
    EXPECT_EQ(reference->speed, fast->speed) << "trial " << trial;
    ASSERT_EQ(reference->amounts.size(), fast->amounts.size());
    for (std::size_t i = 0; i < reference->amounts.size(); ++i)
      EXPECT_EQ(reference->amounts[i], fast->amounts[i])
          << "trial " << trial << " interval " << i;
  }
}

}  // namespace
}  // namespace pss

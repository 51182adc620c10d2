// Property and torture tests for the lazy water-level machinery (PR 6).
//
// Three layers, from arithmetic to full-engine state:
//   * closed-form replay: util::pairwise_sum_uniform and
//     convex::water_fill_uniform must be bitwise equal to the general-case
//     code paths they shortcut (pairwise_sum over n equal terms; the exact
//     water_fill over a virgin uniform window).
//   * contract canary: reading curves over a range with a pending
//     annotation and no materialization must trip the CurveCache's hard
//     check — the missed-invalidation canary pattern of test_window.cpp,
//     transplanted to missed *materialization*.
//   * mutation torture: the scheduler and the test-only reference oracle
//     (which has no lazy path) driven through a random interleaving of
//     accepts, wide overlapping arrivals, rejections, off-grid splits,
//     advance_to and snapshots, asserting bitwise-identical decisions on
//     every arrival and bitwise-identical partition, materialized loads and
//     planned energy at every comparison point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/pd_scheduler.hpp"
#include "model/interval_store.hpp"
#include "model/job.hpp"
#include "support/reference_pd.hpp"
#include "util/math.hpp"
#include "util/pairwise_sum.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using core::CurveCache;
using core::PdScheduler;
using model::IntervalStore;
using model::Machine;

// ---------------------------------------------------------- closed forms

TEST(LazyLevels, PairwiseUniformMatchesGeneral) {
  util::Rng rng(42);
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 100,
                      255, 256, 257, 1000, 4096, 12345}) {
    const double v = rng.uniform(0.1, 3.0);
    const std::vector<double> xs(std::size_t(n), v);
    ASSERT_EQ(util::pairwise_sum(xs), util::pairwise_sum_uniform(v, xs.size()))
        << "n=" << n << " v=" << v;
  }
  for (int trial = 0; trial < 64; ++trial) {
    const double v = rng.uniform(1e-3, 1e3);
    const std::size_t n = 1 + std::size_t(rng.uniform(0.0, 3000.0));
    const std::vector<double> xs(n, v);
    ASSERT_EQ(util::pairwise_sum(xs), util::pairwise_sum_uniform(v, n))
        << "n=" << n << " v=" << v;
  }
}

// The uniform closed form must replay the exact water filling bitwise on a
// virgin uniform window: same accept bit, level, per-interval amounts and
// residue-absorbing first amount.
TEST(LazyLevels, UniformClosedFormMatchesExactFill) {
  util::Rng rng(7);
  for (const int m : {1, 4, 16}) {
    for (const std::size_t count : {std::size_t(1), std::size_t(2),
                                    std::size_t(3), std::size_t(8),
                                    std::size_t(64), std::size_t(257)}) {
      for (const double unit : {0.5, 1.0, 0.25}) {
        for (int trial = 0; trial < 6; ++trial) {
          const double max_speed =
              trial % 3 == 0 ? util::kInf : rng.uniform(0.2, 3.0);
          const double work = rng.uniform(0.05, 4.0) * double(count) *
                              (trial % 2 == 0 ? 1.0 : 0.05);
          IntervalStore store;
          for (std::size_t i = 0; i <= count; ++i)
            store.ensure_boundary(unit * double(i));
          const auto window = store.range(0.0, unit * double(count));
          ASSERT_EQ(window.size(), count);
          const auto exact = convex::water_fill(
              store.snapshot_assignment(), store.snapshot_partition(), m,
              window, work, max_speed, /*job=*/0);
          const convex::UniformFill fill =
              convex::water_fill_uniform(unit, count, m, work, max_speed);
          ASSERT_EQ(exact.has_value(), fill.accepted)
              << "m=" << m << " count=" << count << " unit=" << unit
              << " work=" << work << " smax=" << max_speed;
          if (!exact.has_value()) continue;
          ASSERT_EQ(exact->speed, fill.level);
          ASSERT_EQ(exact->amounts.size(), count);
          ASSERT_EQ(exact->amounts[0], fill.first_amount);
          for (std::size_t i = 1; i < count; ++i)
            ASSERT_EQ(exact->amounts[i], fill.amount) << "interval " << i;
          // The capacity closed form used by the screening/fractional path.
          if (std::isfinite(max_speed)) {
            std::vector<double> caps;
            for (std::size_t i = 0; i < count; ++i)
              caps.push_back(std::max(
                  0.0, std::min((double(m) - 0.0) * unit * max_speed - 0.0,
                                max_speed * unit)));
            ASSERT_EQ(util::pairwise_sum(caps),
                      convex::window_capacity_uniform(unit, count, m,
                                                      max_speed));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------- contract canary

// Missed-materialization canary through the CurveCache contract: curves
// served over a range that still holds a pending annotation would describe
// loads that are not there — curves_for must refuse loudly rather than
// silently return virgin curves.
TEST(LazyLevels, CurvesOverPendingAnnotationThrow) {
  IntervalStore store;
  CurveCache cache;
  for (const double t : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    cache.before_boundary(store, t);
    store.ensure_boundary(t);
    cache.after_boundary(store, t);
  }
  double unit = 0.0;
  ASSERT_TRUE(cache.lazy_virgin_uniform(store, 1.0, 3.0, 2, &unit));
  ASSERT_EQ(unit, 1.0);
  cache.lazy_commit(1.0, 3.0, /*job=*/7, 0.5, 0.5);
  ASSERT_EQ(cache.lazy_pending_count(), 1u);
  // Overlapping query without materialization: hard failure.
  EXPECT_THROW((void)cache.curves_for(store, 1, store.range(1.0, 3.0)),
               std::logic_error);
  EXPECT_THROW((void)cache.curves_for(store, 1, store.range(2.0, 4.0)),
               std::logic_error);
  // A disjoint query is fine while the annotation is pending.
  EXPECT_NO_THROW((void)cache.curves_for(store, 1, store.range(3.0, 4.0)));
  // After materialization the same query succeeds and the loads landed.
  cache.lazy_materialize_range(store, 1.0, 3.0);
  EXPECT_EQ(cache.lazy_pending_count(), 0u);
  EXPECT_NO_THROW((void)cache.curves_for(store, 1, store.range(1.0, 3.0)));
  const auto window = store.range(1.0, 3.0);
  EXPECT_EQ(store.load_of(store.handle_at(window.first), 7), 0.5);
  EXPECT_EQ(
      store.load_of(store.next_handle(store.handle_at(window.first)), 7),
      0.5);
}

// ------------------------------------------------------ mutation torture

void expect_assignment_equal(const model::WorkAssignment& a,
                             const model::WorkAssignment& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_intervals(), b.num_intervals()) << what;
  for (std::size_t k = 0; k < a.num_intervals(); ++k) {
    const auto& la = a.loads(k);
    const auto& lb = b.loads(k);
    ASSERT_EQ(la.size(), lb.size()) << what << " interval " << k;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ASSERT_EQ(la[i].job, lb[i].job) << what << " interval " << k;
      ASSERT_EQ(la[i].amount, lb[i].amount)
          << what << " interval " << k << " job " << la[i].job;
    }
  }
}

// Drives the scheduler and the oracle through `steps` random mutations;
// compares decisions on every arrival and full materialized state every
// `compare_every` steps. compare_every == 1 stresses the
// snapshot-triggered flush after every single mutation; a sparser cadence
// lets annotations pile up so splits and exact fallbacks hit them pending.
void run_torture(std::uint64_t seed, double alpha, int m, int steps,
                 int compare_every) {
  const Machine machine{m, alpha};
  PdScheduler engine(machine);
  reference::ReferencePd oracle(machine);
  util::Rng rng(seed);
  double clock = 0.0;
  int id = 0;
  const auto arrive = [&](double release, double span, double value_mult) {
    model::Job job;
    job.id = id++;
    job.release = release;
    job.deadline = release + span;
    job.work = rng.uniform(0.3, 1.5);
    job.value = workload::energy_fair_value(job, alpha) * value_mult;
    const auto a = engine.on_arrival(job);
    const auto b = oracle.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
    ASSERT_EQ(a.planned_energy, b.planned_energy) << job.to_string();
  };
  // Deterministic warm-up: a few frontier tick accepts so the closed-form
  // fast path provably fires before the random grid refinements begin.
  for (int t = 0; t < 6; ++t) {
    arrive(clock, 1.0, 5.0);
    if (::testing::Test::HasFatalFailure()) return;
    clock += 1.0;
  }
  EXPECT_GT(engine.counters().lazy_commits, 0);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int op = int(rng.uniform(0.0, 100.0));
    if (op < 40) {
      arrive(clock, 1.0, rng.uniform(3.0, 8.0));  // frontier tick accept
    } else if (op < 55) {
      arrive(clock, 1.0 + double(int(rng.uniform(1.0, 8.0))),
             rng.uniform(1.0, 6.0));  // wide: overlaps pending annotations
    } else if (op < 65) {
      arrive(clock + 0.5, 2.0, rng.uniform(0.5, 3.0));  // off-grid split
      clock += 1.0;  // keep releases nondecreasing past the half-tick
    } else if (op < 73) {
      arrive(clock, 2.0, 0.01);  // rejection
    } else if (op < 85) {
      clock += 1.0;  // idle tick: the clock moves, no boundary appears
      engine.advance_to(clock);  // the oracle has no clock to advance
    } else {
      clock += double(int(rng.uniform(0.0, 2.0)));  // jump the frontier
    }
    if (::testing::Test::HasFatalFailure()) return;
    if (step % compare_every == compare_every - 1) {
      const std::string what = "step " + std::to_string(step);
      ASSERT_EQ(engine.partition().boundaries(),
                oracle.partition().boundaries())
          << what;
      expect_assignment_equal(engine.assignment(), oracle.assignment(), what);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(engine.planned_energy(), oracle.planned_energy()) << what;
    }
    if (op % 3 == 0) clock += 1.0;
  }
  ASSERT_EQ(engine.partition().boundaries(), oracle.partition().boundaries());
  expect_assignment_equal(engine.assignment(), oracle.assignment(), "final");
  ASSERT_EQ(engine.planned_energy(), oracle.planned_energy());
  EXPECT_GT(engine.counters().lazy_fast_path, 0);
  EXPECT_GT(engine.counters().lazy_materializations, 0);
}

TEST(LazyLevels, TortureCompareEveryStep) {
  run_torture(/*seed=*/101, /*alpha=*/2.0, /*m=*/1, /*steps=*/160,
              /*compare_every=*/1);
  run_torture(/*seed=*/102, /*alpha=*/1.3, /*m=*/4, /*steps=*/120,
              /*compare_every=*/1);
}

TEST(LazyLevels, TorturePendingPileUp) {
  // Sparse comparisons: annotations accumulate and are hit pending by
  // splits, wide overlaps and the periodic snapshot flushes.
  run_torture(/*seed=*/201, /*alpha=*/2.0, /*m=*/1, /*steps=*/240,
              /*compare_every=*/13);
  run_torture(/*seed=*/202, /*alpha=*/3.0, /*m=*/4, /*steps=*/240,
              /*compare_every=*/29);
  run_torture(/*seed=*/203, /*alpha=*/1.1, /*m=*/16, /*steps=*/160,
              /*compare_every=*/17);
}

// Multi-interval closed-form accepts: hopeless planters lay a virgin unit
// grid ahead of the frontier, then accepters whose windows span several of
// those intervals are decided by the closed form and committed as one
// annotation each — the residue-absorbing first share included. The
// materialized loads must be bitwise the oracle's eager water fill.
TEST(LazyLevels, MultiIntervalAcceptsMatchOracleLoads) {
  for (const int m : {1, 3, 8}) {
    SCOPED_TRACE("m=" + std::to_string(m));
    const Machine machine{m, 2.5};
    PdScheduler engine(machine);
    reference::ReferencePd oracle(machine);
    util::Rng rng(900 + std::uint64_t(m));
    int id = 0;
    const auto arrive = [&](double release, double deadline, double work,
                            double value_mult) {
      model::Job job;
      job.id = id++;
      job.release = release;
      job.deadline = deadline;
      job.work = work;
      job.value = workload::energy_fair_value(job, machine.alpha) * value_mult;
      const auto a = engine.on_arrival(job);
      const auto b = oracle.on_arrival(job);
      ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
      ASSERT_EQ(a.speed, b.speed) << job.to_string();
      ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
      ASSERT_EQ(a.planned_energy, b.planned_energy) << job.to_string();
    };
    constexpr int kSpan = 13;  // widest accept window, in ticks
    for (int t = 0; t < 120; ++t) {
      arrive(double(t), double(t + kSpan + 2), 1.0, 1e-3);  // planter
      if (::testing::Test::HasFatalFailure()) return;
      if (t % kSpan == 0) {
        const int width = 2 + int(rng.uniform_int(0, kSpan - 2));
        arrive(double(t), double(t + width),
               rng.uniform(0.3, 3.0) * double(width), 8.0);  // accepter
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GT(engine.counters().lazy_commits, 5);
    ASSERT_EQ(engine.partition().boundaries(),
              oracle.partition().boundaries());
    expect_assignment_equal(engine.assignment(), oracle.assignment(),
                            "materialized");
    ASSERT_EQ(engine.planned_energy(), oracle.planned_energy());
  }
}

// ------------------------------------------------ session recycling

// reset() must drop pending annotations (not replay them into the next
// stream). A recycled scheduler re-run on
// a fresh stream must be indistinguishable from a newly constructed one —
// the SessionTable pooling contract of the stream engine.
TEST(LazyLevels, RecycledSchedulerMatchesFresh) {
  const Machine machine{2, 2.0};
  const auto stream = [](std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<model::Job> jobs;
    for (int t = 0; t < 40; ++t) {
      model::Job job;
      job.id = t;
      job.release = double(t);
      job.deadline = double(t) + (t % 5 == 3 ? 6.0 : 1.0);
      job.work = rng.uniform(0.4, 1.4);
      job.value = workload::energy_fair_value(job, 2.0) * rng.uniform(2.0, 6.0);
      jobs.push_back(job);
    }
    return jobs;
  };
  PdScheduler recycled(machine, {});
  // Stream A leaves pending annotations behind on purpose: no snapshot or
  // energy accessor runs before reset, so nothing forces a flush.
  for (const model::Job& job : stream(11)) (void)recycled.on_arrival(job);
  EXPECT_GT(recycled.counters().lazy_commits, 0);
  recycled.reset();

  PdScheduler fresh(machine, {});
  for (const model::Job& job : stream(22)) {
    const auto a = recycled.on_arrival(job);
    const auto b = fresh.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
    ASSERT_EQ(a.planned_energy, b.planned_energy) << job.to_string();
  }
  ASSERT_EQ(recycled.partition().boundaries(), fresh.partition().boundaries());
  expect_assignment_equal(recycled.assignment(), fresh.assignment(),
                          "recycled");
  ASSERT_EQ(recycled.planned_energy(), fresh.planned_energy());
  ASSERT_EQ(recycled.counters().lazy_fast_path,
            fresh.counters().lazy_fast_path);
  EXPECT_GT(recycled.counters().lazy_fast_path, 0);
}

}  // namespace
}  // namespace pss

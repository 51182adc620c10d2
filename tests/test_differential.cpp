// Differential harness: the production PD engine against the test-only
// reference oracle.
//
// core::PdScheduler runs one engine — interval-store state, curve-cache
// water fill — with one always-on certified fast path, the segment-tree
// screen. It must be *decision-identical* to reference::ReferencePd,
// the stateless contiguous oracle (tests/support/reference_pd): same
// accept/reject bits, and bitwise-equal lambdas, speeds, planned energies,
// and final-schedule cost, on every instance we can generate. The engine
// mirrors the oracle's arithmetic operation for operation (see
// util::LazyLinearSum and model::IntervalStore), so the comparisons here
// are exact, not NEAR — any reordering of floating-point work in a future
// change will show up as a hard failure, which is the point. Fractional PD
// (which does not screen) is held to its oracle the same way. The families
// that exist to exercise the screen also assert that it fired, so a screen
// that silently stopped engaging cannot pass as "identical".
//
// Coverage: ~1k seeded instances across uniform, bursty (Poisson heavy
// tail), tight-laxity, and the adversarial Theorem-3 stream, for
// alpha in {1.1, 2, 3} x m in {1, 4, 16}; plus split-heavy long-horizon
// families (bisection deadlines and heavy-tailed lookahead anchors) that
// stress the Section-3 refinement machinery, a wide-window family where
// the screen fires, and an accept-heavy long-horizon family where pruned
// rejections are rare. Random mutation tortures (OracleTorture) interleave
// tick accepts, wide overlaps, off-grid splits, rejections, advance_to and
// session recycling, comparing the materialized state at every snapshot;
// one more pins fractional PD's underflowed-price edge case. A
// canary feeds the harness a one-ulp-wrong oracle to prove the harness
// compares something.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/fractional_pd.hpp"
#include "core/pd_scheduler.hpp"
#include "core/rejection.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "support/reference_pd.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using core::PdScheduler;
using model::Machine;

struct DiffParam {
  double alpha;
  int m;
};

class PdDifferential : public ::testing::TestWithParam<DiffParam> {};

bool same_decision(const core::ArrivalDecision& a,
                   const core::ArrivalDecision& b) {
  return a.accepted == b.accepted && a.speed == b.speed &&
         a.lambda == b.lambda && a.planned_energy == b.planned_energy;
}

// Feeds the oracle and the engine in lockstep and returns the engine's
// counters, so callers can assert whether the screen engaged. The
// first divergence is reported as exactly one non-fatal failure and ends
// the comparison (so the canary below can intercept it).
core::PdCounters expect_engine_identical(const model::Instance& instance,
                                         reference::ReferencePd oracle) {
  PdScheduler engine(instance.machine());
  for (const model::Job& job : instance.jobs_by_release()) {
    const auto a = oracle.on_arrival(job);
    const auto b = engine.on_arrival(job);
    if (!same_decision(a, b)) {
      ADD_FAILURE() << "engine diverged from the oracle on "
                    << job.to_string() << ": accepted " << a.accepted << "/"
                    << b.accepted << " speed " << a.speed << "/" << b.speed
                    << " lambda " << a.lambda << "/" << b.lambda
                    << " energy " << a.planned_energy << "/"
                    << b.planned_energy;
      return engine.counters();
    }
  }
  if (oracle.planned_energy() != engine.planned_energy() ||
      oracle.final_schedule().cost(instance).total() !=
          engine.final_schedule().cost(instance).total() ||
      oracle.state().interval_splits != engine.counters().interval_splits) {
    ADD_FAILURE() << "engine diverged from the oracle at the end of the run";
    return engine.counters();
  }
  // The engine must actually have gone through the curve cache.
  EXPECT_GT(engine.counters().curve_cache_hits +
                engine.counters().curve_cache_rebuilds,
            0);
  return engine.counters();
}

core::PdCounters expect_engine_identical(const model::Instance& instance) {
  return expect_engine_identical(instance,
                                 reference::ReferencePd(instance.machine()));
}

// Fractional PD against its oracle.
void expect_fractional_identical(const model::Instance& instance) {
  const auto oracle = reference::run_fractional_pd(instance);
  const auto engine = core::run_fractional_pd(instance);
  EXPECT_EQ(oracle.fraction, engine.fraction);
  EXPECT_EQ(oracle.lambda, engine.lambda);
  EXPECT_EQ(oracle.energy, engine.energy);
  EXPECT_EQ(oracle.lost_value, engine.lost_value);
  EXPECT_EQ(oracle.dual_lower_bound, engine.dual_lower_bound);
  EXPECT_EQ(oracle.partition.boundaries(), engine.partition.boundaries());
}

constexpr int kSeedsPerFamily = 25;

TEST_P(PdDifferential, UniformInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("uniform seed " + std::to_string(seed));
    workload::UniformConfig config;
    config.num_jobs = 30 + 7 * (seed % 5);
    config.value_scale = 0.8 + 0.4 * (seed % 4);  // contested accept/reject
    config.must_finish = seed % 6 == 0;
    const auto inst = workload::uniform_random(
        config, Machine{param.m, param.alpha}, 5000 + std::uint64_t(seed));
    expect_engine_identical(inst);
  }
}

TEST_P(PdDifferential, BurstyHeavyTailInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("bursty seed " + std::to_string(seed));
    workload::PoissonConfig config;
    config.num_jobs = 30 + 5 * (seed % 6);
    config.arrival_rate = 0.5 + double(seed % 3);  // bursts of simultaneity
    config.value_scale = 1.0 + 0.5 * (seed % 3);
    const auto inst = workload::poisson_heavy_tail(
        config, Machine{param.m, param.alpha}, 6000 + std::uint64_t(seed));
    expect_engine_identical(inst);
  }
}

TEST_P(PdDifferential, TightLaxityInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("tight seed " + std::to_string(seed));
    workload::TightConfig config;
    config.num_jobs = 25 + 5 * (seed % 4);
    config.speed_target = 1.0 + 0.5 * (seed % 5);
    const auto inst = workload::tight_laxity(
        config, Machine{param.m, param.alpha}, 7000 + std::uint64_t(seed));
    expect_engine_identical(inst);
  }
}

TEST_P(PdDifferential, AdversarialTheorem3Instances) {
  const DiffParam param = GetParam();
  for (int n = 4; n <= 40; n += 6) {
    for (const double multiplier : {-1.0, 2.0, 100.0}) {
      SCOPED_TRACE("adversarial n=" + std::to_string(n) +
                   " mult=" + std::to_string(multiplier));
      const auto inst = workload::adversarial_theorem3(
          n, Machine{param.m, param.alpha}, multiplier);
      expect_engine_identical(inst);
    }
  }
}

// Split-heavy long-horizon family: every arrival's deadline bisects the
// existing partition (bit-reversed over a wide horizon), so the stream is
// nearly all Section-3 splits — the regime the interval store exists for.
model::Instance bisection_instance(int num_jobs, Machine machine,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  const double horizon = 1 << 14;
  // Anchor pinning [0, horizon).
  jobs.push_back({0, 0.0, horizon, 2.0, 20.0});
  int bits = 1;
  while ((1 << bits) < num_jobs + 2) ++bits;
  for (int i = 1; i < num_jobs; ++i) {
    std::uint32_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((std::uint32_t(i) >> b) & 1u)
                                        << (bits - 1 - b);
    const double deadline = horizon * double(r) / double(1u << bits);
    model::Job job;
    job.id = i;
    job.release = 0.0;
    job.deadline = std::max(deadline, 1.0);
    job.work = rng.uniform(0.5, 2.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, SplitHeavyBisectionInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("bisection seed " + std::to_string(seed));
    const auto inst = bisection_instance(120, Machine{param.m, param.alpha},
                                         8000 + std::uint64_t(seed));
    expect_engine_identical(inst);
  }
}

// Heavy-tailed lookahead: releases sweep forward while occasional far
// deadlines plant boundaries deep into the future, so later short-window
// arrivals keep splitting behind already-planted boundaries.
model::Instance lookahead_instance(int num_jobs, Machine machine,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  for (int i = 0; i < num_jobs; ++i) {
    model::Job job;
    job.id = i;
    job.release = double(i) * 0.5;
    const bool anchor = i % 17 == 0;
    const double span =
        anchor ? rng.uniform(50.0, 400.0) : rng.uniform(0.7, 6.0);
    job.deadline = job.release + span;
    job.work = rng.uniform(0.3, 2.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, SplitHeavyLookaheadInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("lookahead seed " + std::to_string(seed));
    const auto inst = lookahead_instance(150, Machine{param.m, param.alpha},
                                         8100 + std::uint64_t(seed));
    expect_engine_identical(inst);
  }
}

// Wide-window family: a loaded backdrop whose lookahead plants load far
// ahead of the release frontier, punctuated by arrivals whose windows
// span up to the whole horizon at values from hopeless to irresistible —
// the regime the screen exists for. The engine must stay bitwise identical
// while the screen demonstrably fires.
model::Instance wide_window_instance(int num_jobs, Machine machine,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  jobs.push_back({0, 0.0, 400.0, 2.0, 50.0});  // umbrella anchor
  for (int i = 1; i < num_jobs; ++i) {
    model::Job job;
    job.id = i;
    job.release = double(i) * 0.25;
    const bool wide = i % 5 == 0;
    job.deadline =
        job.release + (wide ? rng.uniform(100.0, 360.0) : rng.uniform(2.0, 30.0));
    job.work = rng.uniform(0.3, 2.0) * (wide ? 20.0 : 1.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                std::pow(10.0, rng.uniform(-2.5, 2.5));
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, WideWindowInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("wide-window seed " + std::to_string(seed));
    const auto inst = wide_window_instance(150, Machine{param.m, param.alpha},
                                           8200 + std::uint64_t(seed));
    const core::PdCounters counters = expect_engine_identical(inst);
    if (::testing::Test::HasFailure()) return;
    // The screen must have certified rejections on this family — not
    // merely run (window_exact counts fallbacks, so prunes is the signal).
    EXPECT_GT(counters.window_prunes, 0);
    expect_fractional_identical(inst);
  }
}

// Accept-heavy long-horizon family. A stream of tick jobs marches along an
// integer grid, each with a one-interval empty window at the release
// frontier and a value chosen to be accepted. Periodic wide jobs overlap
// many committed tick loads, rare low-value losers are the only
// rejections, and in the second half occasional half-tick releases split
// intervals that already carry committed loads.
model::Instance accept_heavy_instance(int num_ticks, Machine machine,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  int id = 0;
  for (int t = 0; t < num_ticks; ++t) {
    model::Job tick;
    tick.id = id++;
    tick.release = double(t);
    tick.deadline = double(t) + 1.0;
    tick.work = rng.uniform(0.4, 1.6);
    tick.value = workload::energy_fair_value(tick, machine.alpha) *
                 rng.uniform(4.0, 8.0);  // comfortably accepted
    jobs.push_back(tick);
    if (t % 8 == 5) {
      model::Job wide;  // overlaps the committed tick loads ahead
      wide.id = id++;
      wide.release = double(t);
      wide.deadline = double(t) + 9.0;
      wide.work = rng.uniform(3.0, 8.0);
      wide.value = workload::energy_fair_value(wide, machine.alpha) *
                   rng.uniform(2.0, 5.0);
      jobs.push_back(wide);
    }
    if (t % 16 == 11) {
      model::Job loser;  // the rare rejection
      loser.id = id++;
      loser.release = double(t);
      loser.deadline = double(t) + 2.0;
      loser.work = rng.uniform(0.5, 1.5);
      loser.value = workload::energy_fair_value(loser, machine.alpha) * 0.01;
      jobs.push_back(loser);
    }
    if (t >= num_ticks / 2 && t % 10 == 7) {
      model::Job half;  // off-tick boundary: splits committed loads
      half.id = id++;
      half.release = double(t) + 0.5;
      half.deadline = double(t) + 2.5;
      half.work = rng.uniform(0.3, 1.0);
      half.value = workload::energy_fair_value(half, machine.alpha) *
                   rng.uniform(1.0, 3.0);
      jobs.push_back(half);
    }
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, AcceptHeavyLongHorizonInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 2; ++seed) {
    SCOPED_TRACE("accept-heavy seed " + std::to_string(seed));
    const auto inst = accept_heavy_instance(96, Machine{param.m, param.alpha},
                                            8300 + std::uint64_t(seed));
    const core::PdCounters counters = expect_engine_identical(inst);
    if (::testing::Test::HasFailure()) return;
    // The family must really be accept-heavy and really split loaded
    // intervals, not merely match the oracle.
    EXPECT_LT(counters.rejected, counters.accepted / 4);
    EXPECT_GT(counters.interval_splits, 0);
    expect_fractional_identical(inst);
  }
}

// Mixed-value family for fractional PD: an unbounded-value umbrella, then
// short and wide windows whose values span six decades around the
// energy-fair value — hopeless (fully unserved), contested (partially
// served) and certain (fully served) arrivals in one stream.
model::Instance mixed_value_instance(int num_jobs, Machine machine,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  jobs.push_back(
      {0, 0.0, 64.0, 2.0, std::numeric_limits<double>::infinity()});
  double t = 0.0;
  for (int i = 1; i <= num_jobs; ++i) {
    t += rng.uniform(0.2, 1.5);
    const double span = rng.bernoulli(0.3) ? rng.uniform(20.0, 60.0)
                                           : rng.uniform(0.5, 4.0);
    model::Job job{i, t, t + span, rng.uniform(0.3, 3.0), 0.0};
    job.value = workload::energy_fair_value(job, machine.alpha) *
                std::pow(10.0, rng.uniform(-3.0, 3.0));
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, FractionalBackendsIdentical) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 5; ++seed) {
    SCOPED_TRACE("fractional seed " + std::to_string(seed));
    workload::UniformConfig config;
    config.num_jobs = 40;
    config.value_scale = 0.8 + 0.4 * (seed % 4);
    const auto inst = workload::uniform_random(
        config, Machine{param.m, param.alpha}, 9000 + std::uint64_t(seed));
    expect_fractional_identical(inst);
  }
  expect_fractional_identical(
      bisection_instance(100, Machine{param.m, param.alpha}, 9100));
  expect_fractional_identical(
      lookahead_instance(120, Machine{param.m, param.alpha}, 9200));
  expect_fractional_identical(
      mixed_value_instance(30, Machine{param.m, param.alpha}, 9300));
}

// Non-vacuity canary: an oracle whose delta is one ulp off the engine's
// must be reported. A harness that silently compared nothing (or compared
// the engine with itself) would pass every family above; this one fails
// unless the comparison really reaches the decision arithmetic.
TEST(OracleCanary, OneUlpDeltaNudgeIsReported) {
  const Machine machine{4, 2.0};
  workload::UniformConfig config;
  config.num_jobs = 30;
  const auto inst = workload::uniform_random(config, machine, 4242);
  const double nudged = std::nextafter(core::optimal_delta(machine.alpha),
                                       std::numeric_limits<double>::max());
  EXPECT_NONFATAL_FAILURE(
      expect_engine_identical(inst, reference::ReferencePd(machine, nudged)),
      "diverged from the oracle");
  // The un-nudged oracle on the same instance is clean.
  expect_engine_identical(inst);
}

// ------------------------------------------------------ mutation tortures

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

// Drives the scheduler and the oracle through `steps` random mutations —
// frontier tick accepts, wide arrivals overlapping committed loads,
// off-grid splits, rejections, idle advance_to ticks and frontier jumps —
// comparing decisions on every arrival and the full partition, loads and
// planned energy every `compare_every` steps (1: after every mutation).
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
  // Deterministic warm-up: a few frontier tick accepts, so the random
  // refinements below start from intervals that already carry loads.
  for (int t = 0; t < 6; ++t) {
    arrive(clock, 1.0, 5.0);
    if (::testing::Test::HasFatalFailure()) return;
    clock += 1.0;
  }
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const int op = int(rng.uniform(0.0, 100.0));
    if (op < 40) {
      arrive(clock, 1.0, rng.uniform(3.0, 8.0));  // frontier tick accept
    } else if (op < 55) {
      arrive(clock, 1.0 + double(int(rng.uniform(1.0, 8.0))),
             rng.uniform(1.0, 6.0));  // wide: overlaps committed loads
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
}

TEST(OracleTorture, CompareEveryStep) {
  run_torture(/*seed=*/101, /*alpha=*/2.0, /*m=*/1, /*steps=*/160,
              /*compare_every=*/1);
  run_torture(/*seed=*/102, /*alpha=*/1.3, /*m=*/4, /*steps=*/120,
              /*compare_every=*/1);
}

TEST(OracleTorture, SparseComparisons) {
  // Sparse comparisons: long runs of splits, wide overlaps and idle ticks
  // between two snapshots.
  run_torture(/*seed=*/201, /*alpha=*/2.0, /*m=*/1, /*steps=*/240,
              /*compare_every=*/13);
  run_torture(/*seed=*/202, /*alpha=*/3.0, /*m=*/4, /*steps=*/240,
              /*compare_every=*/29);
  run_torture(/*seed=*/203, /*alpha=*/1.1, /*m=*/16, /*steps=*/160,
              /*compare_every=*/17);
}

// Multi-interval accepts on an empty unit grid: hopeless planters lay a
// grid ahead of the frontier, then accepters whose windows span several of
// those empty intervals place one share in each — the residue-absorbing
// first share included. The committed loads must be bitwise the oracle's.
TEST(OracleTorture, MultiIntervalAcceptsMatchOracleLoads) {
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
    ASSERT_EQ(engine.partition().boundaries(),
              oracle.partition().boundaries());
    expect_assignment_equal(engine.assignment(), oracle.assignment(),
                            "committed");
    ASSERT_EQ(engine.planned_energy(), oracle.planned_energy());
  }
}

// reset() must drop all committed state (not replay it into the next
// stream). A recycled scheduler re-run on a fresh stream must be
// indistinguishable from a newly constructed one — the SessionTable
// pooling contract of the stream engine.
TEST(OracleTorture, RecycledSchedulerMatchesFresh) {
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
  for (const model::Job& job : stream(11)) (void)recycled.on_arrival(job);
  EXPECT_GT(recycled.counters().accepted, 0);
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
}

// A rejection speed can be *finite yet exactly zero*: instances require
// value > 0, but s_cap = (v/(delta*alpha*w))^(1/(alpha-1)) underflows to
// 0.0 for a legal tiny value once the exponent is large (alpha near 1).
// Fractional PD must take that price to the exact capacity scan and
// reproduce the oracle's graceful fully-unserved branch, not throw.
TEST(OracleTorture, FractionalUnderflowedRejectionSpeed) {
  const Machine machine{2, 1.1};  // exponent 1/(alpha-1) = 10
  std::vector<model::Job> jobs = {
      {0, 0.0, 8.0, 2.0, std::numeric_limits<double>::infinity()},
      {1, 1.0, 6.0, 1.0, 1e-300},  // s_cap = (~1e-300)^10 -> 0.0
  };
  const auto instance = model::make_instance(machine, std::move(jobs));
  ASSERT_EQ(core::rejection_speed(1e-300, 1.0, machine.alpha,
                                  core::optimal_delta(machine.alpha)),
            0.0);
  const auto oracle = reference::run_fractional_pd(instance);
  const auto engine = core::run_fractional_pd(instance);
  ASSERT_EQ(oracle.fraction, engine.fraction);
  ASSERT_EQ(oracle.lambda, engine.lambda);
  EXPECT_EQ(engine.fraction[1], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaTimesProcessors, PdDifferential,
    ::testing::Values(DiffParam{1.1, 1}, DiffParam{1.1, 4}, DiffParam{1.1, 16},
                      DiffParam{2.0, 1}, DiffParam{2.0, 4}, DiffParam{2.0, 16},
                      DiffParam{3.0, 1}, DiffParam{3.0, 4},
                      DiffParam{3.0, 16}),
    [](const auto& info) {
      return "alpha" + std::to_string(int(info.param.alpha * 10)) + "_m" +
             std::to_string(info.param.m);
    });

}  // namespace
}  // namespace pss

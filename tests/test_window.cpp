// Coverage for PdScheduler's screened placement path:
// convex::CurveSegmentTree unit and property tests (the certified upper
// capacity bound vs brute force, under the full refinement mix of splits /
// appends / prepends and load-epoch invalidation — mirroring the torture
// style of test_incremental.cpp), the screen through core::CurveCache, and
// end-to-end bitwise identity of PdScheduler with the test-only reference
// oracle (which never screens) with window widths spanning 1 interval to
// the full horizon. Fractional PD does not screen; its oracle
// differentials live in test_differential.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "convex/curve_segment_tree.hpp"
#include "core/curve_cache.hpp"
#include "core/pd_scheduler.hpp"
#include "model/instance.hpp"
#include "model/interval_store.hpp"
#include "support/reference_pd.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using convex::CurveSegmentTree;
using core::CurveCache;
using core::PdScheduler;
using model::IntervalStore;
using model::Job;
using model::Machine;

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

// Brute-force capacity: sum of freshly built all-loads insertion-curve
// values over the window, in window order — the quantity the tree bounds
// from above.
double brute_capacity(const IntervalStore& store, int m,
                      model::IntervalRange window, double speed) {
  double total = 0.0;
  IntervalStore::Handle h = store.handle_at(window.first);
  for (std::size_t i = 0; i < window.size(); ++i) {
    total += chen::insertion_curve(store.loads(h), -1, m, store.length_of(h))
                 .eval(speed);
    h = store.next_handle(h);
  }
  return total;
}

// ------------------------------------------- tree bounds vs brute force

// Randomized mutation torture: interleaves every refinement kind the store
// supports (interior splits into loaded intervals, appends, prepends) with
// load updates and window queries, and checks that the upper bound
// dominates the exact capacity at every step. Curves are built fresh per leaf through the
// callback, so this exercises the tree in isolation from CurveCache.
TEST(CurveSegmentTree, BoundsContainExactCapacityUnderMutationTorture) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    const int m = int(rng.uniform_int(1, 5));
    IntervalStore store;
    CurveSegmentTree tree;
    std::vector<util::PiecewiseLinear> leaf_scratch;
    const auto curve_of =
        [&](IntervalStore::Handle h) -> const util::PiecewiseLinear& {
      leaf_scratch.push_back(
          chen::insertion_curve(store.loads(h), -1, m, store.length_of(h)));
      return leaf_scratch.back();
    };
    double lo_edge = 10.0, hi_edge = 20.0;
    store.ensure_boundary(lo_edge);
    store.ensure_boundary(hi_edge);
    int next_job = 0;
    for (int step = 0; step < 120; ++step) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.35) {  // split somewhere inside
        store.ensure_boundary(rng.uniform(lo_edge, hi_edge));
      } else if (roll < 0.45) {  // append
        hi_edge += rng.uniform(0.1, 2.0);
        store.ensure_boundary(hi_edge);
      } else if (roll < 0.55) {  // prepend
        lo_edge -= rng.uniform(0.1, 2.0);
        store.ensure_boundary(lo_edge);
      } else {  // load change on a random interval
        const std::size_t pos =
            std::size_t(rng.uniform_int(0, std::int64_t(store.num_intervals()) - 1));
        const IntervalStore::Handle h = store.handle_at(pos);
        store.set_load(h, next_job++, rng.uniform(0.0, 3.0));
        tree.mark_dirty(h);
      }
      if (step % 3 != 0) continue;
      // Query a random nonempty window at a random speed.
      const std::size_t n = store.num_intervals();
      const std::size_t a = std::size_t(rng.uniform_int(0, std::int64_t(n) - 1));
      const std::size_t b =
          std::size_t(rng.uniform_int(std::int64_t(a) + 1, std::int64_t(n)));
      const double speed = std::pow(10.0, rng.uniform(-2.0, 1.0));
      leaf_scratch.clear();
      leaf_scratch.reserve(4096);
      const double hi =
          tree.window_capacity_bound(store, {a, b}, speed, curve_of);
      const double exact = brute_capacity(store, m, {a, b}, speed);
      ASSERT_GE(hi, exact)
          << "trial " << trial << " step " << step << " window [" << a << ","
          << b << ") speed " << speed;
    }
  }
}

// The bound must be tight enough to certify rejections with a clear
// margin, not just dominate the truth: on a uniformly loaded wide window
// its excess over the exact capacity stays a small fraction of it.
TEST(CurveSegmentTree, BoundsTightEnoughToCertify) {
  const int m = 4;
  IntervalStore store;
  CurveCache cache;
  store.ensure_boundary(0.0);
  store.ensure_boundary(4096.0);
  for (int t = 1; t < 4096; ++t) store.ensure_boundary(double(t));
  util::Rng rng(7);
  for (std::size_t pos = 0; pos < store.num_intervals(); ++pos) {
    const IntervalStore::Handle h = store.handle_at(pos);
    store.set_load(h, int(pos), rng.uniform(0.5, 1.5));
    cache.note_load_changed(h);
  }
  const model::IntervalRange window{0, store.num_intervals()};
  for (const double speed : {0.05, 0.3, 1.0, 4.0}) {
    const double hi = cache.window_capacity_bound(store, m, window, speed);
    const double exact = brute_capacity(store, m, window, speed);
    ASSERT_GE(hi, exact);
    if (exact > 0.0) {
      EXPECT_LT((hi - exact) / exact, 0.25)
          << "speed " << speed << ": bound too loose to ever certify";
    }
  }
  // A clean repeat query must recombine nothing.
  const long long pulls = cache.segment_tree().stats().node_pulls;
  (void)cache.window_capacity_bound(store, m, window, 1.0);
  EXPECT_EQ(cache.segment_tree().stats().node_pulls, pulls);
}

// Missed-invalidation canary through the CurveCache contract: a load
// change reported via note_load_changed must be visible in the very next
// bound query even when an unrelated refinement happens in between.
TEST(CurveSegmentTree, LoadChangeVisibleAfterInterleavedRefinement) {
  const int m = 1;
  IntervalStore store;
  CurveCache cache;
  store.ensure_boundary(0.0);
  store.ensure_boundary(8.0);
  store.ensure_boundary(4.0);
  const model::IntervalRange window{0, 2};
  const double before = cache.window_capacity_bound(store, m, window, 1.0);
  // Empty unit-speed intervals on one processor: z = length * speed each,
  // so the exact capacity is 8.
  EXPECT_GE(before, 8.0);

  // A load too large to share the processor at level s*l kills interval
  // 0's capacity entirely (d >= m).
  const IntervalStore::Handle h = store.handle_at(0);
  store.set_load(h, 1, 6.0);
  cache.note_load_changed(h);
  store.ensure_boundary(6.0);  // unrelated split in the other interval
  const double after = cache.window_capacity_bound(
      store, m, {0, store.num_intervals()}, 1.0);
  const double exact =
      brute_capacity(store, m, {0, store.num_intervals()}, 1.0);
  ASSERT_LT(exact, 8.0);  // the committed load really shrank capacity
  EXPECT_GE(after, exact);
  EXPECT_LT(after, 8.0 - 1e-9);
}

// ---------------------------------------- end-to-end bitwise identity

void expect_screened_identical(const std::vector<Job>& jobs, Machine machine,
                               long long* prunes = nullptr) {
  reference::ReferencePd oracle(machine);
  PdScheduler screened(machine);
  for (const Job& job : jobs) {
    const auto a = oracle.on_arrival(job);
    const auto b = screened.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
    ASSERT_EQ(a.planned_energy, b.planned_energy) << job.to_string();
  }
  ASSERT_EQ(oracle.planned_energy(), screened.planned_energy());
  if (prunes) *prunes = screened.counters().window_prunes;
}

// Window widths spanning 1 interval to the full horizon: a loaded backdrop
// of unit intervals, then probes whose windows double in width up to the
// whole horizon, some valuable (accepted), some hopeless (certifiably
// rejected). Decisions must be bitwise identical to the oracle and the
// screen must actually fire.
TEST(WindowedPd, WidthsFromOneToFullHorizonBitwiseIdentical) {
  util::Rng rng(2026);
  for (int trial = 0; trial < 6; ++trial) {
    const double alpha = 1.2 + 0.6 * (trial % 3);
    const int m = 1 + (trial % 4);
    const Machine machine{m, alpha};
    const int horizon = 256;
    const int lookahead = 64;
    std::vector<Job> jobs;
    int id = 0;
    // Umbrella pinning the region the probes will sweep, then a backdrop
    // of lookahead jobs whose committed loads extend past the release
    // frontier — so the probe windows below are genuinely loaded.
    jobs.push_back(make_job(id++, 0.0, double(horizon + lookahead), 1.0,
                            util::kInf));
    for (int t = 0; t < horizon; ++t) {
      Job job = make_job(id++, double(t), double(t + lookahead),
                         rng.uniform(0.3, 1.5), 0.0);
      job.value = workload::energy_fair_value(job, alpha) *
                  rng.uniform(0.5, 4.0);
      jobs.push_back(job);
    }
    // Probes from the horizon start, widths 1, 2, 4, ..., full horizon;
    // the first lookahead ticks of each window carry committed load.
    for (int width = 1; width <= horizon; width *= 2) {
      for (const double value_scale : {0.02, 1.0, 50.0}) {
        Job job = make_job(id++, double(horizon), double(horizon + width),
                           rng.uniform(0.5, 2.0) * double(width), 0.0);
        job.value =
            workload::energy_fair_value(job, alpha) * value_scale;
        jobs.push_back(job);
      }
    }
    long long prunes = 0;
    expect_screened_identical(jobs, machine, &prunes);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(prunes, 0) << "trial " << trial
                         << " never certified a rejection";
  }
}

// Epoch-invalidation torture through the scheduler, mirroring
// test_incremental's CacheInvalidation streams: interleaved splits,
// appends, and tolerance prepends with committed loads present, screened
// engine vs oracle in lockstep.
TEST(WindowedPd, RefinementTortureBitwiseIdentical) {
  util::Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const double alpha = rng.uniform(1.2, 3.0);
    const int m = int(rng.uniform_int(1, 5));
    std::vector<Job> jobs;
    jobs.push_back(make_job(0, 1.0, 65.0, rng.uniform(4.0, 10.0), util::kInf));
    // One tolerance prepend right after the umbrella.
    jobs.push_back(make_job(1, 1.0 - 0.5e-12, 1.5, 0.4, 3.0));
    double t = 1.0;
    for (int i = 2; i < 40; ++i) {
      t += rng.uniform(0.1, 2.0);
      const bool extend = rng.bernoulli(0.2);
      const double span =
          extend ? rng.uniform(70.0, 120.0) : rng.uniform(0.3, 9.0);
      jobs.push_back(make_job(i, t, t + span, rng.uniform(0.2, 3.0),
                              std::pow(10.0, rng.uniform(-2.0, 2.0))));
    }
    expect_screened_identical(jobs, Machine{m, alpha});
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A scheduler reused via reset() must not carry tree or accepted-id state
// into the next stream (the stream engine's session-recycling pattern).
TEST(WindowedPd, ResetClearsScreeningState) {
  const Machine machine{2, 2.0};
  PdScheduler scheduler(machine, {});
  std::vector<Job> jobs = {
      make_job(0, 0.0, 8.0, 2.0, util::kInf),
      make_job(1, 0.0, 8.0, 50.0, 1e-6),  // hopeless: certified reject
  };
  for (const Job& job : jobs) (void)scheduler.on_arrival(job);
  const auto first = scheduler.decisions();
  ASSERT_GT(scheduler.counters().window_prunes, 0);
  scheduler.reset();
  EXPECT_EQ(scheduler.counters().window_prunes, 0);
  for (const Job& job : jobs) (void)scheduler.on_arrival(job);
  ASSERT_EQ(first.size(), scheduler.decisions().size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].second.accepted, scheduler.decisions()[i].second.accepted);
    EXPECT_EQ(first[i].second.lambda, scheduler.decisions()[i].second.lambda);
  }
}

// A job id that was already accepted must skip the screen (its committed
// loads would void the all-loads bounds) and still decide identically.
TEST(WindowedPd, ReArrivingAcceptedIdSkipsScreen) {
  const Machine machine{2, 2.0};
  reference::ReferencePd oracle(machine);
  PdScheduler screened(machine);
  const std::vector<Job> jobs = {
      make_job(7, 0.0, 4.0, 2.0, util::kInf),
      make_job(7, 1.0, 3.0, 1.0, 0.001),  // same id re-arrives, hopeless value
      make_job(8, 1.0, 3.0, 40.0, 0.001),
  };
  for (const Job& job : jobs) {
    const auto a = oracle.on_arrival(job);
    const auto b = screened.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
  }
  ASSERT_EQ(oracle.planned_energy(), screened.planned_energy());
}

}  // namespace
}  // namespace pss

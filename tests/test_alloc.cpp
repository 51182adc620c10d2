// Heap allocations on the PD decision path, counted by replacing the global
// operator new in this test binary.
//
// A curve rebuild writes into the cached curve's own knot buffer through
// the cache's scratch, and the water fill writes into caller-owned
// buffers, so once those buffers have grown, neither allocates. What is
// left per arrival is the session's own growth: new intervals, their load
// lists and cache slots.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/pd_scheduler.hpp"
#include "model/interval_store.hpp"
#include "sim/stream_sweep.hpp"

namespace {
long long g_allocations = 0;  // operator new calls since process start
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pss {
namespace {

using model::IntervalStore;

// Three intervals with a few committed loads each.
IntervalStore make_loaded_store() {
  IntervalStore store;
  for (const double b : {0.0, 1.0, 2.5, 4.0}) store.ensure_boundary(b);
  for (std::size_t k = 0; k < 3; ++k)
    for (int j = 0; j < 3; ++j)
      store.set_load(store.handle_at(k), model::JobId(10 + j),
                     0.5 + double(k) + 0.7 * double(j));
  return store;
}

TEST(Allocations, CurveRebuildWithoutNewLoadAllocatesNothing) {
  IntervalStore store = make_loaded_store();
  const model::IntervalRange window{0, 3};
  const IntervalStore::Handle dirty = store.handle_at(1);
  const double original = store.load_of(dirty, 11);
  core::CurveCache cache;
  // Warm the entries, the scratch and the result buffer on both load sets
  // the measured call can see, so every knot buffer has its capacity.
  (void)cache.curves_for(store, 2, window);
  store.set_load(dirty, 11, 3.0 * original);
  (void)cache.curves_for(store, 2, window);
  store.set_load(dirty, 11, original);  // dirties it again, no new load

  const long long rebuilds = cache.stats().rebuilds;
  const long long before = g_allocations;
  const auto curves = cache.curves_for(store, 2, window);
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_EQ(cache.stats().rebuilds, rebuilds + 1);  // it did rebuild
  EXPECT_EQ(curves.size(), 3u);
}

TEST(Allocations, WaterFillWithWarmBuffersAllocatesNothing) {
  const IntervalStore store = make_loaded_store();
  core::CurveCache cache;
  const auto curves = cache.curves_for(store, 2, {0, 3});
  std::vector<double> terms;
  convex::Placement placement;
  ASSERT_TRUE(convex::water_fill_over_curves(curves, 2.0, 1e9, terms,
                                             placement));

  const long long before = g_allocations;
  const bool placed =
      convex::water_fill_over_curves(curves, 3.5, 1e9, terms, placement);
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_TRUE(placed);
  EXPECT_EQ(placement.amounts.size(), 3u);
}

// serve-dense-shaped sessions (m = 4, alpha = 2, 4096 streams x 24 jobs,
// spans 8..24 ticks at 0.5 jobs per tick) on one pooled scheduler, reset
// between streams as the session table recycles it.
TEST(Allocations, ServeDenseArrivalsAverageAtMostTwelve) {
  sim::StreamWorkloadConfig config;
  config.num_streams = 4096;
  config.jobs_per_stream = 24;
  config.jobs_per_tick = 0.5;
  config.min_span = 8;
  config.max_span = 24;
  config.base_seed = 1;
  const model::Machine machine{4, 2.0};
  core::PdOptions options;
  options.record_decisions = false;
  core::PdScheduler scheduler(machine, options);

  long long allocations = 0;
  long long arrivals = 0;
  for (int s = 0; s < config.num_streams; ++s) {
    const std::vector<model::Job> jobs =
        sim::make_stream_jobs(config, s, machine.alpha);
    scheduler.reset();
    for (const model::Job& job : jobs) {
      const long long before = g_allocations;
      (void)scheduler.on_arrival(job);
      allocations += g_allocations - before;
      ++arrivals;
    }
  }
  const double per_arrival = double(allocations) / double(arrivals);
  RecordProperty("allocations_per_arrival", std::to_string(per_arrival));
  std::cout << "allocations per on_arrival: " << per_arrival << "\n";
  EXPECT_LE(per_arrival, 12.0);
}

}  // namespace
}  // namespace pss

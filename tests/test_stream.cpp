// Tests for the sharded multi-stream serving engine (src/stream/):
// SPSC ring, router, session table, engine lifecycle, backpressure, and
// the load-bearing property that per-stream results are bitwise identical
// for any shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"
#include "stream/router.hpp"
#include "stream/session_table.hpp"
#include "stream/spsc_queue.hpp"
#include "support/stream_oracle.hpp"

namespace {

using namespace pss;
using stream::StreamId;

const model::Machine kMachine{2, 2.0};

sim::StreamWorkloadConfig small_config(int num_streams, int jobs_per_stream) {
  sim::StreamWorkloadConfig config;
  config.num_streams = num_streams;
  config.jobs_per_stream = jobs_per_stream;
  config.base_seed = 77;
  return config;
}

stream::EngineOptions engine_options(std::size_t shards) {
  stream::EngineOptions options;
  options.num_shards = shards;
  options.machine = kMachine;
  options.record_decisions = true;
  return options;
}

// ------------------------------------------------------------- SpscQueue

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  stream::SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  stream::SpscQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(SpscQueue, PushPopPreservesFifoOrder) {
  stream::SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(q.pop_batch(out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, RejectsWhenFullAndRecoversAfterPop) {
  stream::SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));
  EXPECT_EQ(q.size(), 4u);
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  EXPECT_TRUE(q.try_push(99));
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  stream::SpscQueue<int> q(4);
  std::vector<int> out;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(q.try_push(2 * round));
    EXPECT_TRUE(q.try_push(2 * round + 1));
    q.pop_batch(out, 2);
  }
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[std::size_t(i)], i);
}

TEST(SpscQueue, CrossThreadTransferDeliversEverythingInOrder) {
  stream::SpscQueue<int> q(64);
  constexpr int kCount = 20000;
  std::vector<int> got;
  std::thread consumer([&] {
    while (int(got.size()) < kCount)
      if (q.pop_batch(got, 128) == 0) std::this_thread::yield();
  });
  for (int i = 0; i < kCount; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  consumer.join();
  ASSERT_EQ(got.size(), std::size_t(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(got[std::size_t(i)], i);
}

// ---------------------------------------------------------- StreamRouter

TEST(StreamRouter, DeterministicAndInRange) {
  stream::StreamRouter router(7);
  for (StreamId id = 0; id < 1000; ++id) {
    const std::size_t shard = router.shard_of(id);
    EXPECT_LT(shard, 7u);
    EXPECT_EQ(shard, router.shard_of(id));  // pure function of the id
  }
}

TEST(StreamRouter, SpreadsSequentialIdsAcrossShards) {
  // Sequential ids are the worst case for a naive modulo; the splitmix64
  // finalizer should land every shard within 2x of the fair share.
  const std::size_t shards = 8;
  stream::StreamRouter router(shards);
  std::vector<int> hits(shards, 0);
  const int n = 4000;
  for (StreamId id = 0; id < StreamId(n); ++id) ++hits[router.shard_of(id)];
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(hits[s], n / int(shards) / 2);
    EXPECT_LT(hits[s], n / int(shards) * 2);
  }
}

TEST(StreamRouter, SingleShardTakesEverything) {
  stream::StreamRouter router(1);
  for (StreamId id = 0; id < 100; ++id) EXPECT_EQ(router.shard_of(id), 0u);
}

// ---------------------------------------------------------- SessionTable

TEST(SessionTable, LifecycleMatchesDirectScheduler) {
  const auto jobs = sim::make_stream_jobs(small_config(1, 30), 0,
                                          kMachine.alpha);
  stream::SessionTable table(kMachine, {}, /*record_decisions=*/true);
  for (const model::Job& job : jobs) table.feed(9, job);
  EXPECT_EQ(table.num_open(), 1u);
  const stream::StreamResult* result = table.close(9);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(table.num_open(), 0u);
  EXPECT_EQ(table.num_closed(), 1);

  core::PdScheduler direct(kMachine);
  for (const model::Job& job : jobs) direct.on_arrival(job);
  EXPECT_EQ(result->planned_energy, direct.planned_energy());
  EXPECT_EQ(result->counters.arrivals, direct.counters().arrivals);
  ASSERT_EQ(result->decisions.size(), direct.decisions().size());
  for (std::size_t i = 0; i < result->decisions.size(); ++i) {
    EXPECT_EQ(result->decisions[i].second.speed,
              direct.decisions()[i].second.speed);
    EXPECT_EQ(result->decisions[i].second.lambda,
              direct.decisions()[i].second.lambda);
  }
}

TEST(SessionTable, CloseUnknownStreamIsNull) {
  stream::SessionTable table(kMachine, {}, false);
  EXPECT_EQ(table.close(42), nullptr);
}

TEST(SessionTable, RecycledSchedulerStartsClean) {
  const auto jobs = sim::make_stream_jobs(small_config(1, 20), 0,
                                          kMachine.alpha);
  stream::SessionTable table(kMachine, {}, true);
  for (const model::Job& job : jobs) table.feed(1, job);
  const double first_energy = table.close(1)->planned_energy;
  // The second stream reuses the first stream's scheduler object off the
  // free list; identical input must reproduce identical output.
  for (const model::Job& job : jobs) table.feed(2, job);
  const stream::StreamResult* again = table.close(2);
  EXPECT_EQ(again->planned_energy, first_energy);
  EXPECT_EQ(again->counters.arrivals, (long long)jobs.size());
}

TEST(SessionTable, RecycledSessionReplaysNoStaleLazyLevels) {
  // Pure tick streams: nearly every arrival is accepted into a
  // one-interval window. A recycled session serving a second stream over
  // the *same* time range must not replay the first stream's committed
  // loads — its results and counters must match a fresh session's.
  auto config = small_config(1, 40);
  config.jobs_per_tick = 1.0;
  config.min_span = 1;
  config.max_span = 1;
  const auto jobs = sim::make_stream_jobs(config, 0, kMachine.alpha);
  stream::SessionTable table(kMachine, {}, true);
  for (const model::Job& job : jobs) table.feed(1, job);
  const stream::StreamResult* first = table.close(1);
  EXPECT_GT(first->counters.accepted, 0);
  for (const model::Job& job : jobs) table.feed(2, job);  // recycled object
  const stream::StreamResult* again = table.close(2);
  EXPECT_EQ(again->planned_energy, first->planned_energy);
  EXPECT_EQ(again->counters.accepted, first->counters.accepted);
  EXPECT_EQ(again->counters.interval_splits, first->counters.interval_splits);
  ASSERT_EQ(again->decisions.size(), first->decisions.size());
  for (std::size_t i = 0; i < first->decisions.size(); ++i) {
    EXPECT_EQ(again->decisions[i].second.accepted,
              first->decisions[i].second.accepted);
    EXPECT_EQ(again->decisions[i].second.speed,
              first->decisions[i].second.speed);
    EXPECT_EQ(again->decisions[i].second.lambda,
              first->decisions[i].second.lambda);
  }
}

TEST(SessionTable, AdvanceKeepsIdleSessionOnClock) {
  stream::SessionTable table(kMachine, {}, false);
  table.advance(5, 10.0);
  EXPECT_EQ(table.num_open(), 1u);
  model::Job job;
  job.id = 0;
  job.release = 12.0;
  job.deadline = 20.0;
  job.work = 1.0;
  table.feed(5, job);
  const stream::StreamResult* result = table.close(5);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->counters.arrivals, 1);
}

// ----------------------------------------------------------- StreamEngine

// The headline property: same streams, any shard count, bitwise-identical
// per-stream decisions and energies — and both equal the direct scheduler.
TEST(StreamEngine, ShardCountInvarianceBitwise1_4_16) {
  const auto config = small_config(48, 24);
  const auto at1 = sim::sweep_streams(config, engine_options(1));
  const auto at4 = sim::sweep_streams(config, engine_options(4));
  const auto at16 = sim::sweep_streams(config, engine_options(16));

  ASSERT_EQ(at1.streams.size(), 48u);
  ASSERT_EQ(at4.streams.size(), 48u);
  ASSERT_EQ(at16.streams.size(), 48u);
  for (std::size_t s = 0; s < 48; ++s) {
    const auto& a = at1.streams[s];
    const auto& b = at4.streams[s];
    const auto& c = at16.streams[s];
    ASSERT_EQ(a.id, b.id);
    ASSERT_EQ(a.id, c.id);
    EXPECT_EQ(a.planned_energy, b.planned_energy);
    EXPECT_EQ(a.planned_energy, c.planned_energy);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    ASSERT_EQ(a.decisions.size(), c.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
      EXPECT_EQ(a.decisions[i].second.accepted, b.decisions[i].second.accepted);
      EXPECT_EQ(a.decisions[i].second.speed, b.decisions[i].second.speed);
      EXPECT_EQ(a.decisions[i].second.lambda, c.decisions[i].second.lambda);
      EXPECT_EQ(a.decisions[i].second.planned_energy,
                c.decisions[i].second.planned_energy);
    }
    // Ground truth: the engine result is exactly a direct PD run.
    const auto jobs = sim::make_stream_jobs(config, int(a.id), kMachine.alpha);
    core::PdScheduler direct(kMachine);
    for (const model::Job& job : jobs) direct.on_arrival(job);
    EXPECT_EQ(a.planned_energy, direct.planned_energy());
    ASSERT_EQ(a.decisions.size(), direct.decisions().size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i)
      EXPECT_EQ(a.decisions[i].second.lambda,
                direct.decisions()[i].second.lambda);
  }

  // The aggregated snapshot is shard-count-invariant too. Counts are
  // exact; the energy total is a float sum whose order depends on the
  // sharding, so it matches to rounding only.
  EXPECT_EQ(at1.snapshot.accepted, at16.snapshot.accepted);
  EXPECT_EQ(at1.snapshot.rejected, at16.snapshot.rejected);
  EXPECT_NEAR(at1.snapshot.closed_energy, at16.snapshot.closed_energy,
              1e-9 * at1.snapshot.closed_energy);
  EXPECT_EQ(at1.snapshot.counters.interval_splits,
            at16.snapshot.counters.interval_splits);
}

// On accept-heavy tick streams, any shard count produces bitwise-identical
// per-stream decisions, and every stream is bitwise identical to the
// test-only reference oracle fed the same jobs.
TEST(StreamEngine, ShardCountInvarianceHoldsWithLazyLevels) {
  auto config = small_config(24, 32);
  config.jobs_per_tick = 1.0;  // tick streams: accept-heavy
  config.min_span = 1;
  config.max_span = 4;
  const auto one = sim::sweep_streams(config, engine_options(1));
  const auto five = sim::sweep_streams(config, engine_options(5));
  EXPECT_GT(one.snapshot.counters.accepted, 0);
  EXPECT_EQ(one.snapshot.counters.accepted,
            five.snapshot.counters.accepted);
  ASSERT_EQ(one.streams.size(), 24u);
  ASSERT_EQ(five.streams.size(), 24u);
  for (std::size_t s = 0; s < 24; ++s) {
    const auto& a = one.streams[s];
    const auto& b = five.streams[s];
    ASSERT_EQ(a.id, b.id);
    EXPECT_EQ(a.planned_energy, b.planned_energy);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
      const auto& da = a.decisions[i].second;
      const auto& db = b.decisions[i].second;
      EXPECT_EQ(da.accepted, db.accepted);
      EXPECT_EQ(da.speed, db.speed);
      EXPECT_EQ(da.lambda, db.lambda);
      EXPECT_EQ(da.planned_energy, db.planned_energy);
    }
  }
  std::map<stream::StreamId, std::vector<model::Job>> jobs;
  for (int s = 0; s < config.num_streams; ++s)
    jobs[stream::StreamId(s)] =
        sim::make_stream_jobs(config, s, kMachine.alpha);
  reference::expect_streams_match_oracle(one.streams, jobs, kMachine);
}

TEST(StreamEngine, SnapshotTotalsAreConsistent) {
  const auto config = small_config(20, 16);
  const auto result = sim::sweep_streams(config, engine_options(4));
  const auto& snap = result.snapshot;
  EXPECT_EQ(snap.arrivals, 20LL * 16LL);
  EXPECT_EQ(snap.arrivals, snap.accepted + snap.rejected);
  EXPECT_EQ(snap.closed_streams, 20);
  EXPECT_EQ(snap.open_streams, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.queue_rejects, 0);
  EXPECT_EQ(snap.counters.arrivals, snap.arrivals);  // all streams closed
  EXPECT_GT(snap.closed_energy, 0.0);
  EXPECT_EQ(snap.shards.size(), 4u);
  long long per_shard_arrivals = 0;
  for (const auto& shard : snap.shards) per_shard_arrivals += shard.arrivals;
  EXPECT_EQ(per_shard_arrivals, snap.arrivals);
}

TEST(StreamEngine, FullQueueRejectPolicyShedsAndCountsOps) {
  stream::EngineOptions options = engine_options(1);
  options.queue_capacity = 4;
  options.backpressure = stream::Backpressure::kReject;
  options.start_paused = true;  // nothing drains: the ring must fill
  stream::StreamEngine engine(options);

  const auto jobs = sim::make_stream_jobs(small_config(1, 10), 0,
                                          kMachine.alpha);
  int fed = 0;
  for (const model::Job& job : jobs)
    if (engine.feed(7, job)) ++fed;
  EXPECT_EQ(fed, 4);  // ring capacity

  stream::EngineSnapshot stalled = engine.snapshot();
  EXPECT_EQ(stalled.queue_rejects, 6);
  EXPECT_EQ(stalled.queue_depth, 4u);
  EXPECT_EQ(stalled.arrivals, 0);  // worker parked, nothing applied yet

  engine.resume();
  engine.drain();
  engine.close_stream(7);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  // Shed ops are gone; the session saw exactly the accepted prefix, which
  // stayed a valid release-ordered stream.
  EXPECT_EQ(results[0].counters.arrivals, 4);
  const stream::EngineSnapshot final_snap = engine.snapshot();
  EXPECT_EQ(final_snap.arrivals, 4);
  EXPECT_EQ(final_snap.queue_rejects, 6);
}

TEST(StreamEngine, FullQueueBlockPolicyLosesNothing) {
  stream::EngineOptions options = engine_options(1);
  options.queue_capacity = 4;  // absurdly small: force producer stalls
  stream::StreamEngine engine(options);

  const auto jobs = sim::make_stream_jobs(small_config(1, 300), 0,
                                          kMachine.alpha);
  for (const model::Job& job : jobs) EXPECT_TRUE(engine.feed(3, job));
  engine.close_stream(3);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.arrivals, 300);
  const stream::EngineSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.arrivals, 300);
  EXPECT_EQ(snap.queue_rejects, 0);
  EXPECT_GT(snap.full_waits, 0);  // the tiny ring must have stalled us
}

TEST(StreamEngine, FinishAppliesPendingOpsFromPausedStart) {
  stream::EngineOptions options = engine_options(2);
  options.queue_capacity = 256;
  options.start_paused = true;
  stream::StreamEngine engine(options);
  const auto config = small_config(6, 12);
  for (int s = 0; s < 6; ++s) {
    const auto jobs = sim::make_stream_jobs(config, s, kMachine.alpha);
    for (const model::Job& job : jobs) engine.feed(StreamId(s), job);
    engine.close_stream(StreamId(s));
  }
  EXPECT_EQ(engine.snapshot().arrivals, 0);  // still parked
  // finish() resumes, drains every queued op, then stops the workers.
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) EXPECT_EQ(r.counters.arrivals, 12);
  EXPECT_EQ(engine.snapshot().arrivals, 72);
}

TEST(StreamEngine, DestructorJoinsWithoutDrainRequired) {
  // Shutdown safety: destroying a live engine with traffic in flight must
  // neither hang nor crash; accepted ops are applied before exit.
  stream::EngineOptions options = engine_options(3);
  stream::StreamEngine engine(options);
  const auto jobs = sim::make_stream_jobs(small_config(1, 50), 0,
                                          kMachine.alpha);
  for (int s = 0; s < 9; ++s)
    for (const model::Job& job : jobs) engine.feed(StreamId(s), job);
  // No drain, no finish — the destructor handles it.
}

TEST(StreamEngine, MalformedOpsAreCountedNotFatal) {
  stream::StreamEngine engine(engine_options(2));
  model::Job good;
  good.id = 0;
  good.release = 5.0;
  good.deadline = 9.0;
  good.work = 1.0;
  model::Job bad = good;  // violates release monotonicity after `good`
  bad.id = 1;
  bad.release = 1.0;
  bad.deadline = 3.0;
  model::Job degenerate;  // empty window: rejected by the precondition
  degenerate.id = 2;
  degenerate.release = 6.0;
  degenerate.deadline = 6.0;
  degenerate.work = 1.0;

  engine.feed(1, good);
  engine.feed(1, bad);
  engine.feed(1, degenerate);
  engine.feed(2, good);  // the other stream is unaffected
  engine.close_stream(1);
  engine.close_stream(2);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 2u);
  const auto& snap = engine.snapshot();
  EXPECT_EQ(snap.op_errors, 2);
  EXPECT_EQ(snap.arrivals, 2);  // both `good` feeds landed
}

TEST(StreamEngine, ReopeningAClosedIdStartsAFreshSession) {
  stream::StreamEngine engine(engine_options(1));
  const auto jobs = sim::make_stream_jobs(small_config(1, 15), 0,
                                          kMachine.alpha);
  for (const model::Job& job : jobs) engine.feed(11, job);
  engine.close_stream(11);
  for (const model::Job& job : jobs) engine.feed(11, job);  // fresh clock
  engine.close_stream(11);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, results[1].id);
  EXPECT_EQ(results[0].planned_energy, results[1].planned_energy);
}

TEST(SessionTable, MalformedAdvanceIsContainedPerOp) {
  stream::SessionTable table(kMachine, {}, false);
  model::Job job;
  job.id = 0;
  job.release = 5.0;
  job.deadline = 9.0;
  job.work = 1.0;
  table.feed(7, job);
  EXPECT_FALSE(table.advance(7, 1.0));  // behind the session clock
  EXPECT_FALSE(table.advance(7, std::nan("")));
  EXPECT_TRUE(table.advance(7, 6.0));  // the session still serves
  job.id = 1;
  job.release = 6.0;
  table.feed(7, job);
  const stream::StreamResult* result = table.close(7);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->counters.arrivals, 2);
}

TEST(StreamEngine, MalformedAdvanceCountsOpErrorAndServesOn) {
  stream::StreamEngine engine(engine_options(2));
  model::Job job;
  job.id = 0;
  job.release = 5.0;
  job.deadline = 9.0;
  job.work = 1.0;
  engine.feed(3, job);
  engine.advance(3, 2.0);           // behind the clock: contained, counted
  engine.advance(3, std::nan(""));  // non-finite: contained, counted
  engine.advance(3, 7.0);           // fine
  job.id = 1;
  job.release = 7.0;
  job.deadline = 11.0;
  engine.feed(3, job);  // the stream keeps serving after the bad ops
  engine.close_stream(3);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.arrivals, 2);
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap.op_errors, 2);
  EXPECT_EQ(snap.arrivals, 2);
}

TEST(StreamEngine, AdvanceDrivesCompactionWithoutChangingEnergy) {
  // The engine's per-session advance is the steady-state GC driver: a
  // stream that is periodically advanced retires its served prefix, and
  // its close-time energy still equals the never-advanced direct replay.
  auto config = small_config(1, 60);
  config.jobs_per_tick = 2.0;  // releases span 30 ticks: the prefix retires
  const auto jobs = sim::make_stream_jobs(config, 0, kMachine.alpha);
  stream::StreamEngine engine(engine_options(1));
  for (const model::Job& job : jobs) {
    engine.feed(4, job);
    engine.advance(4, job.release);  // heartbeat at every arrival's clock
  }
  engine.close_stream(4);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].counters.compactions, 0);

  core::PdScheduler direct(kMachine);
  for (const model::Job& job : jobs) direct.on_arrival(job);
  EXPECT_EQ(results[0].planned_energy, direct.planned_energy());
  EXPECT_EQ(results[0].counters.accepted, direct.counters().accepted);
  EXPECT_EQ(results[0].counters.rejected, direct.counters().rejected);
}

TEST(StreamEngine, CheckpointRestoreResumesBitwise) {
  // Serve half the traffic, checkpoint, keep serving on the original
  // engine; restore the image into a fresh engine and serve the same
  // second half there. Every stream must close with bitwise-identical
  // decisions and energies — and both must match the uninterrupted run.
  const int streams = 8;
  stream::EngineOptions options = engine_options(4);
  stream::StreamEngine live(options);
  stream::StreamEngine uninterrupted(options);

  std::vector<std::vector<model::Job>> per_stream;
  for (int s = 0; s < streams; ++s)
    per_stream.push_back(
        sim::make_stream_jobs(small_config(streams, 40), s, kMachine.alpha));

  for (int s = 0; s < streams; ++s) {
    const auto& jobs = per_stream[std::size_t(s)];
    for (std::size_t i = 0; i < jobs.size() / 2; ++i) {
      live.feed(StreamId(s), jobs[i]);
      uninterrupted.feed(StreamId(s), jobs[i]);
    }
    const double mid = jobs[jobs.size() / 2].release;
    live.advance(StreamId(s), mid);  // compaction state in the image
    uninterrupted.advance(StreamId(s), mid);
  }

  std::ostringstream blob(std::ios::binary);
  live.checkpoint(blob);  // drains internally

  stream::StreamEngine restored(options);
  std::istringstream image(blob.str(), std::ios::binary);
  restored.restore(image);

  // The restored engine resumes exactly where the image was cut.
  {
    const auto a = live.snapshot();
    const auto b = restored.snapshot();
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.decision_energy, b.decision_energy);
    EXPECT_EQ(a.open_streams, b.open_streams);
  }

  for (int s = 0; s < streams; ++s) {
    const auto& jobs = per_stream[std::size_t(s)];
    for (std::size_t i = jobs.size() / 2; i < jobs.size(); ++i) {
      live.feed(StreamId(s), jobs[i]);
      restored.feed(StreamId(s), jobs[i]);
      uninterrupted.feed(StreamId(s), jobs[i]);
    }
    live.close_stream(StreamId(s));
    restored.close_stream(StreamId(s));
    uninterrupted.close_stream(StreamId(s));
  }
  const auto ra = live.finish();
  const auto rb = restored.finish();
  const auto rc = uninterrupted.finish();
  ASSERT_EQ(ra.size(), std::size_t(streams));
  ASSERT_EQ(rb.size(), std::size_t(streams));
  ASSERT_EQ(rc.size(), std::size_t(streams));
  for (int s = 0; s < streams; ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    const auto& a = ra[std::size_t(s)];
    const auto& b = rb[std::size_t(s)];
    const auto& c = rc[std::size_t(s)];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.planned_energy, b.planned_energy);
    EXPECT_EQ(a.planned_energy, c.planned_energy);
    EXPECT_EQ(a.counters.arrivals, b.counters.arrivals);
    EXPECT_EQ(a.counters.accepted, b.counters.accepted);
    EXPECT_EQ(a.counters.rejected, b.counters.rejected);
    // Decision logs bitwise — the restored run, the checkpointed-and-
    // continued run and the uninterrupted run all agree. (Cache/certify
    // counters are exempt: a restored cache restarts cold.)
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    ASSERT_EQ(a.decisions.size(), c.decisions.size());
    for (std::size_t i = 0; i < a.decisions.size(); ++i) {
      EXPECT_EQ(a.decisions[i].first, b.decisions[i].first);
      EXPECT_EQ(a.decisions[i].second.accepted, b.decisions[i].second.accepted);
      EXPECT_EQ(a.decisions[i].second.speed, b.decisions[i].second.speed);
      EXPECT_EQ(a.decisions[i].second.lambda, b.decisions[i].second.lambda);
      EXPECT_EQ(a.decisions[i].second.planned_energy,
                b.decisions[i].second.planned_energy);
      EXPECT_EQ(a.decisions[i].second.speed, c.decisions[i].second.speed);
      EXPECT_EQ(a.decisions[i].second.lambda, c.decisions[i].second.lambda);
    }
  }
}

TEST(StreamEngine, RestoreRejectsMismatchedEngine) {
  stream::StreamEngine source(engine_options(2));
  model::Job job;
  job.id = 0;
  job.release = 1.0;
  job.deadline = 5.0;
  job.work = 1.0;
  source.feed(1, job);
  std::ostringstream blob(std::ios::binary);
  source.checkpoint(blob);

  stream::StreamEngine wrong_shards(engine_options(3));
  std::istringstream is1(blob.str(), std::ios::binary);
  EXPECT_THROW(wrong_shards.restore(is1), std::invalid_argument);

  stream::EngineOptions other = engine_options(2);
  other.machine = model::Machine{1, 3.0};
  stream::StreamEngine wrong_machine(other);
  std::istringstream is2(blob.str(), std::ios::binary);
  EXPECT_THROW(wrong_machine.restore(is2), std::invalid_argument);

  std::istringstream garbage(std::string("not a checkpoint"),
                             std::ios::binary);
  stream::StreamEngine fresh(engine_options(2));
  EXPECT_THROW(fresh.restore(garbage), std::invalid_argument);
}

// ------------------------------------------------------------ StreamSweep

TEST(StreamSweep, WorkloadIsDeterministicPerStreamIndex) {
  const auto config = small_config(4, 10);
  const auto a = sim::make_stream_jobs(config, 2, kMachine.alpha);
  const auto b = sim::make_stream_jobs(config, 2, kMachine.alpha);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].work, b[i].work);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].value, b[i].value);
  }
  // Independent of num_streams: stream 2 of a 4-stream sweep equals
  // stream 2 of a 100-stream sweep.
  auto wide = small_config(100, 10);
  const auto c = sim::make_stream_jobs(wide, 2, kMachine.alpha);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].value, c[i].value);
}

TEST(StreamSweep, ReleaseOrderIsNondecreasingWithinAStream) {
  const auto jobs = sim::make_stream_jobs(small_config(1, 200), 0,
                                          kMachine.alpha);
  for (std::size_t i = 1; i < jobs.size(); ++i)
    EXPECT_GE(jobs[i].release, jobs[i - 1].release);
}

}  // namespace

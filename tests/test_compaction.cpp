// Horizon compaction and checkpoint/restore (the flat-memory serving
// contract):
//   * compacted vs uncompacted twins commit bitwise-identical decisions
//     and energies, both bitwise equal to the test-only reference oracle;
//   * a checkpoint written mid-soak (with retired energy and accepted-id
//     records in flight) restores into a fresh scheduler that replays the remaining traffic bitwise
//     identically — and re-serializes to the identical bytes, while a blob
//     with a non-finite clock, retired energy or load, a repeated or zero
//     load, or unsorted accepted-id records is refused;
//   * steady-state serving with per-tick compaction holds O(live window)
//     structure while the uncompacted twin grows linearly;
//   * a million idle advances are structure-free: no boundary, no slab
//     growth, no cache churn;
//   * the monotonicity tolerance is relative, so day-scale timestamps
//     (t ~ 1e9) neither refuse legitimate jitter nor accept stale clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "io/state_io.hpp"
#include "stream/engine.hpp"
#include "model/job.hpp"
#include "support/reference_pd.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::ArrivalDecision;
using core::PdOptions;
using core::PdScheduler;
using model::Job;
using model::Machine;

const Machine kMachine{2, 2.5};

// Steady-state serving traffic: every tick carries a frontier job on the
// integer grid, plus occasional wide windows, off-grid releases (splits) and cheap jobs (rejections).
// Releases are nondecreasing, windows span a few ticks — after a short
// warm-up, arrivals and expiries balance.
std::vector<Job> steady_workload(int ticks, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  model::JobId id = 0;
  for (int t = 0; t < ticks; ++t) {
    const double tick = double(t);
    // Frontier accept: empty unit window at the leading edge.
    jobs.push_back({id++, tick, tick + 1.0, rng.uniform(0.3, 1.2), util::kInf});
    if (rng.bernoulli(0.4)) {  // wide window, overlaps committed work
      const double span = double(rng.uniform_int(2, 6));
      jobs.push_back(
          {id++, tick, tick + span, rng.uniform(0.5, 2.0), rng.uniform(2.0, 9.0)});
    }
    if (rng.bernoulli(0.25)) {  // off-grid release: forces a split
      jobs.push_back({id++, tick + 0.3, tick + 2.3, rng.uniform(0.2, 1.0),
                      rng.uniform(1.0, 6.0)});
    }
    if (rng.bernoulli(0.2)) {  // low-value: exercises the rejection path
      jobs.push_back({id++, tick + 0.5, tick + 1.5, rng.uniform(1.0, 3.0),
                      rng.uniform(0.01, 0.1)});
    }
  }
  return jobs;
}

void expect_decision_eq(const ArrivalDecision& a, const ArrivalDecision& b,
                        const std::string& what) {
  ASSERT_EQ(a.accepted, b.accepted) << what;
  ASSERT_EQ(a.speed, b.speed) << what;
  ASSERT_EQ(a.lambda, b.lambda) << what;
  ASSERT_EQ(a.planned_energy, b.planned_energy) << what;
}

// Feeds `jobs` tick by tick into both schedulers, advancing the clock once
// per tick (`a` with compaction, `b` without), asserting bitwise-equal
// decisions throughout and bitwise-equal energies every `energy_every`.
// A passed oracle (which never compacts) is fed in lockstep and held to
// the same decisions and energies.
void run_twins(PdScheduler& a, PdScheduler& b, const std::vector<Job>& jobs,
               int ticks, int energy_every,
               reference::ReferencePd* oracle = nullptr) {
  std::size_t j = 0;
  for (int t = 0; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      const std::string what = "job " + std::to_string(jobs[j].id);
      const ArrivalDecision da = a.on_arrival(jobs[j]);
      const ArrivalDecision db = b.on_arrival(jobs[j]);
      expect_decision_eq(da, db, what);
      if (oracle) expect_decision_eq(da, oracle->on_arrival(jobs[j]), what);
      if (::testing::Test::HasFatalFailure()) return;
      ++j;
    }
    a.advance_to(double(t + 1), /*compact=*/true);
    b.advance_to(double(t + 1), /*compact=*/false);
    if (t % energy_every == energy_every - 1) {
      ASSERT_EQ(a.planned_energy(), b.planned_energy()) << "tick " << t;
      if (oracle) {
        ASSERT_EQ(a.planned_energy(), oracle->planned_energy())
            << "tick " << t;
      }
    }
  }
  ASSERT_EQ(a.planned_energy(), b.planned_energy());
  if (oracle) {
    ASSERT_EQ(a.planned_energy(), oracle->planned_energy());
  }
}

// ------------------------------------------------- compaction differential

TEST(Compaction, DifferentialCubeCompactedVsUncompacted) {
  const int ticks = 120;
  const auto jobs = steady_workload(ticks, 2026);
  PdScheduler compacted(kMachine);
  PdScheduler plain(kMachine);
  reference::ReferencePd oracle(kMachine);
  run_twins(compacted, plain, jobs, ticks, 16, &oracle);
  if (::testing::Test::HasFatalFailure()) return;
  // Compaction actually ran and the live window stayed small.
  EXPECT_GT(compacted.counters().compactions, 0);
  EXPECT_GT(compacted.counters().compacted_intervals, 0);
  EXPECT_LT(compacted.live_intervals(), plain.live_intervals());
  EXPECT_GT(compacted.retired_energy(), 0.0);
  // The screen engaged on this traffic.
  EXPECT_GT(compacted.counters().window_prunes, 0);
}

TEST(Compaction, FullRetirementPreservesEnergyBitwise) {
  const int ticks = 60;
  const auto jobs = steady_workload(ticks, 7);
  PdScheduler compacted(kMachine, {});
  PdScheduler plain(kMachine, {});
  run_twins(compacted, plain, jobs, ticks, 1000);
  if (::testing::Test::HasFatalFailure()) return;
  // Jump the clock far past every deadline: everything retires.
  compacted.advance_to(1e6, /*compact=*/true);
  plain.advance_to(1e6);
  EXPECT_EQ(compacted.live_intervals(), 0u);
  EXPECT_GT(compacted.retired_energy(), 0.0);
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
  // The lone surviving boundary keeps future refinement anchored: traffic
  // after the gap behaves identically on both.
  const Job late{100000, 1e6, 1e6 + 4.0, 1.0, 5.0};
  expect_decision_eq(compacted.on_arrival(late), plain.on_arrival(late),
                     "post-gap arrival");
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
}

TEST(Compaction, ResetAfterCompactionBehavesLikeFresh) {
  const int ticks = 40;
  const auto jobs = steady_workload(ticks, 99);
  PdScheduler recycled(kMachine, {});
  {
    PdScheduler throwaway(kMachine, {});
    run_twins(recycled, throwaway, jobs, ticks, 1000);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(recycled.counters().compactions, 0);
  recycled.reset();
  EXPECT_EQ(recycled.retired_energy(), 0.0);
  EXPECT_EQ(recycled.handle_space(), 0u);
  EXPECT_EQ(recycled.planned_energy(), 0.0);
  // A reset scheduler is indistinguishable from a new one — including its
  // compaction machinery (the second run compacts again from scratch).
  const auto second = steady_workload(ticks, 100);
  PdScheduler fresh(kMachine, {});
  run_twins(recycled, fresh, second, ticks, 8);
}

TEST(Compaction, SteadyStateStructureStaysFlat) {
  PdOptions o;
  o.record_decisions = false;  // the soak posture: nothing may grow
  const int ticks = 4000;
  const auto jobs = steady_workload(ticks, 5);
  PdScheduler compacted(kMachine, o);
  PdScheduler plain(kMachine, o);
  std::size_t j = 0;
  std::size_t peak_handles = 0;
  for (int t = 0; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      (void)compacted.on_arrival(jobs[j]);
      (void)plain.on_arrival(jobs[j]);
      ++j;
    }
    compacted.advance_to(double(t + 1), /*compact=*/true);
    plain.advance_to(double(t + 1));
    peak_handles = std::max(peak_handles, compacted.handle_space());
  }
  // Windows span <= ~6 ticks with <= ~3 boundaries each: the live window
  // is a few dozen intervals, and recycled handles keep the slab there.
  EXPECT_LE(compacted.live_intervals(), 64u);
  EXPECT_LE(peak_handles, 256u);
  // The uncompacted twin keeps every interval it ever created.
  EXPECT_GT(plain.handle_space(), 4000u);
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
}

TEST(Compaction, MillionIdleAdvancesAreStructureFree) {
  PdScheduler pd(kMachine, {});
  const auto jobs = steady_workload(8, 3);
  for (const Job& job : jobs) (void)pd.on_arrival(job);
  // First compacting advance retires the whole prefix...
  pd.advance_to(100.0, /*compact=*/true);
  const std::size_t intervals = pd.live_intervals();
  const std::size_t handles = pd.handle_space();
  const long long compactions = pd.counters().compactions;
  const std::size_t boundaries = pd.partition().boundaries().size();
  // ...and a million heartbeat ticks after it change nothing at all.
  for (int i = 1; i <= 1'000'000; ++i)
    pd.advance_to(100.0 + double(i) * 1e-3, /*compact=*/true);
  EXPECT_EQ(pd.live_intervals(), intervals);
  EXPECT_EQ(pd.handle_space(), handles);
  EXPECT_EQ(pd.counters().compactions, compactions);
  EXPECT_EQ(pd.partition().boundaries().size(), boundaries);
}

TEST(Compaction, IdleAdvancesNeverTouchLiveStructure) {
  // Heartbeats inside a live window — ahead of its start, short of its
  // end — must neither split nor retire anything (regression for the
  // per-tick ensure_boundary that grew the partition without arrivals).
  PdScheduler pd(kMachine, {});
  (void)pd.on_arrival({0, 50.0, 60.0, 1.0, util::kInf});
  const std::size_t boundaries = pd.partition().boundaries().size();
  for (int i = 0; i < 100000; ++i)
    pd.advance_to(50.0 + double(i) * 4e-5, /*compact=*/true);
  EXPECT_EQ(pd.partition().boundaries().size(), boundaries);
  EXPECT_EQ(pd.counters().compactions, 0);
  EXPECT_EQ(pd.counters().interval_splits, 0);
}

// ----------------------------------------------------- relative tolerance

TEST(ClockTolerance, RelativeAtLargeTimestamps) {
  // Day-scale clocks: at t ~ 1e9 an absolute 1e-12 epsilon would refuse
  // every reconverted timestamp (1 ulp of 1e9 is ~1.2e-7). The tolerance
  // is relative: jitter within ~1e-3 passes, a genuinely stale clock does
  // not.
  PdScheduler pd(kMachine, {});
  pd.advance_to(1e9, /*compact=*/true);
  EXPECT_NO_THROW(
      (void)pd.on_arrival({0, 1e9 - 1e-4, 1e9 + 8.0, 1.0, util::kInf}));
  EXPECT_THROW(
      (void)pd.on_arrival({1, 1e9 - 1.0, 1e9 + 8.0, 1.0, util::kInf}),
      std::invalid_argument);
  EXPECT_THROW(pd.advance_to(1e9 - 1.0), std::invalid_argument);
  EXPECT_NO_THROW(pd.advance_to(1e9 - 1e-4));
  EXPECT_THROW(pd.advance_to(std::nan("")), std::invalid_argument);
  // And decisions around the huge clock still match an uncompacted twin.
  PdScheduler plain(kMachine, {});
  plain.advance_to(1e9);
  const Job probe{2, 1e9, 1e9 + 4.0, 1.5, 6.0};
  expect_decision_eq(pd.on_arrival(probe), plain.on_arrival(probe), "probe");
}

// ------------------------------------------------------ checkpoint/restore

std::string serialize(const PdScheduler& s) {
  std::ostringstream os(std::ios::binary);
  io::save_scheduler(os, s);
  return os.str();
}

TEST(Checkpoint, RoundTripAcrossCubeMidSoak) {
  const int ticks = 96;
  const int cut = 48;  // checkpoint mid-stream, state in full flight
  const auto jobs = steady_workload(ticks, 31);
  PdScheduler live(kMachine);
  std::size_t j = 0;
  for (int t = 0; t < cut; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1))
      (void)live.on_arrival(jobs[j++]);
    live.advance_to(double(t + 1), /*compact=*/true);
  }

  const std::string blob = serialize(live);
  // Identical state serializes to identical bytes...
  ASSERT_EQ(serialize(live), blob);
  PdScheduler restored(kMachine);
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, restored);
  // ...and so does the restored image.
  ASSERT_EQ(serialize(restored), blob);

  // The restored session replays the rest of the soak bitwise.
  for (int t = cut; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      const ArrivalDecision da = live.on_arrival(jobs[j]);
      const ArrivalDecision db = restored.on_arrival(jobs[j]);
      expect_decision_eq(da, db, "job " + std::to_string(jobs[j].id));
      if (::testing::Test::HasFatalFailure()) return;
      ++j;
    }
    live.advance_to(double(t + 1), /*compact=*/true);
    restored.advance_to(double(t + 1), /*compact=*/true);
  }
  ASSERT_EQ(live.planned_energy(), restored.planned_energy());
  ASSERT_EQ(live.retired_energy(), restored.retired_energy());
  ASSERT_EQ(live.decisions().size(), restored.decisions().size());
  for (std::size_t i = 0; i < live.decisions().size(); ++i) {
    ASSERT_EQ(live.decisions()[i].first, restored.decisions()[i].first);
    expect_decision_eq(live.decisions()[i].second,
                       restored.decisions()[i].second,
                       "decision log " + std::to_string(i));
  }
}

TEST(Checkpoint, RoundTripsUnderPerTickCompaction) {
  // Pure frontier traffic under per-tick compaction: every tick retires
  // the one before it, so the blob carries the retired-energy accumulator
  // and only the live tail of the partition.
  PdScheduler live(kMachine);
  for (int t = 0; t < 24; ++t) {
    (void)live.on_arrival({t, double(t), double(t) + 1.0, 0.8, util::kInf});
    live.advance_to(double(t) + 1.0, /*compact=*/true);
  }
  ASSERT_GT(live.counters().compacted_intervals, 0);
  ASSERT_GT(live.retired_energy(), 0.0);
  const std::string blob = serialize(live);
  PdScheduler restored(kMachine);
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, restored);
  ASSERT_EQ(serialize(restored), blob);
  ASSERT_EQ(live.retired_energy(), restored.retired_energy());
  ASSERT_EQ(live.planned_energy(), restored.planned_energy());
  for (int t = 24; t < 40; ++t) {
    const Job job{t, double(t), double(t) + 1.0, 0.8, util::kInf};
    expect_decision_eq(live.on_arrival(job), restored.on_arrival(job),
                       "tick " + std::to_string(t));
    live.advance_to(double(t) + 1.0, /*compact=*/true);
    restored.advance_to(double(t) + 1.0, /*compact=*/true);
  }
  ASSERT_EQ(live.planned_energy(), restored.planned_energy());
}

TEST(Checkpoint, RejectsMismatchedConfigurationAndGarbage) {
  PdScheduler source(kMachine, {});
  (void)source.on_arrival({0, 0.0, 4.0, 1.0, 5.0});
  const std::string blob = serialize(source);

  PdScheduler wrong_machine(Machine{4, 2.5}, {});
  std::istringstream is1(blob, std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is1, wrong_machine), std::invalid_argument);

  PdScheduler wrong_delta(kMachine, {.delta = 0.5});
  std::istringstream is2(blob, std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is2, wrong_delta), std::invalid_argument);

  // A blob with a decision log cannot restore into a log-less session.
  PdScheduler no_log(kMachine, {.delta = {}, .record_decisions = false});
  std::istringstream is3(blob, std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is3, no_log), std::invalid_argument);

  PdScheduler truncated_target(kMachine, {});
  std::istringstream is4(blob.substr(0, blob.size() / 2), std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is4, truncated_target),
               std::invalid_argument);
}

// Images in the previous formats are refused up front as bad magic rather
// than misparsed: engine images "PSSCKPT4" (session blobs with
// backend-selector bytes and a tuner block), "PSSCKPT5" and "PSSCKPT6"
// (one engine header ahead of the shard states; an engine image is now
// the shard images back to back), and shard images "PSSSHRD3" (config and
// session blobs with the windowed/lazy bytes) and "PSSSHRD4" (session blobs
// with a lazy water-level section).
TEST(Checkpoint, EngineRefusesPreviousFormatAsBadMagic) {
  stream::EngineOptions options;
  options.num_shards = 2;
  options.machine = kMachine;
  stream::StreamEngine source(options);
  (void)source.feed(1, {0, 0.0, 4.0, 1.0, 5.0});
  const auto expect_bad_magic = [](const std::string& image,
                                   const auto& restore) {
    std::istringstream is(image, std::ios::binary);
    try {
      restore(is);
      ADD_FAILURE() << "a " << image.substr(0, 8) << " image was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << e.what();
    }
  };

  std::ostringstream os(std::ios::binary);
  source.checkpoint(os);
  const std::string image = os.str();
  ASSERT_EQ(image.substr(0, 8), "PSSSHRD5");
  for (const char* previous : {"PSSCKPT4", "PSSCKPT5", "PSSCKPT6"}) {
    std::string old = image;
    old.replace(0, 8, previous);
    stream::StreamEngine target(options);
    expect_bad_magic(old, [&](std::istream& is) { target.restore(is); });
  }

  std::ostringstream shard_os(std::ios::binary);
  source.checkpoint_shard(0, shard_os);
  ASSERT_EQ(shard_os.str().substr(0, 8), "PSSSHRD5");
  stream::StreamEngine target(options);
  for (const char* previous : {"PSSSHRD3", "PSSSHRD4"}) {
    std::string shard_image = shard_os.str();
    shard_image.replace(0, 8, previous);
    expect_bad_magic(shard_image, [&](std::istream& is) {
      (void)target.restore_shard(0, is);
    });
  }
  // The current shard image restores into the same fresh shard.
  std::istringstream current(shard_os.str(), std::ios::binary);
  EXPECT_NO_THROW((void)target.restore_shard(0, current));
}

// One checkpoint format: an engine image is every shard's checkpoint_shard
// image in shard order — byte for byte the parts one CheckpointCoordinator
// generation writes — and it restores to an engine that re-serializes to
// the same bytes.
TEST(Checkpoint, EngineImageIsTheShardImagesInShardOrder) {
  stream::EngineOptions options;
  options.num_shards = 3;
  options.machine = kMachine;
  options.record_decisions = true;
  stream::StreamEngine engine(options);
  for (stream::StreamId id = 0; id < 12; ++id) {
    (void)engine.feed(id, {0, 0.0, 4.0, 1.0, 5.0});
    (void)engine.feed(id, {1, 1.0, 3.0, 2.0, 0.5});
  }
  (void)engine.close_stream(4);
  (void)engine.close_stream(7);
  constexpr std::uint64_t kMark = 7;

  std::ostringstream whole(std::ios::binary);
  engine.checkpoint(whole, kMark);
  std::string parts;
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    std::ostringstream part(std::ios::binary);
    engine.checkpoint_shard(i, part, kMark);
    parts += part.str();
  }
  EXPECT_EQ(whole.str(), parts);

  stream::StreamEngine restored(options);
  std::istringstream is(whole.str(), std::ios::binary);
  EXPECT_EQ(restored.restore(is), kMark);
  std::ostringstream again(std::ios::binary);
  restored.checkpoint(again, kMark);
  EXPECT_EQ(again.str(), whole.str());
}

TEST(Checkpoint, EngineRefusesShardsWithDifferentWalMarks) {
  stream::EngineOptions options;
  options.num_shards = 2;
  options.machine = kMachine;
  stream::StreamEngine source(options);
  for (stream::StreamId id = 0; id < 6; ++id)
    (void)source.feed(id, {0, 0.0, 4.0, 1.0, 5.0});
  const auto image = [&](std::uint64_t mark0, std::uint64_t mark1) {
    std::ostringstream os(std::ios::binary);
    source.checkpoint_shard(0, os, mark0);
    source.checkpoint_shard(1, os, mark1);
    return os.str();
  };

  stream::StreamEngine mixed(options);
  std::istringstream is_mixed(image(1, 2), std::ios::binary);
  EXPECT_THROW((void)mixed.restore(is_mixed), std::invalid_argument);

  stream::StreamEngine equal(options);
  std::istringstream is_equal(image(2, 2), std::ios::binary);
  EXPECT_EQ(equal.restore(is_equal), 2u);
}

// Byte offsets into a PSSSHRD5 image: magic, wal_mark and shard index
// (3 x u64), then the config block — num_shards (u64), m (i64),
// alpha (f64), has_delta (bool), delta (f64), record_decisions (bool) —
// then the tallies, enqueued first.
constexpr std::size_t kHasDeltaAt = 8 * 6;
constexpr std::size_t kRecordDecisionsAt = kHasDeltaAt + 1 + 8;
constexpr std::size_t kEnqueuedAt = kRecordDecisionsAt + 1;

// Images are only cut drained, so an image's enqueued tally equals its
// processed tally. A gap must be refused on load: the restored engine's
// next drain() would otherwise wait for ops that never come.
TEST(Checkpoint, RefusesAnEnqueuedTallyAheadOfProcessed) {
  stream::EngineOptions options;
  options.machine = kMachine;
  stream::StreamEngine source(options);
  for (int j = 0; j < 3; ++j)
    (void)source.feed(1, {j, double(j), double(j) + 4.0, 1.0, 5.0});
  std::ostringstream os(std::ios::binary);
  source.checkpoint(os);
  std::string image = os.str();

  std::istringstream enqueued_in(image.substr(kEnqueuedAt, 8),
                                 std::ios::binary);
  const std::uint64_t enqueued = io::read_u64(enqueued_in);
  ASSERT_EQ(static_cast<long long>(enqueued),
            source.snapshot().shards[0].enqueued);
  std::ostringstream bumped(std::ios::binary);
  io::write_u64(bumped, enqueued + 1);
  image.replace(kEnqueuedAt, 8, bumped.str());

  stream::StreamEngine target(options);
  std::istringstream is(image, std::ios::binary);
  EXPECT_THROW((void)target.restore(is), std::invalid_argument);
  stream::StreamEngine shard_target(options);
  std::istringstream shard_is(image, std::ios::binary);
  EXPECT_THROW((void)shard_target.restore_shard(0, shard_is),
               std::invalid_argument);
}

// A bool byte is 0 or 1. Any other value is corruption, refused rather
// than read as "true" (which would restore, then re-serialize to different
// bytes): both config bools and a recorded decision's accepted byte.
TEST(Checkpoint, RefusesNonCanonicalBoolBytes) {
  stream::EngineOptions options;
  options.machine = kMachine;
  options.scheduler.delta = 0.5;
  options.record_decisions = true;
  stream::StreamEngine source(options);
  (void)source.feed(1, {0, 0.0, 4.0, 1.0, 5.0});
  (void)source.feed(1, {1, 1.0, 3.0, 2.0, 0.5});
  (void)source.close_stream(1);
  std::ostringstream os(std::ios::binary);
  source.checkpoint(os);
  const std::string image = os.str();
  // The image ends with the closed stream's decision log; the last
  // decision is (i64 job, bool accepted, 3 x f64).
  const std::size_t last_accepted_at = image.size() - 3 * 8 - 1;
  ASSERT_EQ(image[kHasDeltaAt], 1);
  ASSERT_EQ(image[kRecordDecisionsAt], 1);

  for (const std::size_t at :
       {kHasDeltaAt, kRecordDecisionsAt, last_accepted_at}) {
    ASSERT_LE(static_cast<unsigned char>(image[at]), 1) << "offset " << at;
    std::string corrupt = image;
    corrupt[at] = 0x02;
    stream::StreamEngine target(options);
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW((void)target.restore(is), std::invalid_argument)
        << "offset " << at;
  }
  stream::StreamEngine target(options);
  std::istringstream is(image, std::ios::binary);
  EXPECT_NO_THROW((void)target.restore(is));
}

// A session blob's clock and retired energy must be finite (the energy also
// nonnegative), and so must every committed load: each of them flows
// straight into planned_energy() and later decisions, so a corrupt value
// is refused on load instead of surfacing as an inf/NaN energy.
TEST(Checkpoint, RefusesNonFiniteEnergyClockAndLoads) {
  PdScheduler source(kMachine, {});
  ASSERT_TRUE(source.on_arrival({0, 0.0, 3.0, 1.5, 5.0}).accepted);
  source.advance_to(0.5);
  const std::string blob = serialize(source);
  // Session blob prefix: m (i64), alpha (f64), delta (f64),
  // record_decisions (bool), first_arrival (bool), then the clock and the
  // retired-energy accumulator (f64 each).
  constexpr std::size_t kLastReleaseAt = 8 * 3 + 1 + 1;
  constexpr std::size_t kRetiredEnergyAt = kLastReleaseAt + 8;
  // The one committed load, found by its bit pattern (unique in the blob).
  const double load = source.assignment().loads(0).front().amount;
  std::ostringstream load_os(std::ios::binary);
  io::write_f64(load_os, load);
  const std::size_t load_at = blob.find(load_os.str());
  ASSERT_NE(load_at, std::string::npos);
  ASSERT_EQ(load_at, blob.rfind(load_os.str()));

  const auto patched = [&](std::size_t at, double v) {
    std::ostringstream os(std::ios::binary);
    io::write_f64(os, v);
    std::string corrupt = blob;
    corrupt.replace(at, 8, os.str());
    return corrupt;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<std::size_t, double>> corruptions = {
      {kLastReleaseAt, util::kInf},   {kLastReleaseAt, nan},
      {kRetiredEnergyAt, util::kInf}, {kRetiredEnergyAt, nan},
      {kRetiredEnergyAt, -1.0},       {load_at, util::kInf},
      {load_at, nan}};
  for (const auto& [at, v] : corruptions) {
    PdScheduler target(kMachine, {});
    std::istringstream is(patched(at, v), std::ios::binary);
    EXPECT_THROW(io::load_scheduler(is, target), std::invalid_argument)
        << "offset " << at << " value " << v;
  }
  // Finite, nonnegative patches still load.
  PdScheduler target(kMachine, {});
  std::istringstream is(patched(kRetiredEnergyAt, 0.5), std::ios::binary);
  io::load_scheduler(is, target);
  EXPECT_EQ(target.retired_energy(), 0.5);
}

// A session blob is canonical: save_scheduler writes each interval's load
// list with one nonzero entry per job (the store never holds a zero) and
// the accepted-id records in strictly ascending id order. A blob that
// names one job twice in an interval would make IntervalStore::set_load
// overwrite the first entry and silently drop a load, so every
// non-canonical list is refused.
TEST(Checkpoint, RefusesDuplicateLoadsAndUnsortedAcceptedIds) {
  PdScheduler source(kMachine, {});
  ASSERT_TRUE(source.on_arrival({0, 0.0, 3.0, 1.5, util::kInf}).accepted);
  ASSERT_TRUE(source.on_arrival({1, 0.0, 4.0, 1.0, util::kInf}).accepted);
  const std::string blob = serialize(source);
  const auto bytes = [](std::int64_t id, double v) {
    std::ostringstream os(std::ios::binary);
    io::write_i64(os, id);
    io::write_f64(os, v);
    return os.str();
  };
  // Finds a byte pattern that occurs exactly once in the blob.
  const auto unique_at = [&](const std::string& pattern) {
    const std::size_t at = blob.find(pattern);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(at, blob.rfind(pattern));
    return at;
  };
  const auto patched = [&](const std::string& from, const std::string& to) {
    std::string corrupt = blob;
    corrupt.replace(unique_at(from), from.size(), to);
    return corrupt;
  };
  // Interval [0, 3) holds both jobs' loads, job 0's first.
  const auto& loads = source.assignment().loads(0);
  ASSERT_EQ(loads.size(), 2u);
  const std::string load0 = bytes(0, loads[0].amount);
  const std::string load1 = bytes(1, loads[1].amount);
  // Accepted-id records: (id, latest deadline), ascending.
  const std::string accepted0 = bytes(0, 3.0);
  const std::string accepted1 = bytes(1, 4.0);
  const std::vector<std::pair<const char*, std::string>> corruptions = {
      {"job 1's load renamed to job 0",
       patched(load0 + load1, load0 + bytes(0, loads[1].amount))},
      {"zero load", patched(load1, bytes(1, 0.0))},
      {"accepted ids swapped",
       patched(accepted0 + accepted1, accepted1 + accepted0)},
      {"accepted id repeated",
       patched(accepted0 + accepted1, accepted0 + bytes(0, 4.0))}};
  ASSERT_FALSE(::testing::Test::HasFailure());
  for (const auto& [what, corrupt] : corruptions) {
    PdScheduler target(kMachine, {});
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW(io::load_scheduler(is, target), std::invalid_argument)
        << what;
  }
  // The canonical blob still loads.
  PdScheduler target(kMachine, {});
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, target);
  EXPECT_EQ(serialize(target), blob);
}

TEST(Checkpoint, FreshSchedulerRoundTrips) {
  PdScheduler a(kMachine, {});
  const std::string blob = serialize(a);
  PdScheduler b(kMachine, {});
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, b);
  ASSERT_EQ(serialize(b), blob);
  const Job job{0, 1.0, 5.0, 1.0, util::kInf};
  expect_decision_eq(a.on_arrival(job), b.on_arrival(job), "first arrival");
}

}  // namespace
}  // namespace pss

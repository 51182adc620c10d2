#include "stream/recovery.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "ingest/op_log.hpp"
#include "stream/engine.hpp"
#include "util/assert.hpp"

namespace pss::stream {

CheckpointCoordinator::CheckpointCoordinator(StreamEngine& engine,
                                             ingest::OpLogWriter& wal,
                                             std::ostream& wal_stream,
                                             io::CheckpointDir& dir)
    : engine_(engine), wal_(wal), wal_stream_(wal_stream), dir_(dir) {}

std::uint64_t CheckpointCoordinator::checkpoint() {
  // Order is the whole point:
  //   1. mark the WAL and make it durable — from here, replay knows where
  //      this checkpoint's coverage ends;
  //   2. publish every shard part stamped with that mark (each part is
  //      individually atomic: temp + fsync + rename);
  //   3. prune, only once the whole new generation is on disk.
  // A crash after 1 is a no-op mark; after any prefix of 2, recovery uses
  // the previous generation for the missing shards.
  ingest::IngestOp mark;
  mark.kind = ingest::OpKind::kCheckpointMark;
  mark.stream = 0;
  wal_.append(mark);
  wal_stream_.flush();
  PSS_CHECK(wal_stream_.good(), "WAL flush failed at checkpoint mark");
  ++marks_;

  const std::uint64_t generation = dir_.next_generation();
  const std::size_t num_shards = engine_.options().num_shards;
  for (std::size_t i = 0; i < num_shards; ++i) {
    std::ostringstream blob;
    engine_.checkpoint_shard(i, blob, marks_);
    dir_.write_part(generation, i, std::move(blob).str());
  }
  if (generation > kKeepGenerations)
    dir_.prune_below(generation - kKeepGenerations + 1);
  return generation;
}

namespace {

// The one op-apply loop. Loads the newest valid part of each shard from
// `dir` (none when dir is null: every shard cold, all marks 0), then
// replays the WAL tail and drains.
RecoveryReport recover(StreamEngine& engine, const io::CheckpointDir* dir,
                       std::istream& wal_stream) {
  const std::size_t num_shards = engine.options().num_shards;
  RecoveryReport report;
  report.shard_generations.assign(num_shards, 0);
  report.shard_marks.assign(num_shards, 0);

  io::CheckpointDirStats dir_stats;
  for (std::size_t i = 0; i < num_shards; ++i) {
    std::string blob;
    std::uint64_t generation = 0;
    if (dir == nullptr || !dir->load_part(i, blob, generation, &dir_stats)) {
      ++report.shards_cold;  // full replay for this shard's streams
      continue;
    }
    std::istringstream in(std::move(blob));
    report.shard_marks[i] = engine.restore_shard(i, in);
    report.shard_generations[i] = generation;
    report.generation = std::max(report.generation, generation);
  }
  report.torn_parts = dir_stats.torn;
  report.crc_bad_parts = dir_stats.crc_bad;

  // Replay the WAL tail. marks_seen counts kCheckpointMark frames; an op
  // belongs to the tail of shard s iff at least shard_marks[s] marks
  // precede it (everything earlier is already inside s's restored image).
  // Mixed generations therefore need no cross-shard coordination: the
  // router pins each stream to one shard, and that shard's mark alone
  // decides replay-vs-skip for the stream's ops.
  ingest::OpLogReader reader(wal_stream);
  ingest::IngestOp op;
  long long marks_seen = 0;
  while (reader.next(op)) {
    ++report.frames_seen;
    if (op.kind == ingest::OpKind::kCheckpointMark) {
      ++marks_seen;
      continue;
    }
    const std::size_t shard = engine.router().shard_of(StreamId(op.stream));
    if (static_cast<std::uint64_t>(marks_seen) < report.shard_marks[shard]) {
      ++report.frames_skipped;
      continue;
    }
    switch (op.kind) {
      case ingest::OpKind::kArrival:
        // Offered once, like live traffic: a shed here is the engine's
        // policy outcome, counted rather than hidden. Bitwise recovery
        // wants the default kBlock configuration with admission_depth 0.
        if (engine.feed(StreamId(op.stream), op.job))
          ++report.frames_replayed;
        else
          ++report.arrival_sheds;
        break;
      case ingest::OpKind::kOpen:
        while (!engine.open(StreamId(op.stream))) std::this_thread::yield();
        ++report.frames_replayed;
        break;
      case ingest::OpKind::kAdvance:
        while (!engine.advance(StreamId(op.stream), op.time))
          std::this_thread::yield();
        ++report.frames_replayed;
        break;
      case ingest::OpKind::kClose:
        while (!engine.close_stream(StreamId(op.stream)))
          std::this_thread::yield();
        ++report.frames_replayed;
        break;
      case ingest::OpKind::kCheckpointMark:
        break;  // handled above
    }
  }
  report.marks_seen = marks_seen;
  report.wal_tail_truncated = reader.tail_truncated();
  engine.drain();
  return report;
}

}  // namespace

RecoveryReport recover_engine(StreamEngine& engine,
                              const io::CheckpointDir& dir,
                              std::istream& wal_stream) {
  return recover(engine, &dir, wal_stream);
}

RecoveryReport replay_op_log(std::istream& is, StreamEngine& engine) {
  return recover(engine, nullptr, is);
}

}  // namespace pss::stream

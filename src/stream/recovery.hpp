// WAL-style crash recovery: checkpoint cadence + op-log tail replay.
//
// The serving stack writes two artifacts with one contract between them:
//
//   * the op log (src/ingest/op_log) is the write-ahead log — every op is
//     appended (and, under drills, flushed) BEFORE it is fed to the engine;
//   * checkpoints (src/io/checkpoint_dir) are cut by the
//     CheckpointCoordinator, which appends a kCheckpointMark frame to the
//     WAL, drains the engine, and publishes one part per shard stamped
//     with the mark COUNT at the cut (wal_mark = M means "this image
//     contains every op that precedes the M-th mark frame").
//
// Those two are the engine's only files: spilled sessions live in memory
// and travel inside the checkpoint parts, and there is no index file next
// to the parts.
//
// Recovery (recover_engine) inverts that: load the newest VALID part of
// each shard independently — a torn or checksum-bad part falls back to an
// older generation of that shard only — then replay the WAL, counting mark
// frames and applying an op iff marks_seen >= wal_mark of its stream's
// shard. Streams are pinned to shards by the router, so shards restored
// from *different* generations just replay tails of different lengths; the
// recovered engine is bitwise identical (decisions, energies) to one that
// never crashed. A torn final WAL frame (the crash was mid-append) ends
// the replay cleanly; the op it tore was never fed anywhere.
//
// Op-log replay (replay_op_log) is the same loop with no checkpoint: every
// shard starts cold (all marks 0), so every op is applied and the mark
// frames are counted and skipped. Because the engine is bitwise
// deterministic per stream, a replay under the same scheduler options
// yields the decisions, counters and energies of the run that wrote the
// log — the property `pss_cli replay` and the ingest tests pin.
//
// Control ops (open/advance/close) are retried until the ring takes them:
// shedding a close would silently drop a stream's result. Arrivals are
// offered once; a shed (admission_depth or kReject backpressure) is
// counted in arrival_sheds, not hidden. Bitwise replay and recovery
// therefore want the default kBlock configuration with admission_depth 0.
//
// Crash windows, and why each is safe:
//   mid-append            -> torn WAL tail, op never fed: dropped cleanly.
//   after mark, mid-part  -> torn part skipped; shard falls back a
//                            generation and replays a longer tail. The
//                            extra mark frame replays as a no-op.
//   between part renames  -> load_part scans the directory per shard, so
//                            the shards already published use the new
//                            generation and the rest the previous one.
//
// Thread contract: coordinator and recovery are owner-thread constructs
// (they drain and restore, same as checkpoint()/restore()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "io/checkpoint_dir.hpp"

namespace pss::ingest {
class OpLogWriter;
}

namespace pss::stream {

class StreamEngine;

/// Cuts crash-consistent checkpoints of a serving engine against its WAL.
/// The caller owns both: the engine must have been fed exactly the ops
/// appended to `wal` so far (log-then-feed), and `wal_stream` must be the
/// stream `wal` writes through (flushed here so the mark is durable before
/// any part is). The WAL must start empty: mark counting starts at 0.
class CheckpointCoordinator {
 public:
  /// Checkpoint generations left on disk after each checkpoint: the newest
  /// plus one fallback for a torn newest part.
  static constexpr std::uint64_t kKeepGenerations = 2;

  CheckpointCoordinator(StreamEngine& engine, ingest::OpLogWriter& wal,
                        std::ostream& wal_stream, io::CheckpointDir& dir);

  /// Appends a checkpoint mark to the WAL, drains the engine, publishes
  /// one part per shard under a fresh generation and prunes every
  /// generation older than the newest kKeepGenerations. Returns the
  /// generation written. Refuses (by propagation) whenever
  /// checkpoint_shard would: quiesce timeout, quarantined shard.
  std::uint64_t checkpoint();

  /// Mark frames this coordinator believes are in the WAL.
  [[nodiscard]] std::uint64_t marks_written() const { return marks_; }

 private:
  StreamEngine& engine_;
  ingest::OpLogWriter& wal_;
  std::ostream& wal_stream_;
  io::CheckpointDir& dir_;
  std::uint64_t marks_ = 0;
};

/// What recover_engine did, for operators and drills.
struct RecoveryReport {
  /// Newest generation any shard restored from (0 = all cold).
  std::uint64_t generation = 0;
  /// Per shard: the generation its part came from (0 = cold start) and the
  /// wal_mark it resumes replay from.
  std::vector<std::uint64_t> shard_generations;
  std::vector<std::uint64_t> shard_marks;
  std::size_t shards_cold = 0;     // shards with no valid part on disk
  long long frames_seen = 0;       // WAL frames decoded
  long long frames_replayed = 0;   // ops applied to the engine
  long long frames_skipped = 0;    // ops already inside a shard's image
  long long arrival_sheds = 0;     // arrivals refused during replay
  long long marks_seen = 0;        // checkpoint marks in the WAL
  long long torn_parts = 0;        // checkpoint candidates skipped: torn
  long long crc_bad_parts = 0;     // checkpoint candidates skipped: CRC
  bool wal_tail_truncated = false; // WAL ended in a torn frame (expected)
};

/// Restores `engine` (freshly constructed, compatible options) from the
/// newest valid per-shard checkpoints in `dir` plus the WAL tail on
/// `wal_stream`, then drains. Missing/unusable parts cold-start their
/// shard (full replay for its streams); corruption mid-WAL (not a torn
/// tail) still throws std::invalid_argument.
///
/// Spilled sessions need nothing on disk: checkpoint images carry their
/// blobs, and the recovering engine re-applies its own spill budget.
RecoveryReport recover_engine(StreamEngine& engine,
                              const io::CheckpointDir& dir,
                              std::istream& wal_stream);

/// Replays the op log on `is` into `engine`, then drains: recover_engine
/// with every shard cold. The report equals recover_engine's over an empty
/// CheckpointDir. A torn final frame ends
/// the replay cleanly with wal_tail_truncated set; a malformed *complete*
/// frame throws std::invalid_argument after the well-formed prefix has
/// been applied.
RecoveryReport replay_op_log(std::istream& is, StreamEngine& engine);

}  // namespace pss::stream

// Versioned binary op-log wire format: the replayable ingest front door.
//
// An op log is the serialized form of the engine's ingestion stream — the
// exact sequence of open/arrival/advance/close ops a producer would issue,
// in issue order. Because the serving engine is deterministic per stream
// (bitwise so, across shard and producer counts), a log captured once
// replays to bitwise-identical decisions and energies: the log IS the
// workload, storable, diffable, and shippable across machines.
//
// Layout (all integers little-endian fixed-width, floats as IEEE-754 bits;
// the src/io/state_io primitives):
//
//   file   := [u64 magic "PSSOPLG1"] frame*
//   frame  := [u8 0xF5] [u64 body_len] [body: body_len bytes] [u64 crc32]
//   body   := [u8 kind] [u64 stream] payload(kind)
//
//   payload(kArrival)      := [i64 job id] [f64 release] [f64 deadline]
//                             [f64 work] [f64 value]
//   payload(kAdvance)      := [f64 time]
//   payload(kOpen | kClose | kCheckpointMark) := (empty)
//
// Every frame carries its own CRC-32 (io::crc32, over the body
// bytes), so truncation, bit rot and splices are caught per frame. Two
// defect classes get different treatment, because a crash leaves a
// byte-prefix of a valid log and nothing else:
//
//   * a SHORT final frame (the writer was killed mid-append) is the
//     expected shape of a crashed log — next() returns false and sets
//     tail_truncated(), so recovery replays everything before the tear;
//   * a COMPLETE field with a wrong value — bad frame magic, absurd
//     length, CRC mismatch, unknown kind — cannot be produced by a kill
//     and stays std::invalid_argument naming the defect, so corruption is
//     never silently fed to a session. body_len is guarded against absurd
//     values *before* any allocation.
//
// kCheckpointMark records "a checkpoint was cut here" so a replay harness
// can reproduce checkpoint/restore splits byte-for-byte; stream/recovery
// counts marks to find the replay resume point.
//
// Thread contract: a writer or reader belongs to one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "model/job.hpp"

namespace pss::ingest {

enum class OpKind : std::uint8_t {
  kOpen = 0,
  kArrival = 1,
  kAdvance = 2,
  kClose = 3,
  kCheckpointMark = 4,
};

/// One ingestion op. `stream` is the raw u64 stream id (this header stays
/// below src/stream in the layering); `time` is the kAdvance target; `job`
/// is the kArrival payload. Unused fields are ignored per kind.
struct IngestOp {
  OpKind kind = OpKind::kArrival;
  std::uint64_t stream = 0;
  double time = 0.0;
  model::Job job{};
};

class OpLogWriter {
 public:
  /// Stamps the file header. The stream must outlive the writer.
  explicit OpLogWriter(std::ostream& os);

  /// Appends one framed op.
  void append(const IngestOp& op);

  [[nodiscard]] long long frames_written() const { return frames_; }

 private:
  std::ostream& os_;
  std::string body_;  // scratch frame body, reused across appends
  long long frames_ = 0;
};

class OpLogReader {
 public:
  /// Validates the file header (throws std::invalid_argument on a bad
  /// magic). The stream must outlive the reader.
  explicit OpLogReader(std::istream& is);

  /// Reads the next frame into `op`. Returns false at end-of-log — either
  /// a clean EOF or a truncated final frame (see tail_truncated()).
  /// Throws std::invalid_argument on a malformed *complete* frame — bad
  /// frame magic, implausible length, CRC mismatch, unknown op kind,
  /// payload/kind size mismatch.
  bool next(IngestOp& op);

  /// True iff the log ended in a partially-written frame (writer killed
  /// mid-append). Everything next() returned before that is intact.
  [[nodiscard]] bool tail_truncated() const { return truncated_; }

  [[nodiscard]] long long frames_read() const { return frames_; }

 private:
  /// Reads exactly `len` bytes, or flags the truncated tail and fails.
  bool try_read(char* dst, std::size_t len);

  std::istream& is_;
  std::string body_;  // scratch, reused across frames
  long long frames_ = 0;
  bool truncated_ = false;
};

}  // namespace pss::ingest

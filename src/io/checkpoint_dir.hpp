// Crash-consistent checkpoint storage: atomic generations on disk.
//
// A checkpoint that can be torn by a kill is worse than none — a restore
// that trusts a half-written blob rebuilds garbage state. This module makes
// the on-disk checkpoint lifecycle atomic per file and self-validating per
// read, so a kill at ANY byte leaves a valid last-good checkpoint:
//
//   * every blob ("part" — one per engine shard) is written to a temp name,
//     fsync'd, then renamed into place (rename is atomic on POSIX), and the
//     directory is fsync'd so the rename itself survives a power cut;
//   * every part file frames its payload with magic, generation, part
//     index, length and a CRC-32, so truncation, bit rot and splices are
//     detected on read — a bad candidate is *skipped* (tallied in
//     CheckpointDirStats), never fatal, and the loader falls back to the
//     next-older generation of that part;
//   * there is no index file: load_part scans the directory and takes the
//     newest valid candidate, so the part files are the whole on-disk
//     state and a crash between two part renames loses nothing.
//
// Layout inside the directory:
//   g<generation 8 digits>_p<part 3 digits>.pssc   — framed checkpoint blob
//   *.tmp                                          — torn writes (ignored)
//
// Part file := [u64 magic "PSSCKPF1"] [u64 generation] [u64 part]
//              [u64 body_len] [body] [u64 crc32(body)]
//
// Thread contract: one writer at a time; readers may race writers (they
// only ever see fully-renamed files plus possibly-torn leftovers, which
// validation skips).
#pragma once

#include <cstdint>
#include <string>

namespace pss::io {

/// What load_part skipped while hunting for a valid candidate.
struct CheckpointDirStats {
  long long torn = 0;     // short file / truncated frame / length past EOF
  long long crc_bad = 0;  // full frame, checksum or header mismatch
};

class CheckpointDir {
 public:
  /// Creates the directory (and parents) if needed; adopts existing files.
  explicit CheckpointDir(std::string path);

  [[nodiscard]] const std::string& path() const { return path_; }

  /// 1 + the newest generation any part file on disk claims (torn files
  /// count: a new write must never collide with a torn predecessor).
  [[nodiscard]] std::uint64_t next_generation() const;

  /// Atomically publishes `blob` as (generation, part): temp write, fsync,
  /// rename, directory fsync. Fault sites: "ckpt.part.body" (tears the
  /// body mid-write), "ckpt.part.rename" (kill after the temp file is
  /// complete but before it is published).
  void write_part(std::uint64_t generation, std::uint64_t part,
                  const std::string& blob);

  /// Loads the newest valid blob for `part` into `blob`, reporting its
  /// generation. Torn/CRC-bad candidates are skipped and tallied into
  /// `stats` (if given). Returns false when no valid candidate exists.
  bool load_part(std::uint64_t part, std::string& blob,
                 std::uint64_t& generation,
                 CheckpointDirStats* stats = nullptr) const;

  /// Removes every part file (and temp leftover) of generations strictly
  /// below `keep_from` — the retention policy after a checkpoint.
  void prune_below(std::uint64_t keep_from);

 private:
  [[nodiscard]] std::string part_path(std::uint64_t generation,
                                      std::uint64_t part) const;

  std::string path_;
};

}  // namespace pss::io

#include "io/checkpoint_dir.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::io {

namespace {

// "PSSCKPF1" as a little-endian u64 — version byte last.
constexpr std::uint64_t kPartMagic = 0x3146504B43535350ull;
// Frame bytes around the body: four u64 header fields and the u64 CRC.
constexpr std::uint64_t kHeaderBytes = 4 * 8;
constexpr std::uint64_t kCrcBytes = 8;

// Durability primitive: fsync by path. A rename is only crash-safe once
// both the file's bytes and the directory entry are on stable storage.
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(),
                        directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return;  // best effort: e.g. a filesystem without dir fds
  ::fsync(fd);
  ::close(fd);
}

std::uint32_t crc_of(const std::string& bytes) {
  return crc32(reinterpret_cast<const unsigned char*>(bytes.data()),
               bytes.size());
}

// Parses "g<gen>_p<part>.pssc"; returns false for anything else.
bool parse_part_name(const std::string& name, std::uint64_t& generation,
                     std::uint64_t& part) {
  unsigned long long g = 0, p = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "g%llu_p%llu.pssc%n", &g, &p, &consumed) != 2)
    return false;
  if (consumed != static_cast<int>(name.size())) return false;
  generation = g;
  part = p;
  return true;
}

std::string format_part_name(std::uint64_t generation, std::uint64_t part) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "g%08llu_p%03llu.pssc",
                static_cast<unsigned long long>(generation),
                static_cast<unsigned long long>(part));
  return buf;
}

}  // namespace

CheckpointDir::CheckpointDir(std::string path) : path_(std::move(path)) {
  PSS_REQUIRE(!path_.empty(), "checkpoint dir needs a path");
  std::filesystem::create_directories(path_);
}

std::string CheckpointDir::part_path(std::uint64_t generation,
                                     std::uint64_t part) const {
  return path_ + "/" + format_part_name(generation, part);
}

std::uint64_t CheckpointDir::next_generation() const {
  std::uint64_t newest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::string name = entry.path().filename().string();
    // A torn temp write still reserves its generation: "g...pssc.tmp".
    const std::string tmp_suffix = ".tmp";
    if (name.size() > tmp_suffix.size() &&
        name.compare(name.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0)
      name.resize(name.size() - tmp_suffix.size());
    std::uint64_t generation = 0, part = 0;
    if (parse_part_name(name, generation, part))
      newest = std::max(newest, generation);
  }
  return newest + 1;
}

void CheckpointDir::write_part(std::uint64_t generation, std::uint64_t part,
                               const std::string& blob) {
  const std::string final_path = part_path(generation, part);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    PSS_CHECK(out.good(), "checkpoint temp open failed: " + tmp_path);
    write_u64(out, kPartMagic);
    write_u64(out, generation);
    write_u64(out, part);
    write_u64(out, blob.size());
    // Body in two halves around the tear site, so a drill can leave a
    // deterministically-truncated temp file exactly where a kill would.
    const std::size_t half = blob.size() / 2;
    out.write(blob.data(), static_cast<std::streamsize>(half));
    out.flush();
    PSS_FAULT_POINT("ckpt.part.body");
    out.write(blob.data() + half,
              static_cast<std::streamsize>(blob.size() - half));
    const std::uint32_t crc = crc_of(blob);
    write_u64(out, crc);
    out.flush();
    PSS_CHECK(out.good(), "checkpoint temp write failed: " + tmp_path);
  }
  fsync_path(tmp_path, /*directory=*/false);
  PSS_FAULT_POINT("ckpt.part.rename");
  std::filesystem::rename(tmp_path, final_path);
  fsync_path(path_, /*directory=*/true);
}

bool CheckpointDir::load_part(std::uint64_t part, std::string& blob,
                              std::uint64_t& generation,
                              CheckpointDirStats* stats) const {
  // Candidate generations for this part, newest first.
  std::vector<std::uint64_t> candidates;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::uint64_t g = 0, p = 0;
    if (parse_part_name(entry.path().filename().string(), g, p) && p == part)
      candidates.push_back(g);
  }
  std::sort(candidates.rbegin(), candidates.rend());
  for (std::uint64_t g : candidates) {
    const std::string file = part_path(g, part);
    std::error_code size_error;
    const std::uint64_t file_size =
        std::filesystem::file_size(file, size_error);
    std::ifstream in(file, std::ios::binary);
    if (size_error || !in.good()) continue;
    try {
      if (read_u64(in) != kPartMagic || read_u64(in) != g ||
          read_u64(in) != part) {
        if (stats != nullptr) ++stats->crc_bad;
        continue;
      }
      // Checked against the bytes the file actually holds *before* the
      // allocation: a flipped length bit must make a torn candidate, not a
      // std::bad_alloc that aborts the fallback to an older generation.
      const std::uint64_t body_len = read_u64(in);
      PSS_REQUIRE(file_size >= kHeaderBytes + kCrcBytes &&
                      body_len <= file_size - kHeaderBytes - kCrcBytes,
                  "checkpoint length runs past the end of the file");
      std::string body(body_len, '\0');
      in.read(body.data(), static_cast<std::streamsize>(body_len));
      PSS_REQUIRE(static_cast<std::uint64_t>(in.gcount()) == body_len,
                  "truncated checkpoint body");
      const std::uint64_t crc = read_u64(in);
      if (crc != crc_of(body)) {
        if (stats != nullptr) ++stats->crc_bad;
        continue;
      }
      blob = std::move(body);
      generation = g;
      return true;
    } catch (const std::invalid_argument&) {
      if (stats != nullptr) ++stats->torn;  // short read: torn candidate
      continue;
    }
  }
  return false;
}

void CheckpointDir::prune_below(std::uint64_t keep_from) {
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::string name = entry.path().filename().string();
    const std::string tmp_suffix = ".tmp";
    if (name.size() > tmp_suffix.size() &&
        name.compare(name.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0)
      name.resize(name.size() - tmp_suffix.size());
    std::uint64_t g = 0, p = 0;
    if (parse_part_name(name, g, p) && g < keep_from)
      doomed.push_back(entry.path());
  }
  for (const auto& path : doomed) std::filesystem::remove(path);
}

}  // namespace pss::io

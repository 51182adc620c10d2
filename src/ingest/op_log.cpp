#include "ingest/op_log.hpp"

#include <istream>
#include <ostream>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::ingest {

namespace {

// "PSSOPLG1" as a little-endian u64 — version byte last.
constexpr std::uint64_t kOpLogMagic = 0x31474C504F535350ull;
constexpr unsigned char kFrameMagic = 0xF5;
// Largest legal body: kind + stream + the arrival payload. Anything bigger
// is a corrupt length field and must be refused before allocation.
constexpr std::uint64_t kMaxBody = 4096;

constexpr std::size_t kBaseSize = 1 + 8;            // kind + stream
constexpr std::size_t kArrivalSize = kBaseSize + 40;  // id + 4 doubles
constexpr std::size_t kAdvanceSize = kBaseSize + 8;   // time

unsigned char* buf(std::string& s, std::size_t at) {
  return reinterpret_cast<unsigned char*>(s.data()) + at;
}

}  // namespace

// ----------------------------------------------------------------- writer

OpLogWriter::OpLogWriter(std::ostream& os) : os_(os) {
  io::write_u64(os_, kOpLogMagic);
}

void OpLogWriter::append(const IngestOp& op) {
  switch (op.kind) {
    case OpKind::kArrival:
      body_.resize(kArrivalSize);
      break;
    case OpKind::kAdvance:
      body_.resize(kAdvanceSize);
      break;
    case OpKind::kOpen:
    case OpKind::kClose:
    case OpKind::kCheckpointMark:
      body_.resize(kBaseSize);
      break;
    default:
      PSS_REQUIRE(false, "op log: unknown op kind");
  }
  body_[0] = static_cast<char>(op.kind);
  io::store_u64(buf(body_, 1), op.stream);
  if (op.kind == OpKind::kArrival) {
    io::store_u64(buf(body_, 9),
                  static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(op.job.id)));
    io::store_f64(buf(body_, 17), op.job.release);
    io::store_f64(buf(body_, 25), op.job.deadline);
    io::store_f64(buf(body_, 33), op.job.work);
    io::store_f64(buf(body_, 41), op.job.value);
  } else if (op.kind == OpKind::kAdvance) {
    io::store_f64(buf(body_, 9), op.time);
  }
  io::write_u8(os_, kFrameMagic);
  io::write_u64(os_, body_.size());
  // Body in two halves around the tear site, so a crash drill leaves a
  // deterministically-truncated final frame — the case the reader's
  // tail_truncated() contract exists for.
  const std::size_t half = body_.size() / 2;
  os_.write(body_.data(), static_cast<std::streamsize>(half));
  if (util::FaultInjector::instance().enabled()) os_.flush();
  PSS_FAULT_POINT("wal.append");
  os_.write(body_.data() + half,
            static_cast<std::streamsize>(body_.size() - half));
  PSS_CHECK(os_.good(), "op log: write failed");
  io::write_u64(os_, io::crc32(buf(body_, 0), body_.size()));
  ++frames_;
}

// ----------------------------------------------------------------- reader

OpLogReader::OpLogReader(std::istream& is) : is_(is) {
  PSS_REQUIRE(io::read_u64(is_) == kOpLogMagic,
              "op log: bad file magic/version");
}

bool OpLogReader::try_read(char* dst, std::size_t len) {
  is_.read(dst, static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(is_.gcount()) == len) return true;
  // Short read past the first byte of a frame: the writer was killed
  // mid-append. That tail is unrecoverable but *expected* — flag it and
  // end the log cleanly rather than throwing.
  truncated_ = true;
  return false;
}

bool OpLogReader::next(IngestOp& op) {
  PSS_CHECK(!truncated_, "op log: read past a truncated tail");
  if (is_.peek() == std::istream::traits_type::eof()) return false;
  // From here every short read means a torn final frame (a crash leaves a
  // byte-prefix of a valid log). A *complete* field with a wrong value —
  // bad magic, absurd length, CRC mismatch, unknown kind — can only come
  // from corruption or a splice, and stays a hard error.
  PSS_REQUIRE(io::read_u8(is_) == kFrameMagic, "op log: bad frame magic");
  char len_bytes[8];
  if (!try_read(len_bytes, 8)) return false;
  const std::uint64_t body_len =
      io::fetch_u64(reinterpret_cast<const unsigned char*>(len_bytes));
  PSS_REQUIRE(body_len >= kBaseSize && body_len <= kMaxBody,
              "op log: implausible frame length");
  body_.resize(body_len);
  if (!try_read(body_.data(), body_len)) return false;
  char crc_bytes[8];
  if (!try_read(crc_bytes, 8)) return false;
  const std::uint64_t stored_crc =
      io::fetch_u64(reinterpret_cast<const unsigned char*>(crc_bytes));
  PSS_REQUIRE(stored_crc == io::crc32(buf(body_, 0), body_len),
              "op log: frame checksum mismatch");

  const auto kind_byte = static_cast<std::uint8_t>(body_[0]);
  PSS_REQUIRE(kind_byte <= static_cast<std::uint8_t>(OpKind::kCheckpointMark),
              "op log: unknown op kind");
  op = IngestOp{};
  op.kind = static_cast<OpKind>(kind_byte);
  op.stream = io::fetch_u64(buf(body_, 1));
  switch (op.kind) {
    case OpKind::kArrival:
      PSS_REQUIRE(body_len == kArrivalSize, "op log: bad arrival payload");
      op.job.id = static_cast<model::JobId>(
          static_cast<std::int64_t>(io::fetch_u64(buf(body_, 9))));
      op.job.release = io::fetch_f64(buf(body_, 17));
      op.job.deadline = io::fetch_f64(buf(body_, 25));
      op.job.work = io::fetch_f64(buf(body_, 33));
      op.job.value = io::fetch_f64(buf(body_, 41));
      break;
    case OpKind::kAdvance:
      PSS_REQUIRE(body_len == kAdvanceSize, "op log: bad advance payload");
      op.time = io::fetch_f64(buf(body_, 9));
      break;
    case OpKind::kOpen:
    case OpKind::kClose:
    case OpKind::kCheckpointMark:
      PSS_REQUIRE(body_len == kBaseSize, "op log: bad control payload");
      break;
  }
  ++frames_;
  return true;
}

}  // namespace pss::ingest

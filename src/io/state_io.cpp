#include "io/state_io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "util/assert.hpp"

namespace pss::io {

void write_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

void write_u64(std::ostream& os, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(b, 8);
}

void write_i64(std::ostream& os, std::int64_t v) {
  write_u64(os, static_cast<std::uint64_t>(v));
}

void write_f64(std::ostream& os, double v) {
  write_u64(os, std::bit_cast<std::uint64_t>(v));
}

std::uint8_t read_u8(std::istream& is) {
  const int c = is.get();
  PSS_REQUIRE(c != std::char_traits<char>::eof(), "truncated checkpoint");
  return static_cast<std::uint8_t>(c);
}

std::uint64_t read_u64(std::istream& is) {
  char b[8];
  is.read(b, 8);
  PSS_REQUIRE(is.gcount() == 8, "truncated checkpoint");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= std::uint64_t(static_cast<unsigned char>(b[i])) << (8 * i);
  return v;
}

std::int64_t read_i64(std::istream& is) {
  return static_cast<std::int64_t>(read_u64(is));
}

double read_f64(std::istream& is) {
  return std::bit_cast<double>(read_u64(is));
}

void store_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
}

std::uint64_t fetch_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
  return v;
}

void store_f64(unsigned char* p, double v) {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}

double fetch_f64(const unsigned char* p) {
  return std::bit_cast<double>(fetch_u64(p));
}

std::uint32_t crc32(const unsigned char* data, std::size_t len) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void write_bool(std::ostream& os, bool v) { write_u8(os, v ? 1 : 0); }

bool read_bool(std::istream& is) {
  const std::uint8_t v = read_u8(is);
  PSS_REQUIRE(v <= 1, "corrupt checkpoint: bad bool");
  return v != 0;
}

std::uint64_t read_count(std::istream& is) {
  const std::uint64_t n = read_u64(is);
  PSS_REQUIRE(n <= (std::uint64_t(1) << 40), "corrupt checkpoint: count");
  return n;
}

void save_decisions(std::ostream& os, const DecisionLog& decisions) {
  write_u64(os, decisions.size());
  for (const auto& [id, d] : decisions) {
    write_i64(os, id);
    write_bool(os, d.accepted);
    write_f64(os, d.speed);
    write_f64(os, d.lambda);
    write_f64(os, d.planned_energy);
  }
}

void load_decisions(std::istream& is, DecisionLog& decisions) {
  decisions.resize(read_count(is));
  for (auto& [id, d] : decisions) {
    id = static_cast<model::JobId>(read_i64(is));
    d.accepted = read_bool(is);
    d.speed = read_f64(is);
    d.lambda = read_f64(is);
    d.planned_energy = read_f64(is);
  }
}

// Both codecs walk the counter reflection table (core/pd_scheduler.hpp):
// wire order is table order, so a counter added with its table row is
// checkpointed automatically, and one added without a row fails the
// coverage test in tests/test_core.cpp before it can vanish from here.
void save_counters(std::ostream& os, const core::PdCounters& c) {
  for (const core::PdCounterField& f : core::kPdCounterFields) {
    if (f.kind == core::PdCounterField::Kind::kAdd)
      write_i64(os, c.*(f.count));
    else
      write_u64(os, c.*(f.mark));
  }
}

void load_counters(std::istream& is, core::PdCounters& c) {
  for (const core::PdCounterField& f : core::kPdCounterFields) {
    if (f.kind == core::PdCounterField::Kind::kAdd)
      c.*(f.count) = read_i64(is);
    else
      c.*(f.mark) = static_cast<std::size_t>(read_u64(is));
  }
}

namespace {

void save_loads(std::ostream& os, const std::vector<model::Load>& loads) {
  write_u64(os, loads.size());
  for (const model::Load& l : loads) {
    write_i64(os, l.job);
    write_f64(os, l.amount);
  }
}

}  // namespace

void save_scheduler(std::ostream& os, const core::PdScheduler& s) {
  // Configuration fingerprint: a restore target must be an identically
  // configured scheduler, or the replayed state would mean something else.
  write_i64(os, s.machine_.num_processors);
  write_f64(os, s.machine_.alpha);
  write_f64(os, s.delta_);
  write_bool(os, s.record_decisions_);

  write_bool(os, s.first_arrival_);
  write_f64(os, s.last_release_);
  write_f64(os, s.retired_energy_);
  write_i64(os, s.state_.interval_splits);
  write_i64(os, s.state_.horizon_extensions);

  // Partition boundaries in time order, then per-interval loads in the
  // same order. Load vectors keep their in-interval order (commit order) —
  // interval_energy sums them left to right, so order is part of the
  // bitwise contract.
  const model::IntervalStore& store = s.state_.store;
  const std::size_t nb = store.num_boundaries();
  write_u64(os, nb);
  if (nb > 0) {
    write_f64(os, store.front_boundary());
    for (auto h = store.front_handle(); h != model::IntervalStore::kNoHandle;
         h = store.next_handle(h))
      write_f64(os, store.end_of(h));
  }
  write_u64(os, store.num_intervals());
  for (auto h = store.front_handle(); h != model::IntervalStore::kNoHandle;
       h = store.next_handle(h))
    save_loads(os, store.loads(h));

  // Accepted-id records in ascending id order (deterministic bytes).
  std::vector<std::pair<model::JobId, double>> accepted(
      s.accepted_ids_.begin(), s.accepted_ids_.end());
  std::sort(accepted.begin(), accepted.end());
  write_u64(os, accepted.size());
  for (const auto& [id, deadline] : accepted) {
    write_i64(os, id);
    write_f64(os, deadline);
  }

  save_decisions(os, s.decisions_);

  save_counters(os, s.counters_);
}

void load_scheduler(std::istream& is, core::PdScheduler& s) {
  PSS_REQUIRE(read_i64(is) == s.machine_.num_processors,
              "checkpoint machine mismatch");
  PSS_REQUIRE(read_f64(is) == s.machine_.alpha, "checkpoint alpha mismatch");
  PSS_REQUIRE(read_f64(is) == s.delta_, "checkpoint delta mismatch");
  PSS_REQUIRE(read_bool(is) == s.record_decisions_,
              "checkpoint record_decisions mismatch");

  s.reset();
  s.first_arrival_ = read_bool(is);
  s.last_release_ = read_f64(is);
  PSS_REQUIRE(std::isfinite(s.last_release_),
              "corrupt checkpoint: non-finite clock");
  s.retired_energy_ = read_f64(is);
  PSS_REQUIRE(std::isfinite(s.retired_energy_) && s.retired_energy_ >= 0.0,
              "corrupt checkpoint: retired energy");
  const std::int64_t splits = read_i64(is);
  const std::int64_t extensions = read_i64(is);

  // Rebuild the partition through the live refinement path (left to right:
  // one bootstrap, then appends), so the restored structure is exactly
  // what the online code would have built from these boundaries. The
  // counters it bumps along the way are overwritten below.
  const std::uint64_t nb = read_count(is);
  double prev = 0.0;
  for (std::uint64_t i = 0; i < nb; ++i) {
    const double b = read_f64(is);
    PSS_REQUIRE(i == 0 || b > prev, "corrupt checkpoint: boundaries");
    prev = b;
    s.state_.ensure_boundary(b);
  }
  const std::uint64_t ni = read_count(is);
  PSS_REQUIRE(ni == s.state_.num_intervals(),
              "corrupt checkpoint: interval count");
  // Each load list is canonical — one nonzero entry per job — so every
  // entry must grow the (freshly empty) interval's list by one: a repeated
  // job would overwrite its first load and a zero would write nothing.
  auto h = s.state_.store.front_handle();
  for (std::uint64_t k = 0; k < ni; ++k, h = s.state_.store.next_handle(h)) {
    const std::uint64_t nl = read_count(is);
    for (std::uint64_t j = 0; j < nl; ++j) {
      const auto job = static_cast<model::JobId>(read_i64(is));
      const double amount = read_f64(is);
      s.state_.store.set_load(h, job, amount);
      PSS_REQUIRE(s.state_.store.loads(h).size() == j + 1,
                  "corrupt checkpoint: repeated or zero load");
    }
  }
  s.state_.interval_splits = splits;
  s.state_.horizon_extensions = extensions;

  // Accepted-id records were written in strictly ascending id order.
  const std::uint64_t na = read_count(is);
  model::JobId prev_id = 0;
  for (std::uint64_t i = 0; i < na; ++i) {
    const auto id = static_cast<model::JobId>(read_i64(is));
    PSS_REQUIRE(i == 0 || id > prev_id,
                "corrupt checkpoint: accepted ids out of order");
    prev_id = id;
    s.accepted_ids_[id] = read_f64(is);
  }

  load_decisions(is, s.decisions_);
  load_counters(is, s.counters_);
}

}  // namespace pss::io

#include "stream/session_table.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::stream {

std::unique_ptr<core::PdScheduler> SessionTable::recycled_scheduler() {
  if (!free_.empty()) {
    std::unique_ptr<core::PdScheduler> scheduler = std::move(free_.back());
    free_.pop_back();
    return scheduler;
  }
  return std::make_unique<core::PdScheduler>(machine_, options_);
}

void SessionTable::evict_to_budget() {
  if (spill_.max_resident == 0) return;
  while (open_.size() > spill_.max_resident && open_.size() > 1) {
    const StreamId victim = lru_.back();  // coldest resident
    auto it = open_.find(victim);
    PSS_CHECK(it != open_.end(), "lru/table desync");
    std::ostringstream blob;
    io::save_scheduler(blob, *it->second.scheduler);
    spilled_.emplace(victim, std::move(blob).str());
    ++spills_;
    it->second.scheduler->reset();
    free_.push_back(std::move(it->second.scheduler));
    lru_.pop_back();
    open_.erase(it);
  }
}

core::PdScheduler& SessionTable::session(StreamId id) {
  auto it = open_.find(id);
  if (it != open_.end()) {
    // Touch: move to the LRU front so the budget evicts someone colder.
    if (spill_.max_resident != 0 && it->second.lru != lru_.begin())
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    return *it->second.scheduler;
  }
  std::unique_ptr<core::PdScheduler> scheduler = recycled_scheduler();
  auto spilled = spilled_.find(id);
  if (spilled != spilled_.end()) {
    std::istringstream in(std::move(spilled->second));
    try {
      PSS_FAULT_POINT("spill.restore");
      io::load_scheduler(in, *scheduler);
    } catch (const std::exception&) {
      // Serving this stream from a fresh scheduler would silently fork its
      // history. Keep the blob spilled, count the failure and let the
      // caller's per-op containment shed the op; the next touch retries.
      spilled->second = std::move(in).str();
      ++spill_errors_;
      scheduler->reset();
      free_.push_back(std::move(scheduler));
      throw;
    }
    spilled_.erase(spilled);
    ++spill_restores_;
  }
  lru_.push_front(id);
  core::PdScheduler& ref =
      *open_.emplace(id, Resident{std::move(scheduler), lru_.begin()})
           .first->second.scheduler;
  evict_to_budget();
  return ref;
}

void SessionTable::open(StreamId id) { session(id); }

core::ArrivalDecision SessionTable::feed(StreamId id, const model::Job& job) {
  return session(id).on_arrival(job);
}

bool SessionTable::advance(StreamId id, double t) {
  core::PdScheduler& scheduler = session(id);
  try {
    scheduler.advance_to(t, /*compact=*/true);
  } catch (const std::invalid_argument&) {
    return false;  // precondition violation: this op only; session serves on
  }
  return true;
}

const StreamResult* SessionTable::close(StreamId id) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    if (spilled_.count(id) == 0) return nullptr;
    session(id);  // restore the spilled session so it can be finalized
    it = open_.find(id);
    PSS_CHECK(it != open_.end(), "restored session missing");
  }
  core::PdScheduler& scheduler = *it->second.scheduler;
  StreamResult result;
  result.id = id;
  result.counters = scheduler.counters();
  result.planned_energy = scheduler.planned_energy();
  if (record_decisions_) result.decisions = scheduler.decisions();
  completed_.push_back(std::move(result));
  ++num_closed_;
  scheduler.reset();
  free_.push_back(std::move(it->second.scheduler));
  lru_.erase(it->second.lru);
  open_.erase(it);
  return &completed_.back();
}

void SessionTable::checkpoint(std::ostream& os) const {
  // One sorted id walk over residents and spilled sessions together. A
  // spilled blob *is* a save_scheduler image, and identical state serializes
  // to identical bytes, so writing spilled blobs verbatim keeps the format —
  // and the checkpoint bytes — independent of what happened to be resident.
  std::vector<StreamId> ids;
  ids.reserve(num_open());
  for (const auto& [id, resident] : open_) ids.push_back(id);
  for (const auto& [id, blob] : spilled_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  io::write_u64(os, ids.size());
  for (StreamId id : ids) {
    io::write_u64(os, id);
    auto it = open_.find(id);
    if (it != open_.end()) {
      io::save_scheduler(os, *it->second.scheduler);
    } else {
      const std::string& blob = spilled_.at(id);
      os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
  }
  io::write_i64(os, num_closed_);
  io::write_u64(os, completed_.size());
  for (const StreamResult& r : completed_) {
    io::write_u64(os, r.id);
    io::save_counters(os, r.counters);
    io::write_f64(os, r.planned_energy);
    io::save_decisions(os, r.decisions);
  }
}

void SessionTable::restore(std::istream& is) {
  PSS_REQUIRE(open_.empty() && num_spilled() == 0 && completed_.empty() &&
                  num_closed_ == 0,
              "restore target table must be empty");
  const std::uint64_t n_open = io::read_count(is);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    const auto id = static_cast<StreamId>(io::read_u64(is));
    // session() may evict an earlier restored session to honor the budget;
    // the load lands in the fresh resident either way.
    io::load_scheduler(is, session(id));
  }
  num_closed_ = io::read_i64(is);
  const std::uint64_t n_completed = io::read_count(is);
  for (std::uint64_t i = 0; i < n_completed; ++i) {
    StreamResult r;
    r.id = static_cast<StreamId>(io::read_u64(is));
    io::load_counters(is, r.counters);
    r.planned_energy = io::read_f64(is);
    io::load_decisions(is, r.decisions);
    completed_.push_back(std::move(r));
  }
}

}  // namespace pss::stream

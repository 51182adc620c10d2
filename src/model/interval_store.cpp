#include "model/interval_store.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace pss::model {

void IntervalStore::clear() {
  index_.clear();
  payload_.clear();
  end_ = 0.0;
  lone_boundary_.reset();
}

void IntervalStore::adopt_payload(Handle h) {
  if (std::size_t(h) < payload_.size()) {
    // Recycled slot. Its loads were cleared when the old tenant retired;
    // the epoch keeps advancing so no cache entry from a previous tenant
    // can ever validate against the new one.
    ++payload_[h].epoch;
  } else {
    payload_.emplace_back();
  }
}

std::size_t IntervalStore::compact_before(double frontier,
                                          std::vector<Handle>& freed) {
  std::size_t retired = 0;
  while (!index_.empty()) {
    const Handle h = index_.front();
    if (end_of(h) > frontier) break;
    payload_[h].loads.clear();
    ++payload_[h].epoch;
    index_.erase(h);
    freed.push_back(h);
    ++retired;
  }
  if (retired > 0 && index_.empty()) {
    // Everything retired: the back boundary becomes the bootstrap boundary,
    // so the next refinement grows the horizon exactly as it would have.
    lone_boundary_ = end_;
  }
  return retired;
}

IntervalStore::Refinement IntervalStore::ensure_boundary(double t) {
  PSS_REQUIRE(std::isfinite(t), "boundary must be finite");
  if (index_.empty()) {
    // Bootstrap: fewer than two boundaries, no interval yet.
    if (!lone_boundary_.has_value()) {
      lone_boundary_ = t;
      return Refinement::kNoop;
    }
    if (*lone_boundary_ == t) return Refinement::kNoop;
    const double lo = std::min(*lone_boundary_, t);
    const double hi = std::max(*lone_boundary_, t);
    adopt_payload(index_.insert(lo));
    end_ = hi;
    lone_boundary_.reset();
    return Refinement::kBootstrap;
  }
  if (t == end_) return Refinement::kNoop;
  if (t > end_) {
    // Horizon extension right: new empty interval [old back, t).
    adopt_payload(index_.insert(end_));
    end_ = t;
    return Refinement::kAppend;
  }
  const Handle at = index_.last_leq(t);
  if (at == kNoHandle) {
    // Horizon extension left: new empty interval [t, old front).
    adopt_payload(index_.insert(t));
    return Refinement::kPrepend;
  }
  if (index_.key(at) == t) return Refinement::kNoop;

  // Split the interval `at` = [lo, hi) at t. Same arithmetic as the
  // contiguous path: frac from the full interval, loads scaled by frac and
  // (1 - frac), right half copies the epoch, then both epochs advance.
  const double lo = index_.key(at);
  const double hi = end_of(at);
  const double frac = (t - lo) / (hi - lo);
  const Handle right = index_.insert(t);
  adopt_payload(right);
  Payload& left_payload = payload_[at];
  Payload& right_payload = payload_[right];
  right_payload.loads = left_payload.loads;
  for (Load& l : left_payload.loads) l.amount *= frac;
  for (Load& l : right_payload.loads) l.amount *= (1.0 - frac);
  right_payload.epoch = left_payload.epoch;
  ++left_payload.epoch;
  ++right_payload.epoch;
  return Refinement::kSplit;
}

bool IntervalStore::has_boundary(double t) const {
  if (index_.empty())
    return lone_boundary_.has_value() && *lone_boundary_ == t;
  if (t == end_) return true;
  const Handle at = index_.find(t);
  return at != kNoHandle;
}

double IntervalStore::front_boundary() const {
  PSS_REQUIRE(num_boundaries() >= 1, "store has no boundaries");
  if (index_.empty()) return *lone_boundary_;
  return index_.key(index_.front());
}

double IntervalStore::back_boundary() const {
  PSS_REQUIRE(num_boundaries() >= 1, "store has no boundaries");
  if (index_.empty()) return *lone_boundary_;
  return end_;
}

std::size_t IntervalStore::interval_of(double t) const {
  PSS_REQUIRE(!index_.empty() && t >= index_.key(index_.front()) && t < end_,
              "time outside the partition horizon");
  return index_.rank(index_.last_leq(t));
}

IntervalRange IntervalStore::range(double t0, double t1) const {
  PSS_REQUIRE(t0 < t1, "empty time range");
  std::size_t first = 0;
  std::size_t last = 0;
  if (t0 == end_) {
    first = index_.size();
  } else {
    const Handle h0 = index_.find(t0);
    PSS_REQUIRE(h0 != kNoHandle, "range start is not a partition boundary");
    first = index_.rank(h0);
  }
  if (t1 == end_) {
    last = index_.size();
  } else {
    const Handle h1 = index_.find(t1);
    PSS_REQUIRE(h1 != kNoHandle, "range end is not a partition boundary");
    last = index_.rank(h1);
  }
  return {first, last};
}

double IntervalStore::load_of(Handle h, JobId job) const {
  for (const Load& l : payload_[h].loads)
    if (l.job == job) return l.amount;
  return 0.0;
}

void IntervalStore::set_load(Handle h, JobId job, double amount) {
  PSS_REQUIRE(std::size_t(h) < payload_.size(), "interval handle out of range");
  PSS_REQUIRE(std::isfinite(amount) && amount >= 0.0,
              "load must be finite and nonnegative");
  auto& loads = payload_[h].loads;
  auto it = std::find_if(loads.begin(), loads.end(),
                         [job](const Load& l) { return l.job == job; });
  if (amount == 0.0) {
    if (it != loads.end()) {
      loads.erase(it);
      ++payload_[h].epoch;
    }
    return;
  }
  if (it != loads.end())
    it->amount = amount;
  else
    loads.push_back({job, amount});
  ++payload_[h].epoch;
}

double IntervalStore::interval_total(Handle h) const {
  double total = 0.0;
  for (const Load& l : payload_[h].loads) total += l.amount;
  return total;
}

double IntervalStore::total_of(JobId job) const {
  double total = 0.0;
  for (const Payload& p : payload_)
    for (const Load& l : p.loads)
      if (l.job == job) total += l.amount;
  return total;
}

TimePartition IntervalStore::snapshot_partition() const {
  TimePartition partition;
  if (index_.empty()) {
    if (lone_boundary_.has_value()) partition.insert_boundary(*lone_boundary_);
    return partition;
  }
  // Ascending inserts append at the vector's back, so the snapshot is
  // O(n) amortized despite going through the one-at-a-time API.
  for (Handle h = index_.front(); h != kNoHandle; h = index_.next(h))
    partition.insert_boundary(index_.key(h));
  partition.insert_boundary(end_);
  return partition;
}

WorkAssignment IntervalStore::snapshot_assignment() const {
  WorkAssignment assignment(num_intervals());
  std::size_t pos = 0;
  for (Handle h = index_.front(); h != kNoHandle; h = index_.next(h), ++pos)
    for (const Load& l : payload_[h].loads)
      assignment.set_load(pos, l.job, l.amount);
  return assignment;
}

}  // namespace pss::model

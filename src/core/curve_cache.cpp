#include "core/curve_cache.hpp"

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"

namespace pss::core {

void CurveCache::reset() {
  entries_.clear();
  scratch_.clear();
  out_.clear();
  stats_ = Stats{};
}

void CurveCache::on_compacted(
    const std::vector<model::IntervalStore::Handle>& freed) {
  for (const model::IntervalStore::Handle h : freed)
    if (std::size_t(h) < entries_.size()) entries_[h] = Entry{};
}

std::span<const util::PiecewiseLinear* const> CurveCache::curves_for(
    const model::IntervalStore& store, int num_processors,
    model::IntervalRange window, model::JobId ignore_job) {
  PSS_REQUIRE(window.last <= store.num_intervals(), "window exceeds store");
  PSS_REQUIRE(window.first < window.last, "empty placement window");
  if (entries_.size() < store.handle_space())
    entries_.resize(store.handle_space());

  scratch_.clear();
  out_.clear();
  model::IntervalStore::Handle h = store.handle_at(window.first);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const model::IntervalStore::Handle next = store.next_handle(h);
    const double length =
        (next == model::IntervalStore::kNoHandle ? store.back_boundary()
                                                 : store.start_of(next)) -
        store.start_of(h);
    if (store.load_of(h, ignore_job) != 0.0) {
      // The excluded job already owns load here (re-placement): this curve
      // is not the all-loads curve, so build it aside and skip the cache.
      // Rare path — grow scratch up front so the pointers below stay put.
      if (scratch_.capacity() < window.size())
        scratch_.reserve(window.size());
      scratch_.push_back(chen::insertion_curve(store.loads(h), ignore_job,
                                               num_processors, length));
      out_.push_back(&scratch_.back());
      ++stats_.rebuilds;
    } else {
      Entry& entry = entries_[h];
      if (entry.built && entry.epoch == store.epoch(h) &&
          entry.length == length) {
        ++stats_.hits;
      } else {
        entry.curve = chen::insertion_curve(store.loads(h), ignore_job,
                                            num_processors, length);
        entry.epoch = store.epoch(h);
        entry.length = length;
        entry.built = true;
        ++stats_.rebuilds;
      }
      out_.push_back(&entry.curve);
    }
    h = next;
  }
  return out_;
}

}  // namespace pss::core

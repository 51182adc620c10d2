#include "core/curve_cache.hpp"

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"

namespace pss::core {

void CurveCache::reset() {
  entries_.clear();
  scratch_.clear();
  out_.clear();
  tree_.clear();
  stats_ = Stats{};
  recycled_cursor_ = 0;
}

void CurveCache::sync_recycled(const model::IntervalStore& store) {
  const auto& log = store.recycled_births();
  for (; recycled_cursor_ < log.size(); ++recycled_cursor_) {
    const model::IntervalStore::Handle h = log[recycled_cursor_];
    // Handles at or above the synced watermark are still covered by the
    // tree's ordinary prefix absorption; dead (re-retired) or
    // already-present ones need nothing.
    if (std::size_t(h) >= tree_.synced_handles()) continue;
    if (!store.is_live(h) || tree_.contains(h)) continue;
    tree_.absorb_recycled(h, store.start_of(h));
  }
}

void CurveCache::on_compacted(
    model::IntervalStore& store,
    const std::vector<model::IntervalStore::Handle>& freed) {
  for (const model::IntervalStore::Handle h : freed) {
    if (std::size_t(h) < entries_.size()) entries_[h] = Entry{};
    tree_.erase(h);
  }
  // Reconcile rebirths now so the log can be truncated; between
  // compactions the screening query path drains it incrementally.
  sync_recycled(store);
  store.clear_recycled_births();
  recycled_cursor_ = 0;
}

const util::PiecewiseLinear& CurveCache::validated_curve(
    const model::IntervalStore& store, int num_processors,
    model::IntervalStore::Handle h) {
  if (entries_.size() < store.handle_space())
    entries_.resize(store.handle_space());
  Entry& entry = entries_[h];
  const double length = store.length_of(h);
  if (entry.built && entry.epoch == store.epoch(h) &&
      entry.length == length) {
    ++stats_.hits;
  } else {
    entry.curve =
        chen::insertion_curve(store.loads(h), -1, num_processors, length);
    entry.epoch = store.epoch(h);
    entry.length = length;
    entry.built = true;
    ++stats_.rebuilds;
  }
  return entry.curve;
}

convex::CapacityBounds CurveCache::window_capacity_bounds(
    const model::IntervalStore& store, int num_processors,
    model::IntervalRange window, double speed) {
  sync_recycled(store);
  tree_store_ = &store;
  tree_procs_ = num_processors;
  return tree_.window_capacity_bounds(
      store, window, speed,
      [this](model::IntervalStore::Handle h) -> const util::PiecewiseLinear& {
        return validated_curve(*tree_store_, tree_procs_, h);
      });
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

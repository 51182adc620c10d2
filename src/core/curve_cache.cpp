#include "core/curve_cache.hpp"

#include <cmath>

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"

namespace pss::core {

void CurveCache::reset() {
  entries_.clear();
  scratch_.clear();
  out_.clear();
  tree_.clear();
  stats_ = Stats{};
  // Lazy state goes too: a recycled scheduler must not replay stale levels.
  boundary_was_new_ = false;
  pending_.clear();
  extent_set_ = false;
  extent_lo_ = extent_hi_ = 0.0;
  grid_unit_ = 0.0;
  grid_dead_ = false;
  grid_early_.clear();
  offgrid_.clear();
  lazy_stats_ = LazyStats{};
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
    model::IntervalStore& store, double frontier,
    const std::vector<model::IntervalStore::Handle>& freed) {
  for (const model::IntervalStore::Handle h : freed) {
    if (std::size_t(h) < entries_.size()) entries_[h] = Entry{};
    tree_.erase(h);
  }
  // Off-grid records behind the frontier are unreachable: every future
  // window starts at or after it, so lazy_virgin_uniform can never probe
  // them again. (Dropping them is conservative-neutral — the records only
  // ever veto the fast path.)
  offgrid_.erase(offgrid_.begin(), offgrid_.lower_bound(frontier));
  // Reconcile rebirths now so the log can be truncated; between
  // compactions the screening query path drains it incrementally.
  sync_recycled(store);
  store.clear_recycled_births();
  recycled_cursor_ = 0;
}

CurveCache::LazyState CurveCache::lazy_state() const {
  LazyState s;
  s.pending.reserve(pending_.size());
  for (const auto& [t0, p] : pending_)
    s.pending.push_back({t0, p.t1, p.job, p.amount, p.first_amount});
  s.extent_set = extent_set_;
  s.extent_lo = extent_lo_;
  s.extent_hi = extent_hi_;
  s.grid_unit = grid_unit_;
  s.grid_dead = grid_dead_;
  s.grid_early = grid_early_;
  s.offgrid.assign(offgrid_.begin(), offgrid_.end());
  s.stats = lazy_stats_;
  return s;
}

void CurveCache::restore_lazy_state(const LazyState& s) {
  pending_.clear();
  for (const LazyState::PendingRange& p : s.pending)
    pending_.emplace(p.t0, Pending{p.t1, p.job, p.amount, p.first_amount});
  boundary_was_new_ = false;  // handshake flag never spans an operation
  extent_set_ = s.extent_set;
  extent_lo_ = s.extent_lo;
  extent_hi_ = s.extent_hi;
  grid_unit_ = s.grid_unit;
  grid_dead_ = s.grid_dead;
  grid_early_ = s.grid_early;
  offgrid_ = std::set<double>(s.offgrid.begin(), s.offgrid.end());
  lazy_stats_ = s.stats;
}

namespace {

/// Positive, finite power of two (mantissa exactly 0.5 under frexp):
/// multiples k*g and consecutive differences of such g are exact.
bool is_pow2(double d) {
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  int exp = 0;
  return std::frexp(d, &exp) == 0.5;
}

}  // namespace

void CurveCache::before_boundary(model::IntervalStore& store, double t) {
  boundary_was_new_ = !store.has_boundary(t);
  if (!boundary_was_new_ || pending_.empty()) return;
  // A new boundary strictly inside a pending range is about to split one
  // of its intervals: expand the annotation first, so the proportional
  // load division sees exactly the loads an eager commit would leave.
  auto it = pending_.upper_bound(t);
  if (it == pending_.begin()) return;
  --it;
  if (it->first < t && t < it->second.t1) materialize(store, it);
}

void CurveCache::after_boundary(const model::IntervalStore& store, double t) {
  if (!boundary_was_new_) return;
  boundary_was_new_ = false;
  observe_boundary(store, t);
}

void CurveCache::observe_boundary(const model::IntervalStore& store,
                                  double t) {
  if (grid_dead_) return;
  if (store.num_boundaries() < 2) {
    grid_early_.push_back(t);
    return;
  }
  // Gap to t's nearest neighboring boundary.
  const double front = store.front_boundary();
  const double back = store.back_boundary();
  double gap;
  if (t == front) {
    gap = store.end_of(store.handle_at(0)) - t;
  } else if (t == back) {
    gap = t - store.start_of(store.handle_at(store.num_intervals() - 1));
  } else {
    const std::size_t k = store.interval_of(t);  // interval starting at t
    gap = std::min(t - store.start_of(store.handle_at(k - 1)),
                   store.end_of(store.handle_at(k)) - t);
  }
  if (is_pow2(gap)) {
    if (grid_unit_ == 0.0) {
      grid_unit_ = gap;
      for (double early : grid_early_) classify_boundary(early);
      grid_early_.clear();
    } else if (gap < grid_unit_) {
      // Finer power-of-two unit: every on-grid point stays on-grid; stale
      // off-grid records only make the fast path miss, never misfire.
      grid_unit_ = gap;
    }
    classify_boundary(t);
  } else if (grid_unit_ != 0.0) {
    classify_boundary(t);
  } else {
    grid_early_.push_back(t);
    if (grid_early_.size() > 64) {
      // No plausible unit in sight; give up on the fast path for this run.
      grid_dead_ = true;
      grid_early_.clear();
      offgrid_.clear();
    }
  }
}

void CurveCache::classify_boundary(double t) {
  // Division by a power of two is exact, so t is on-grid iff t/unit is an
  // integer small enough that k*unit is exactly representable.
  const double k = t / grid_unit_;
  if (!(std::abs(k) <= 4.5e15) || k != std::floor(k)) offgrid_.insert(t);
}

bool CurveCache::lazy_virgin_uniform(const model::IntervalStore& store,
                                     double t0, double t1, std::size_t count,
                                     double* unit) {
  if (grid_dead_ || grid_unit_ == 0.0) return false;
  if (extent_set_ && !(t1 <= extent_lo_ || t0 >= extent_hi_)) return false;
  auto it = offgrid_.lower_bound(t0);
  if (it != offgrid_.end() && *it <= t1) return false;
  // All boundaries in [t0, t1] are exact grid multiples; `count` intervals
  // across a span of count*unit forces every length to be exactly one
  // grid step — bitwise, because consecutive multiples of a power of two
  // subtract exactly.
  if ((t1 - t0) / grid_unit_ != double(count)) return false;
  (void)store;
  *unit = grid_unit_;
  return true;
}

void CurveCache::lazy_commit(double t0, double t1, model::JobId job,
                             double amount, double first_amount) {
  PSS_CHECK(!lazy_pending_overlap(t0, t1),
            "lazy commit on a non-virgin range");
  pending_.emplace(t0, Pending{t1, job, amount, first_amount});
  note_commit_extent(t0, t1);
  ++lazy_stats_.commits;
}

void CurveCache::note_commit_extent(double t0, double t1) {
  if (!extent_set_) {
    extent_set_ = true;
    extent_lo_ = t0;
    extent_hi_ = t1;
    return;
  }
  extent_lo_ = std::min(extent_lo_, t0);
  extent_hi_ = std::max(extent_hi_, t1);
}

bool CurveCache::lazy_pending_overlap(double t0, double t1) const {
  if (pending_.empty()) return false;
  auto it = pending_.upper_bound(t0);
  if (it != pending_.begin() && std::prev(it)->second.t1 > t0) return true;
  return it != pending_.end() && it->first < t1;
}

void CurveCache::materialize(model::IntervalStore& store,
                             std::map<double, Pending>::iterator it) {
  const double t0 = it->first;
  const Pending p = it->second;
  pending_.erase(it);
  // The range's boundaries still exist (boundaries are never removed) and
  // none was inserted inside it while pending (before_boundary expands
  // first), so this walk visits exactly the commit-time intervals and
  // replays the exact path's eager set_load loop.
  const model::IntervalRange window = store.range(t0, p.t1);
  model::IntervalStore::Handle h = store.handle_at(window.first);
  for (std::size_t i = 0; i < window.size(); ++i) {
    store.set_load(h, p.job, i == 0 ? p.first_amount : p.amount);
    tree_.mark_dirty(h);
    h = store.next_handle(h);
  }
  ++lazy_stats_.materializations;
}

void CurveCache::lazy_materialize_range(model::IntervalStore& store,
                                        double t0, double t1) {
  while (true) {
    auto it = pending_.upper_bound(t0);
    if (it != pending_.begin() && std::prev(it)->second.t1 > t0) {
      materialize(store, std::prev(it));
      continue;
    }
    if (it != pending_.end() && it->first < t1) {
      materialize(store, it);
      continue;
    }
    break;
  }
}

void CurveCache::lazy_flush(model::IntervalStore& store) {
  while (!pending_.empty()) materialize(store, pending_.begin());
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
  if (!pending_.empty()) {
    // Contract: exact decision arithmetic must never read a range with an
    // unmaterialized annotation — the cached/served curves would describe
    // loads that are not there yet. A trip here is a missed
    // materialization hook (see tests/test_lazy_levels.cpp's canary).
    const double t0 = store.start_of(store.handle_at(window.first));
    const double t1 = window.last == store.num_intervals()
                          ? store.back_boundary()
                          : store.start_of(store.handle_at(window.last));
    PSS_CHECK(!lazy_pending_overlap(t0, t1),
              "curves_for over an unmaterialized lazy range");
  }
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

// Per-interval insertion-curve cache for the incremental PD hot path.
//
// PD never redistributes committed load (the structural property behind
// Theorem 3), so the insertion curve z_k(s) of an atomic interval only
// changes when that interval's own loads change — an arrival dirties the
// few intervals it places work into and leaves every other curve intact.
// The cache keeps one built curve per interval and revalidates it against
// the store's per-interval epoch counter, so a stale entry is detected
// without any explicit invalidation call on the load path. Entries live in
// a slab addressed by model::IntervalStore's stable handles, so structural
// refinements need no mirroring at all: a split allocates a fresh handle
// (fresh, unbuilt entry) for the right half and bumps the left half's epoch
// and length, which the ordinary hit validation already catches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "convex/curve_segment_tree.hpp"
#include "model/interval_store.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::core {

class CurveCache {
 public:
  struct Stats {
    long long hits = 0;      // curves served without rebuilding
    long long rebuilds = 0;  // curves (re)built from interval loads
  };

  /// Drops every cached curve, the segment tree and all lazy state.
  void reset();

  /// Per-interval insertion curves for `window`, excluding `ignore_job`.
  /// Entries whose (epoch, length) still match the store are served as
  /// hits; stale entries rebuild and re-cache, so refinements between calls
  /// need no notification. An interval that currently holds a load of
  /// `ignore_job` is built into scratch storage and not cached (the cached
  /// curve must describe all committed loads). The span views a reused
  /// member buffer — no per-call allocation on the hot path — and stays
  /// valid until the next call. The slab grows lazily with the store's
  /// handle space.
  [[nodiscard]] std::span<const util::PiecewiseLinear* const> curves_for(
      const model::IntervalStore& store, int num_processors,
      model::IntervalRange window, model::JobId ignore_job = -1);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // -- screening (convex::CurveSegmentTree) ---------------------------------
  //
  // The cache owns the segment tree over per-interval insertion curves and
  // is the contract point for keeping it honest: schedulers report every
  // committed load change through note_load_changed, structural
  // refinements are discovered lazily from the store's handle space, and
  // tree leaves are built through the same epoch-validated entries that
  // curves_for serves (so a leaf rebuild warms the cache and vice versa).

  /// Certified bounds on sum_{k in window} z_k(speed) over the store's
  /// intervals — the screening query of the schedulers' screen. The
  /// bounds describe the *all-loads* curves: a caller excluding a job must
  /// ensure that job holds no load in the window (true for any job id
  /// never accepted before, which the schedulers track).
  [[nodiscard]] convex::CapacityBounds window_capacity_bounds(
      const model::IntervalStore& store, int num_processors,
      model::IntervalRange window, double speed);

  /// Reports a committed load change on interval `h` so the tree's
  /// summaries recombine before the next screening query. Must follow
  /// every IntervalStore::set_load.
  void note_load_changed(model::IntervalStore::Handle h) {
    tree_.mark_dirty(h);
  }

  /// The all-loads insertion curve for `h`, served from the handle-keyed
  /// entry pool with the usual (epoch, length) validation. Shared by the
  /// tree's leaf builds and exact boundary evaluations.
  [[nodiscard]] const util::PiecewiseLinear& validated_curve(
      const model::IntervalStore& store, int num_processors,
      model::IntervalStore::Handle h);

  [[nodiscard]] const convex::CurveSegmentTree& segment_tree() const {
    return tree_;
  }

  // -- horizon compaction ---------------------------------------------------

  /// Cache-side half of a prefix compaction the owner just ran on the
  /// store: releases the freed handles' cached curves, prunes their tree
  /// nodes, garbage-collects off-grid records behind the frontier (no
  /// future window can start before it), and reconciles the store's
  /// recycled-birth log. The owner must have materialized every lazy
  /// annotation behind the frontier before compacting (retired loads feed
  /// the retired-energy accumulator).
  void on_compacted(model::IntervalStore& store, double frontier,
                    const std::vector<model::IntervalStore::Handle>& freed);

  // -- lazy water-level annotations ------------------------------------------
  //
  // An accepted virgin-uniform-window job is recorded as ONE range
  // annotation {[t0, t1), job, amount, first_amount} instead of a load
  // write per window interval (convex::water_fill_uniform replays the
  // reference arithmetic in closed form). The annotation is expanded into
  // ordinary IntervalStore loads — "materialized" — the first time anything
  // needs the eager state of that range:
  //   * before_boundary: a new boundary is about to split an interval
  //     inside the range (materializing first keeps the proportional split
  //     arithmetic bitwise identical to an eager commit's);
  //   * lazy_materialize_range: an arrival's exact fallback (or the
  //     fractional screen) is about to read the range's loads;
  //   * lazy_flush: a snapshot/energy/schedule consumer needs everything.
  // Pending ranges are pairwise disjoint by construction: a lazy commit
  // requires its window to be virgin (disjoint from the committed extent,
  // which contains every pending range).
  //
  // The segment tree is deliberately NOT told about pending annotations:
  // pending load only *shrinks* true capacity, so the stale (virgin)
  // bounds over-estimate and the screen's reject certificate stays sound.
  // The fractional full-service certificate (lo >= work) is the opposite
  // direction, so fractional PD materializes the window *before* its
  // screen. curves_for enforces the contract with a hard check.

  struct LazyStats {
    long long commits = 0;           // accepts recorded as annotations
    long long materializations = 0;  // annotations expanded into loads
  };

  /// Hook before IntervalStore::ensure_boundary(t): if t is new and falls
  /// strictly inside a pending range, materialize that annotation so the
  /// upcoming split divides real loads exactly as after an eager commit.
  void before_boundary(model::IntervalStore& store, double t);
  /// Hook after ensure_boundary(t): classifies the new boundary against
  /// the detected uniform grid (see lazy_virgin_uniform).
  void after_boundary(const model::IntervalStore& store, double t);

  /// True iff [t0, t1) is a certified virgin uniform window: `count`
  /// intervals whose lengths are all bitwise equal to the detected
  /// power-of-two grid unit (written to *unit) and that carry no committed
  /// or pending load. Exactly the precondition of water_fill_uniform.
  [[nodiscard]] bool lazy_virgin_uniform(const model::IntervalStore& store,
                                         double t0, double t1,
                                         std::size_t count, double* unit);

  /// Records an accepted placement on the virgin window [t0, t1) as a
  /// pending annotation and extends the committed extent.
  void lazy_commit(double t0, double t1, model::JobId job, double amount,
                   double first_amount);

  /// Extends the committed-load extent (eager commits must report here so
  /// the virgin test stays sound).
  void note_commit_extent(double t0, double t1);

  /// Any pending annotation intersecting [t0, t1)?
  [[nodiscard]] bool lazy_pending_overlap(double t0, double t1) const;

  /// Materializes every pending annotation intersecting [t0, t1).
  void lazy_materialize_range(model::IntervalStore& store, double t0,
                              double t1);
  /// Materializes everything (snapshot/energy/schedule consumers).
  void lazy_flush(model::IntervalStore& store);

  [[nodiscard]] std::size_t lazy_pending_count() const {
    return pending_.size();
  }
  [[nodiscard]] const LazyStats& lazy_stats() const { return lazy_stats_; }

  // -- checkpoint (src/io/state_io) ----------------------------------------

  /// Plain-data image of the lazy annotation machinery — everything that
  /// affects future decisions (pending annotations, committed extent, grid
  /// detection). Cached curves and tree summaries are deliberately NOT
  /// part of it: they are derived state, and a cold rebuild serves
  /// decision-identical certificates (only hit/prune counters can differ).
  struct LazyState {
    struct PendingRange {
      double t0 = 0.0, t1 = 0.0;
      model::JobId job = -1;
      double amount = 0.0, first_amount = 0.0;
    };
    std::vector<PendingRange> pending;
    bool extent_set = false;
    double extent_lo = 0.0, extent_hi = 0.0;
    double grid_unit = 0.0;
    bool grid_dead = false;
    std::vector<double> grid_early;
    std::vector<double> offgrid;
    LazyStats stats;
  };
  [[nodiscard]] LazyState lazy_state() const;
  void restore_lazy_state(const LazyState& s);

 private:
  struct Entry {
    bool built = false;
    std::uint64_t epoch = 0;
    double length = 0.0;
    util::PiecewiseLinear curve;
  };

  std::vector<Entry> entries_;  // slab addressed by store handle
  std::vector<util::PiecewiseLinear> scratch_;  // ignore_job-tainted curves
  std::vector<const util::PiecewiseLinear*> out_;  // curves_for result buffer
  convex::CurveSegmentTree tree_;  // screening summaries
  // Query-scoped context for the tree's curve callback (kept as members so
  // the lambda captures only `this` and stays heap-free).
  const model::IntervalStore* tree_store_ = nullptr;
  int tree_procs_ = 0;
  std::size_t recycled_cursor_ = 0;  // store recycled-birth log entries seen
  Stats stats_;

  // -- lazy water-level state ----------------------------------------------
  struct Pending {
    double t1 = 0.0;            // range end (key of pending_ is t0)
    model::JobId job = -1;
    double amount = 0.0;        // per-interval share
    double first_amount = 0.0;  // first interval: share + residue
  };
  void observe_boundary(const model::IntervalStore& store, double t);
  void classify_boundary(double t);
  void materialize(model::IntervalStore& store,
                   std::map<double, Pending>::iterator it);
  void sync_recycled(const model::IntervalStore& store);

  bool boundary_was_new_ = false;  // before_/after_boundary handshake
  std::map<double, Pending> pending_;  // disjoint ranges, keyed by t0
  // Committed-load time extent (eager + lazy); the virgin test is
  // disjointness from this range, which conservatively covers every
  // pending annotation.
  bool extent_set_ = false;
  double extent_lo_ = 0.0;
  double extent_hi_ = 0.0;
  // Uniform-grid detection. grid_unit_ is the smallest power-of-two
  // neighbor gap observed (power-of-two so that k*unit and consecutive
  // differences are exact in floating point); boundaries that are not an
  // exact integer multiple of it land in offgrid_. A window with no
  // off-grid boundary and exactly span/unit intervals is certified
  // uniform. Refining the unit keeps old off-grid records — conservative:
  // the fast path misses, never misfires.
  double grid_unit_ = 0.0;          // 0 = not yet detected
  bool grid_dead_ = false;          // detection abandoned; fast path off
  std::vector<double> grid_early_;  // boundaries seen before detection
  std::set<double> offgrid_;
  LazyStats lazy_stats_;
};

}  // namespace pss::core

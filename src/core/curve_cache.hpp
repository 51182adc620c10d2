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
//
// Two clients read it. PdScheduler uses both halves: curves_for feeds its
// exact water fill, and the owned convex::CurveSegmentTree answers its
// rejection screen with one certified upper bound on window capacity.
// core::run_fractional_pd uses curves_for alone — it never screens, so it
// neither queries the tree nor reports load changes to it.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Drops every cached curve and the segment tree.
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
  // is the contract point for keeping it honest: PdScheduler reports every
  // committed load change through note_load_changed, structural
  // refinements are discovered lazily from the store's handle space, and
  // tree leaves are built through the same epoch-validated entries that
  // curves_for serves (so a leaf rebuild warms the cache and vice versa).

  /// Certified upper bound on sum_{k in window} z_k(speed) over the
  /// store's intervals — the query of PdScheduler's rejection screen. The
  /// bound describes the *all-loads* curves: a caller excluding a job must
  /// ensure that job holds no load in the window (true for any job id
  /// never accepted before, which the scheduler tracks).
  [[nodiscard]] double window_capacity_bound(
      const model::IntervalStore& store, int num_processors,
      model::IntervalRange window, double speed);

  /// Reports a committed load change on interval `h` so the tree's
  /// summaries recombine before the next screening query. Must follow
  /// every IntervalStore::set_load of a client that screens.
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
  /// nodes, and reconciles the store's recycled-birth log.
  void on_compacted(model::IntervalStore& store,
                    const std::vector<model::IntervalStore::Handle>& freed);

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

  void sync_recycled(const model::IntervalStore& store);
};

}  // namespace pss::core

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
// Two clients read it, PdScheduler and core::run_fractional_pd: curves_for
// feeds each arrival's exact water fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/interval_store.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::core {

class CurveCache {
 public:
  struct Stats {
    long long hits = 0;      // curves served without rebuilding
    long long rebuilds = 0;  // curves (re)built from interval loads
  };

  /// Drops every cached curve.
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

  // -- horizon compaction ---------------------------------------------------

  /// Cache-side half of a prefix compaction the owner just ran on the
  /// store: releases the freed handles' cached curves.
  void on_compacted(const std::vector<model::IntervalStore::Handle>& freed);

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
  Stats stats_;
};

}  // namespace pss::core

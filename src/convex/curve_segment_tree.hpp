// Segment tree over per-interval insertion curves: a certified upper bound
// on window capacity for wide-window placement in O(log n · log knots).
//
// The water-filling placement of one arrival evaluates the aggregate
// insertion curve Z(s) = sum_{k in window} z_k(s) — O(window) work even
// when every per-interval curve is cached, which makes wide-window
// (heavy-lookahead) arrivals the last linear hot path after PR 4's
// O(log n) refinement. The expensive case is the *rejected* wide arrival:
// it walks the whole window only to learn that Z(s_reject) < w, and
// commits nothing. (An accepted arrival writes a load into every window
// interval, so it is Ω(window) no matter how the level is found.)
//
// This tree removes that case without giving up the repository's bitwise
// decision-identity contract. Exact sub-linear evaluation of Z(s) is
// impossible to keep bit-identical to the linear reference — the reference
// sums curve values in window order, floating-point addition is not
// associative, and any tree-shaped aggregation reorders it. So the tree
// does not compute Z(s); it computes a *certified upper bound* hi >= Z(s).
// One side is all a rejection screen needs: only an upper bound on the
// window's capacity can prove that the workload does not fit.
//
//   * every node holds a compressed summary (<= kMaxKnots knots) of its
//     subtree's summed curve: a continuous piecewise-linear upper envelope
//     over kept x's, plus a slack-inflated tail slope past the last knot;
//   * a range query decomposes the window into O(log n) canonical
//     subtrees, evaluates each summary at s by binary search
//     (O(log kMaxKnots)), and evaluates the O(log n) boundary intervals'
//     exact curves directly;
//   * every floating-point combine step inflates the envelope by a
//     relative slack, and the final bound is inflated once more by a slack
//     chosen to dominate the reference path's own summation rounding
//     (<= c·w·eps relative for a window of w intervals, so 1e-8 covers
//     w <= 1M with two orders of magnitude to spare).
//
// A caller may then take any decision that is *certain* under the bound
// (hi < work proves the linear reference would reject) and must fall back
// to the exact reference arithmetic otherwise. Decisions are therefore
// bitwise identical to the linear scan by construction — the differential
// matrix in tests/test_differential.cpp verifies it end to end — while
// margin-clear wide-window rejections cost O(log n · log knots) instead of
// O(window).
//
// Structure maintenance mirrors model::IntervalStore's handle discipline:
// nodes live in a slab addressed by store handles, ordered by interval
// start time (immutable per handle) in a deterministic treap. New handles
// are absorbed lazily at query time — a split is detected from
// handle_space() growth, and the split's left half (same handle, new
// length and loads) is caught by dirtying the new node's in-order
// predecessor. Load changes must be reported through mark_dirty (the
// schedulers do this on commit; core::CurveCache wraps the contract).
// Dirty subtree summaries recombine lazily on the next query, bottom-up,
// so a wide accepted arrival costs the following query O(window) once —
// amortized against the arrival's own Ω(window) commit.
//
// Horizon compaction extends the discipline with retirement: erase(h)
// prunes a retired interval's node (its summary memory is released and the
// slot marked dead), and a handle the store later recycles re-enters
// through absorb_recycled — the store's recycled-birth log, replayed by
// core::CurveCache, is what bridges the two, since slab-prefix growth can
// no longer discover a rebirth below the synced watermark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "model/interval_store.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::convex {

class CurveSegmentTree {
 public:
  using Handle = model::IntervalStore::Handle;
  /// Returns the all-loads insertion curve of interval `h`, valid against
  /// the store's current epochs (core::CurveCache::validated_curve).
  using CurveFn =
      std::function<const util::PiecewiseLinear&(Handle)>;

  /// Knot budget per node summary. Larger = a tighter bound (fewer exact
  /// fallbacks) but more memory and combine work per refinement.
  static constexpr std::size_t kMaxKnots = 24;

  struct Stats {
    long long queries = 0;
    long long node_pulls = 0;     // subtree summaries recombined
    long long nodes_absorbed = 0; // handles synced from the store
  };

  /// Drops everything (slab storage kept for reuse).
  void clear();

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  /// Number of live (non-erased) nodes.
  [[nodiscard]] std::size_t live_size() const { return live_count_; }
  /// True iff handle `h` currently has a live node.
  [[nodiscard]] bool contains(Handle h) const {
    return std::size_t(h) < nodes_.size() && nodes_[h].live;
  }
  /// Watermark of the store handle-space prefix absorbed so far; handles
  /// below it only re-enter through absorb_recycled.
  [[nodiscard]] std::size_t synced_handles() const { return synced_handles_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Prunes a retired interval's node: releases its summaries, marks the
  /// slot dead, and restales the ancestor path. No-op if `h` was never
  /// absorbed. O(log n) expected.
  void erase(Handle h);

  /// Re-absorbs a handle the store recycled after compaction (the slab
  /// prefix walk cannot see rebirths below the synced watermark). Inserts
  /// the node stale and dirties its in-order predecessor, exactly like a
  /// prefix absorption. `h` must not currently be live.
  void absorb_recycled(Handle h, double key);

  /// Marks interval `h`'s committed loads as changed; its subtree
  /// summaries recombine on the next query. O(unstale ancestors),
  /// amortized O(1) over a batch. Must be called (directly or via
  /// core::CurveCache) for every set_load against the store — a missed
  /// mark voids the certification.
  void mark_dirty(Handle h);

  /// Syncs with the store (absorbs new handles, recombines dirty
  /// summaries through `curve_of`), then returns a certified upper bound
  /// on the window's aggregate insertion-curve value at `speed`: it
  /// dominates the mathematically exact sum AND any window-order
  /// floating-point summation of it (the slack absorbs both). The window
  /// must be nonempty and `speed > 0`.
  [[nodiscard]] double window_capacity_bound(
      const model::IntervalStore& store, model::IntervalRange window,
      double speed, const CurveFn& curve_of);

 private:
  static constexpr Handle kNull = model::IntervalStore::kNoHandle;

  // Compressed upper summary of a monotone piecewise-linear curve sum f:
  // a *continuous* piecewise-linear envelope stored as consecutive (x, hi)
  // pairs with x strictly increasing and x[0] == 0 (the shared domain
  // start of all insertion curves), such that f <= PL(hi) everywhere
  // (linear tail past the last knot). Continuity is the load-bearing
  // property: a sum of continuous piecewise-linear bounds is itself one,
  // linear between union knots — so *merging* child summaries by
  // evaluating at the union knot set is exactly lossless, and the envelope
  // loosens only in compress(), which folds each dropped kink's excess
  // over the chord into the adjacent kept knots. Looseness therefore
  // accrues per level only where a compression drops a genuine kink, not
  // per knot as step bounds would.
  struct Summary {
    std::vector<double> knots;  // 2 * size() doubles
    double tail = 0.0;
    [[nodiscard]] std::size_t size() const { return knots.size() / 2; }
    [[nodiscard]] double x(std::size_t i) const { return knots[2 * i]; }
    [[nodiscard]] double hi(std::size_t i) const { return knots[2 * i + 1]; }
    /// Certified upper value at x >= 0.
    [[nodiscard]] double point_hi(double x) const;
    [[nodiscard]] std::size_t cell_of(double x) const;
  };

  struct Node {
    double key = 0.0;  // interval start time (immutable per handle)
    Handle left = kNull;
    Handle right = kNull;
    Handle parent = kNull;
    bool live = false;       // false marks a dead (erased) slab slot
    bool stale = true;       // subtree aggregate needs recombining
    bool self_stale = true;  // own loads changed: rebuild `self` first
    Summary self;  // this interval's curve, compressed once per epoch
    Summary agg;   // subtree aggregate (self + children aggs)
  };

  void insert_node(Handle h, double key);
  void rotate_up(Handle h);
  void dirty_predecessor(double key);
  void absorb_new_handles(const model::IntervalStore& store);
  void pull(Handle h, const model::IntervalStore& store,
            const CurveFn& curve_of);
  void combine(const Summary* a, const Summary& self, const Summary* b,
               Summary& out);
  void compress(Summary& s);
  // Accumulate the certified upper bound over subtree keys in [klo, khi].
  void accumulate(Handle h, double klo, double khi, double speed,
                  const CurveFn& curve_of, double& hi);
  void accumulate_ge(Handle h, double klo, double speed,
                     const CurveFn& curve_of, double& hi);
  void accumulate_le(Handle h, double khi, double speed,
                     const CurveFn& curve_of, double& hi);
  void accumulate_subtree(Handle h, double speed, double& hi);
  [[nodiscard]] static std::uint64_t priority_of(Handle h);

  std::vector<Node> nodes_;  // slab indexed by store handle
  Handle root_ = kNull;
  std::size_t synced_handles_ = 0;  // prefix of the store's handle space
  std::size_t live_count_ = 0;      // live nodes (erased slots excluded)
  std::vector<double> scratch_xs_;      // combine work buffer
  std::vector<double> scratch_packed_;  // compress output buffer
  Stats stats_;
};

}  // namespace pss::convex

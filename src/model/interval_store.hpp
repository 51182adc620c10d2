// Stable-handle interval store: the online state of the PD schedulers for
// the time partition refinement of Section 3 ("Concerning the Time
// Partitioning").
//
// The contiguous representation (TimePartition + WorkAssignment) pays O(n)
// per refinement: inserting a boundary shifts the tail of a sorted
// std::vector<double>, and the matching split/prepend shifts a
// vector-of-vectors of loads. This store keeps the
// same state — interval boundaries, per-interval committed loads, and the
// per-interval epoch counters the curve cache validates against — in one
// structure indexed by a deterministic order-statistics treap
// (util::OrderIndex), so insert_boundary / interval_of / range / split /
// append / prepend are all O(log n).
//
// Handles vs positions. An interval is addressed two ways:
//   * its Handle — a slab id fixed at creation. Splits, appends and
//     prepends never renumber existing handles, so anything keyed by
//     handle (cached insertion curves, most importantly) survives every
//     refinement untouched: a split allocates one fresh handle for the
//     right half and bumps the left half's epoch, and that is the entire
//     invalidation story.
//   * its position — the 0-based index in time order, the k of the paper's
//     T_k. Positions are what IntervalRange windows and water-filling use;
//     they shift on refinement exactly as in the contiguous
//     representation. handle_at / position_of translate in O(log n).
//
// The arithmetic of a split (the proportional load division) replicates
// WorkAssignment::split_interval operation for operation, so the schedulers
// running on this store commit bitwise-identical decisions to the test-only
// reference oracle on the contiguous pair (tests/test_differential.cpp
// proves it end to end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "util/order_index.hpp"

namespace pss::model {

class IntervalStore {
 public:
  using Handle = util::OrderIndex::NodeId;
  static constexpr Handle kNoHandle = util::OrderIndex::kNull;

  /// What ensure_boundary did, mirroring the cases of the contiguous
  /// core::OnlineState::ensure_boundary so callers keep identical counters.
  enum class Refinement {
    kNoop,       // t was already a boundary (or the very first one)
    kBootstrap,  // second distinct boundary: the first interval appeared
    kSplit,      // t fell inside an interval: split, loads divided
    kAppend,     // t beyond the back boundary: horizon extended right
    kPrepend,    // t before the front boundary: horizon extended left
  };

  IntervalStore() = default;

  /// Returns the store to the freshly-constructed state.
  void clear();

  /// Makes t a boundary. Splits divide the interval's committed loads
  /// proportionally to the sub-lengths (Section 3); the left half keeps
  /// its handle, the right half gets a fresh one, and both epochs advance.
  Refinement ensure_boundary(double t);

  /// Retires every interval whose end is <= frontier, front to back,
  /// appending the freed handles to `freed`. Freed slots keep a bumped
  /// epoch (a stale cache entry can never validate against them) and their
  /// handles are recycled by later refinements, so steady-state serving
  /// holds O(live intervals) slab memory. If everything retires, the back
  /// boundary survives as the bootstrap boundary, so future refinements
  /// extend from the old horizon exactly like the uncompacted store.
  /// Returns the number of intervals retired.
  std::size_t compact_before(double frontier, std::vector<Handle>& freed);

  // -- partition queries (positions, contiguous-compatible semantics) ------
  [[nodiscard]] std::size_t num_intervals() const { return index_.size(); }
  [[nodiscard]] std::size_t num_boundaries() const {
    if (!index_.empty()) return index_.size() + 1;
    return lone_boundary_.has_value() ? 1 : 0;
  }
  [[nodiscard]] bool has_boundary(double t) const;
  /// First / last boundary; require num_boundaries() >= 1.
  [[nodiscard]] double front_boundary() const;
  [[nodiscard]] double back_boundary() const;
  /// Position of the interval containing t (t in [front, back)).
  [[nodiscard]] std::size_t interval_of(double t) const;
  /// Positions covered by [t0, t1); both must be existing boundaries.
  [[nodiscard]] IntervalRange range(double t0, double t1) const;

  // -- handle <-> position, geometry ---------------------------------------
  [[nodiscard]] Handle handle_at(std::size_t pos) const {
    return index_.select(pos);
  }
  [[nodiscard]] std::size_t position_of(Handle h) const {
    return index_.rank(h);
  }
  /// In-order walk; kNoHandle after the last interval. Amortized O(1) per
  /// step over a window scan.
  [[nodiscard]] Handle next_handle(Handle h) const { return index_.next(h); }
  /// First interval in time order, or kNoHandle when there are none.
  [[nodiscard]] Handle front_handle() const {
    return index_.empty() ? kNoHandle : index_.front();
  }
  [[nodiscard]] double start_of(Handle h) const { return index_.key(h); }
  [[nodiscard]] double end_of(Handle h) const {
    const Handle n = index_.next(h);
    return n == kNoHandle ? end_ : index_.key(n);
  }
  [[nodiscard]] double length_of(Handle h) const {
    return end_of(h) - start_of(h);
  }

  // -- loads and epochs (by handle, O(1) plus the load-list scan) ----------
  [[nodiscard]] const std::vector<Load>& loads(Handle h) const {
    return payload_[h].loads;
  }
  [[nodiscard]] double load_of(Handle h, JobId job) const;
  /// Replaces `job`'s load in the interval (0 removes); bumps the epoch.
  /// The amount must be finite and nonnegative.
  void set_load(Handle h, JobId job, double amount);
  [[nodiscard]] std::uint64_t epoch(Handle h) const {
    return payload_[h].epoch;
  }
  [[nodiscard]] double interval_total(Handle h) const;
  /// Total work of `job` across all intervals (O(n); cold path).
  [[nodiscard]] double total_of(JobId job) const;

  /// Upper bound on ever-allocated handle values; slab-sized caches keyed
  /// by handle size themselves off this.
  [[nodiscard]] std::size_t handle_space() const { return payload_.size(); }

  // -- cold-path materialization into the contiguous types -----------------
  /// Boundaries in time order as a TimePartition (O(n)).
  [[nodiscard]] TimePartition snapshot_partition() const;
  /// Loads in position order as a WorkAssignment (O(total loads)). Note:
  /// the snapshot's epoch counters restart from zero — epochs are
  /// meaningful only against the live store.
  [[nodiscard]] WorkAssignment snapshot_assignment() const;

 private:
  struct Payload {
    std::vector<Load> loads;
    std::uint64_t epoch = 0;
  };

  /// Claims the payload slot for a node id just handed out by index_ —
  /// either a fresh slab slot or a recycled one.
  void adopt_payload(Handle h);

  util::OrderIndex index_;        // keys = interval start times; ids = handles
  std::vector<Payload> payload_;  // indexed by handle
  double end_ = 0.0;              // end of the last interval (back boundary)
  std::optional<double> lone_boundary_;  // bootstrap: one boundary, no interval
};

}  // namespace pss::model

// The online primal-dual algorithm PD (Listing 1) for multiple
// speed-scalable processors — the paper's primary contribution.
//
// On every arrival, PD greedily raises the new job's load variables in the
// atomic intervals where the marginal energy cost lambda_{jk} is smallest,
// keeping all raised marginals equal (a water-filling over the insertion
// curves z_k(s) of src/chen), until either
//   (a) the whole workload is placed  -> accept, lambda_j = delta*w*P'(s*),
//   (b) the marginal reaches v_j      -> reject, lambda_j = v_j.
// Committed loads of earlier jobs are never redistributed — the structural
// difference from Optimal Available illustrated by Fig. 3.
//
// The time partition refines online (Section 3, "Concerning the Time
// Partitioning"): new boundaries split intervals and committed work splits
// proportionally, which provably leaves the produced schedule unchanged.
//
// Theorem 3: with delta = alpha^(1-alpha), PD is alpha^alpha-competitive,
// and that bound is tight for PD.
#pragma once

#include <algorithm>
#include <iosfwd>
#include <optional>
#include <vector>

#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/online_state.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"

namespace pss::core {
class PdScheduler;
}
namespace pss::io {
// Binary checkpoint of a scheduler session (src/io/state_io.cpp); friends
// of PdScheduler because a restore must reproduce the private state
// bit-for-bit.
void save_scheduler(std::ostream& os, const core::PdScheduler& s);
void load_scheduler(std::istream& is, core::PdScheduler& s);
}  // namespace pss::io

namespace pss::core {

struct PdOptions {
  /// PD's parameter; nullopt selects the paper-optimal alpha^(1-alpha).
  std::optional<double> delta;
  /// Keep the per-arrival decision log behind decisions() (and the
  /// rejected marks of final_schedule()). The log grows one entry per
  /// arrival forever, so indefinitely-running serving layers turn it off —
  /// it is the one piece of state horizon compaction cannot bound.
  bool record_decisions = true;
};

/// Lightweight instrumentation, filled as arrivals are processed.
struct PdCounters {
  long long arrivals = 0;
  long long accepted = 0;
  long long rejected = 0;
  long long interval_splits = 0;     // online refinements (Section 3)
  long long horizon_extensions = 0;  // boundaries outside the known horizon
  long long curve_cache_hits = 0;      // curves served without rebuilding
  long long curve_cache_rebuilds = 0;  // curves (re)built from loads
  // Always 0: the paths they counted (the rejection screen and the lazy
  // route) are deleted, but perfbench still reads these three fields.
  long long window_prunes = 0;
  long long window_exact = 0;
  long long lazy_fast_path = 0;
  long long compactions = 0;           // advance_to passes that retired work
  long long compacted_intervals = 0;   // intervals retired behind the frontier
  std::size_t max_intervals = 0;     // partition size high-water mark
  std::size_t max_window = 0;        // largest availability window seen

  /// Aggregation across independent schedulers (shards, sweeps): counts
  /// add, high-water marks take the max. Implemented over the reflection
  /// table below so a new counter cannot be dropped from snapshots.
  PdCounters& operator+=(const PdCounters& other);
  friend PdCounters operator+(PdCounters lhs, const PdCounters& rhs) {
    lhs += rhs;
    return lhs;
  }
};

/// Named-counter reflection table: the single source of truth walked by
/// PdCounters::operator+= (snapshot aggregation), io::save_counters /
/// io::load_counters (checkpoint wire order == table order), and the
/// coverage unit test in tests/test_core.cpp. Adding a PdCounters field
/// without a row here fails that test — the aggregation gap this table
/// closes is a counter that silently vanishes from EngineSnapshot totals
/// and checkpoints.
struct PdCounterField {
  enum class Kind { kAdd, kMax };
  const char* name;
  Kind kind;
  long long PdCounters::*count;   // set for kAdd rows
  std::size_t PdCounters::*mark;  // set for kMax rows
};

inline constexpr PdCounterField kPdCounterFields[] = {
    {"arrivals", PdCounterField::Kind::kAdd, &PdCounters::arrivals, nullptr},
    {"accepted", PdCounterField::Kind::kAdd, &PdCounters::accepted, nullptr},
    {"rejected", PdCounterField::Kind::kAdd, &PdCounters::rejected, nullptr},
    {"interval_splits", PdCounterField::Kind::kAdd,
     &PdCounters::interval_splits, nullptr},
    {"horizon_extensions", PdCounterField::Kind::kAdd,
     &PdCounters::horizon_extensions, nullptr},
    {"curve_cache_hits", PdCounterField::Kind::kAdd,
     &PdCounters::curve_cache_hits, nullptr},
    {"curve_cache_rebuilds", PdCounterField::Kind::kAdd,
     &PdCounters::curve_cache_rebuilds, nullptr},
    {"window_prunes", PdCounterField::Kind::kAdd, &PdCounters::window_prunes,
     nullptr},
    {"window_exact", PdCounterField::Kind::kAdd, &PdCounters::window_exact,
     nullptr},
    {"lazy_fast_path", PdCounterField::Kind::kAdd,
     &PdCounters::lazy_fast_path, nullptr},
    {"compactions", PdCounterField::Kind::kAdd, &PdCounters::compactions,
     nullptr},
    {"compacted_intervals", PdCounterField::Kind::kAdd,
     &PdCounters::compacted_intervals, nullptr},
    {"max_intervals", PdCounterField::Kind::kMax, nullptr,
     &PdCounters::max_intervals},
    {"max_window", PdCounterField::Kind::kMax, nullptr,
     &PdCounters::max_window},
};

inline PdCounters& PdCounters::operator+=(const PdCounters& other) {
  for (const PdCounterField& f : kPdCounterFields) {
    if (f.kind == PdCounterField::Kind::kAdd)
      this->*(f.count) += other.*(f.count);
    else
      this->*(f.mark) = std::max(this->*(f.mark), other.*(f.mark));
  }
  return *this;
}

struct ArrivalDecision {
  bool accepted = false;
  /// Own-speed s* at which the job was planned (accepted), or the rejection
  /// speed it failed to meet (rejected).
  double speed = 0.0;
  /// Final dual variable lambda-tilde_j.
  double lambda = 0.0;
  /// Planned energy PD would invest into the job at commit time.
  double planned_energy = 0.0;
};

/// Incremental online scheduler. Jobs must arrive in nondecreasing release
/// order; the final schedule is the Chen et al. realization of the committed
/// assignment (Section 3).
///
/// One engine: the online state lives in the stable-handle
/// model::IntervalStore (O(log n) Section-3 refinements). Every arrival is
/// decided by the one exact water fill over the CurveCache insertion curves
/// (LazyLinearSum view), and an accept writes its per-interval loads. An
/// accept costs O(window) by nature, and so does a rejection; the decision
/// stream is bitwise identical to the stateless contiguous reference in
/// tests/support/reference_pd, the test-only oracle every differential
/// suite compares against.
class PdScheduler {
 public:
  PdScheduler(model::Machine machine, PdOptions options = {});

  /// Processes one arrival and commits the decision.
  ArrivalDecision on_arrival(const model::Job& job);

  /// Advances the release-order monotonicity clock to t without an arrival
  /// — structure-free: no boundary is inserted and no cache is dirtied, so
  /// a periodic heartbeat leaves the partition exactly as arrivals built
  /// it. With compact = true, additionally retires every interval ending
  /// at or before the frontier t - util::clock_tol(t): the retired prefix's
  /// energy moves into retired_energy(), its store/cache state is
  /// reclaimed, and — because any future arrival has release within
  /// clock_tol of t or later — every subsequent decision is bitwise
  /// identical to the uncompacted run (tests/test_compaction.cpp).
  void advance_to(double t, bool compact = false);

  /// Returns the scheduler to its freshly-constructed state (machine,
  /// delta and record_decisions are kept). The session-reuse entry
  /// point for the stream engine: a pooled scheduler object is reset and
  /// handed to the next stream instead of being destroyed and reallocated.
  void reset();

  /// The committed partition / assignment, materialized from the interval
  /// store into a member buffer on every call — O(n), meant for inspection
  /// and end-of-run consumers, not for the arrival hot path. A returned
  /// reference is invalidated by the next call to the same accessor.
  [[nodiscard]] const model::TimePartition& partition() const {
    partition_snapshot_ = state_.store.snapshot_partition();
    return partition_snapshot_;
  }
  [[nodiscard]] const model::WorkAssignment& assignment() const {
    assignment_snapshot_ = state_.store.snapshot_assignment();
    return assignment_snapshot_;
  }
  [[nodiscard]] double delta() const { return delta_; }

  /// Total energy of the committed plan (sum of interval P_k), including
  /// the energy of intervals retired by compaction. Walks the store with
  /// no snapshot. Bitwise identical to convex::assignment_energy on the
  /// snapshots and to the uncompacted engine's value: compaction and this
  /// walk run the same left-to-right non-empty-interval summation.
  [[nodiscard]] double planned_energy() const;

  /// Energy already accounted to compacted (retired) intervals.
  [[nodiscard]] double retired_energy() const { return retired_energy_; }

  /// Live (non-retired) interval count — the flat-memory soak metric.
  [[nodiscard]] std::size_t live_intervals() const {
    return state_.num_intervals();
  }
  /// Slab footprint proxy: handle-space of the interval store. Stays
  /// bounded under steady-state compaction because freed handles are
  /// recycled.
  [[nodiscard]] std::size_t handle_space() const {
    return state_.store.handle_space();
  }

  /// Concrete migration schedule realizing the committed plan.
  [[nodiscard]] model::Schedule final_schedule() const;

  /// Decisions in arrival order (empty when record_decisions is off).
  [[nodiscard]] const std::vector<std::pair<model::JobId, ArrivalDecision>>&
  decisions() const {
    return decisions_;
  }

  [[nodiscard]] const PdCounters& counters() const { return counters_; }

 private:
  friend void io::save_scheduler(std::ostream&, const core::PdScheduler&);
  friend void io::load_scheduler(std::istream&, core::PdScheduler&);

  /// Retires every interval ending at or before `frontier`: accumulates
  /// their energy and reclaims store/cache state.
  void compact_before(double frontier);

  /// `energy` plus the energy of the intervals from the front that end at
  /// or before `frontier`, summed left to right over non-empty intervals.
  [[nodiscard]] double energy_before(double frontier, double energy) const;

  model::Machine machine_;
  double delta_;
  bool record_decisions_;
  OnlineState state_;
  CurveCache cache_;
  // The water fill's working buffers, reused across arrivals.
  convex::Placement placement_;
  std::vector<double> fill_terms_;
  // Snapshot buffers backing the partition()/assignment() accessors (cold
  // path; see the accessor comment).
  mutable model::TimePartition partition_snapshot_;
  mutable model::WorkAssignment assignment_snapshot_;
  std::vector<std::pair<model::JobId, ArrivalDecision>> decisions_;
  std::vector<model::IntervalStore::Handle> freed_scratch_;  // compaction
  PdCounters counters_;
  double retired_energy_ = 0.0;
  double last_release_ = -1.0;
  bool first_arrival_ = true;
};

}  // namespace pss::core

// Test-only reference oracle for the online PD schedulers.
//
// The production engines (core::PdScheduler and core::run_fractional_pd)
// keep their state in model::IntervalStore and place arrivals through the
// core::CurveCache insertion curves and the lazy-sum water fill, with no
// shortcut on any arrival. This oracle is the root reference both are
// held against bit for bit: the contiguous
// TimePartition + WorkAssignment refinement of Section 3 and the stateless
// convex::water_fill / convex::window_capacity scans, which rebuild every
// insertion curve of the window on every arrival. It is slow
// on purpose, has no options beyond delta, and is never linked into the
// library — it builds as the pss_reference library for the test suites and
// the bench drivers' in-driver guards.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/fractional_pd.hpp"
#include "core/pd_scheduler.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"

namespace pss::reference {

/// The contiguous online state: a TimePartition kept in lockstep with a
/// WorkAssignment whose committed loads split proportionally. Every
/// refinement shifts vector tails, so ensure_boundary is O(n).
struct ContiguousState {
  model::TimePartition partition;
  model::WorkAssignment assignment;
  long long interval_splits = 0;
  long long horizon_extensions = 0;

  /// Makes t a boundary (split, append, prepend or bootstrap).
  void ensure_boundary(double t);

  [[nodiscard]] std::size_t num_intervals() const {
    return partition.num_intervals();
  }
};

/// Stateless integral PD (Listing 1) over the contiguous state.
class ReferencePd {
 public:
  /// delta = nullopt selects the paper-optimal alpha^(1-alpha), as in
  /// core::PdOptions.
  explicit ReferencePd(model::Machine machine,
                       std::optional<double> delta = {});

  core::ArrivalDecision on_arrival(const model::Job& job);

  [[nodiscard]] const ContiguousState& state() const { return state_; }
  [[nodiscard]] const model::TimePartition& partition() const {
    return state_.partition;
  }
  [[nodiscard]] const model::WorkAssignment& assignment() const {
    return state_.assignment;
  }
  [[nodiscard]] double delta() const { return delta_; }
  [[nodiscard]] double planned_energy() const;
  [[nodiscard]] model::Schedule final_schedule() const;
  [[nodiscard]] const std::vector<std::pair<model::JobId,
                                            core::ArrivalDecision>>&
  decisions() const {
    return decisions_;
  }

 private:
  model::Machine machine_;
  double delta_;
  ContiguousState state_;
  std::vector<std::pair<model::JobId, core::ArrivalDecision>> decisions_;
  double last_release_ = -1.0;
  bool first_arrival_ = true;
};

/// Stateless fractional PD over the contiguous state; delta = nullopt
/// selects 1, as in core::run_fractional_pd.
[[nodiscard]] core::FractionalPdResult run_fractional_pd(
    const model::Instance& instance, std::optional<double> delta = {});

}  // namespace pss::reference

// Water-filling placement of one job across atomic intervals.
//
// Given the committed loads of all other jobs, placing `work` units for a
// new job at minimum energy means running it at one uniform own-speed s*
// across every interval where that is cheapest (equal marginal energy,
// Proposition 1(b)). The per-interval insertion curves z_k(s) from
// src/chen compose additively: Z(s) = sum_k z_k(s) is the total work the
// window absorbs at level s, and s* = Z^{-1}(work).
//
// This single primitive implements, with different speed caps:
//   * the greedy variable increase of the PD algorithm (Listing 1), where
//     the cap is the rejection speed v_j-derived bound, and
//   * the exact per-job block minimization inside the offline convex solver
//     (cap = infinity).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/interval_store.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::convex {

struct Placement {
  double speed = 0.0;            // uniform own-speed s*
  std::vector<double> amounts;   // loads per interval of the window
  double placed = 0.0;           // total amount placed (== requested work)
};

/// Places `work` units into intervals [window.first, window.last), holding
/// all loads in `assignment` fixed except those of `ignore_job` (pass the
/// job's own id when re-placing it, -1 otherwise).
///
/// If the window cannot absorb `work` at own-speed <= max_speed, returns
/// nullopt (the PD rejection branch). max_speed = +infinity always places.
[[nodiscard]] std::optional<Placement> water_fill(
    const model::WorkAssignment& assignment,
    const model::TimePartition& partition, int num_processors,
    model::IntervalRange window, double work, double max_speed,
    model::JobId ignore_job = -1);

/// Incremental variant of water_fill over pre-built per-interval insertion
/// curves (one per window interval, from core::CurveCache — the placement
/// the online schedulers run). Inverts Z(s) through a util::LazyLinearSum
/// view instead of materializing the summed curve, which drops the
/// per-arrival cost from O(N*W) to O(N log N) for N total knots over W
/// intervals. Bitwise decision-identical to the stateless overload above,
/// which the test-only reference oracle runs (tests/test_differential.cpp).
///
/// Returns false (the PD rejection branch; `out` untouched) if the window
/// cannot absorb `work` at own-speed <= max_speed; otherwise fills `out`
/// and returns true. `terms` is the sum view's term buffer. Both are the
/// caller's and keep their capacity, so a call with warmed buffers
/// allocates nothing.
[[nodiscard]] bool water_fill_over_curves(
    std::span<const util::PiecewiseLinear* const> curves, double work,
    double max_speed, std::vector<double>& terms, Placement& out);

/// Total work the window can absorb at own-speed exactly `speed`
/// (the Z(s) above); used by tests and the rejection rule.
[[nodiscard]] double window_capacity(const model::WorkAssignment& assignment,
                                     const model::TimePartition& partition,
                                     int num_processors,
                                     model::IntervalRange window, double speed,
                                     model::JobId ignore_job = -1);

/// Capacity over the interval store (fractional PD's exact scan);
/// bitwise-identical summation order to the contiguous overload.
[[nodiscard]] double window_capacity(const model::IntervalStore& store,
                                     int num_processors,
                                     model::IntervalRange window, double speed,
                                     model::JobId ignore_job = -1);

}  // namespace pss::convex

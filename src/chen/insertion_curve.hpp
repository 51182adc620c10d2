// Insertion curves z_k(s): the exact amount of work a *new* job can be given
// in one atomic interval such that Chen et al.'s schedule processes that job
// at uniform own-speed s, with all other loads held fixed.
//
// This function is the inverse view of Proposition 1(b): the marginal energy
// cost of the new job's load is P'(s_j), so raising its dual variable
// corresponds to raising s, and z_k(s) tells how much primal mass that buys.
// Closed form (from the dedicated/pool split of interval_schedule.hpp): with
//   D(s) = { i : u_i > s*l },  d = |D(s)|,  R(s) = sum of the other loads,
//   z_k(s) = max(0, min( (m - d(s))*l*s - R(s),  s*l ))
// The min's first branch is "the job joins the pool at level s" (raising the
// common pool level); the second is "the job gets a dedicated processor".
// z_k is continuous, nondecreasing and piecewise linear; Proposition 2 is the
// structural reason it is well-behaved under arrivals.
#pragma once

#include <vector>

#include "model/work_assignment.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::chen {

/// Direct evaluation of z_k(s) for one speed (O(log p) after sorting).
/// `sorted_loads` must be the other jobs' loads sorted descending.
[[nodiscard]] double insertion_amount(
    const std::vector<double>& sorted_loads_desc, int num_processors,
    double length, double speed);

/// Reusable working memory of build_insertion_curve: the positive loads
/// sorted descending and their prefix sums. Holding one across rebuilds
/// makes a rebuild allocation-free once the buffers have grown to the
/// largest load count seen.
struct InsertionScratch {
  std::vector<double> sorted;
  std::vector<double> prefix;
};

/// Builds the full piecewise-linear curve z_k of an interval straight from
/// its committed loads, skipping `ignore_job` (pass -1 to keep every load),
/// into `out`, reusing `out`'s knot buffer and `scratch`. The one curve
/// algorithm: the insertion_curve overloads below wrap it, and the
/// scheduler's per-interval curve cache rebuilds through it in place.
/// The curve starts at s = 0 with z = 0 and has final slope l.
void build_insertion_curve(const std::vector<model::Load>& loads,
                           model::JobId ignore_job, int num_processors,
                           double length, InsertionScratch& scratch,
                           util::PiecewiseLinear& out);

/// The same curve from bare load amounts. `other_loads` need not be
/// sorted; nonpositive loads are ignored.
[[nodiscard]] util::PiecewiseLinear insertion_curve(
    std::vector<double> other_loads, int num_processors, double length);

/// The same curve from an interval's loads, skipping `ignore_job`.
[[nodiscard]] util::PiecewiseLinear insertion_curve(
    const std::vector<model::Load>& loads, model::JobId ignore_job,
    int num_processors, double length);

}  // namespace pss::chen

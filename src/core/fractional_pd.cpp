#include "core/fractional_pd.hpp"

#include <algorithm>
#include <cmath>

#include "chen/realize.hpp"
#include "convex/dual.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/online_state.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

FractionalPdResult run_fractional_pd(const model::Instance& instance,
                                     std::optional<double> delta) {
  PSS_REQUIRE(instance.num_jobs() > 0, "empty instance");
  const model::Machine machine = instance.machine();
  const double alpha = machine.alpha;
  const double price = delta.value_or(1.0);
  const model::PowerFunction power(alpha);

  OnlineState state;
  // Jobs are processed once each with instance-unique ids, so the screen's
  // all-loads bounds always describe the arriving job's exclusion view
  // exactly.
  CurveCache cache;
  FractionalPdResult result;
  result.fraction.assign(instance.num_jobs(), 0.0);
  result.lambda.assign(instance.num_jobs(), 0.0);

  for (const model::Job& job : instance.jobs_by_release()) {
    state.ensure_boundary(job.release);
    state.ensure_boundary(job.deadline);
    const auto window = state.store.range(job.release, job.deadline);
    const double s_cap = rejection_speed(job.value, job.work, alpha, price);

    // Certified shortcuts off the segment-tree bounds; anything
    // inconclusive computes the capacity with the exact scan.
    // A zero-value job has s_cap == 0 (finite): skip the screen — the
    // tree requires a positive speed — and let the exact scan return its
    // zero capacity as the oracle does.
    bool full_certified = false;
    if (std::isfinite(s_cap) && s_cap > 0.0) {
      const convex::CapacityBounds bounds = cache.window_capacity_bounds(
          state.store, machine.num_processors, window, s_cap);
      if (bounds.hi <= 1e-12 * job.work) {
        // capacity <= hi, so min(work, capacity) is below the dust
        // threshold — the fully-unserved branch, without the scan.
        ++result.window_prunes;
        result.lambda[std::size_t(job.id)] = job.value;
        continue;
      }
      if (bounds.lo >= job.work) {
        // capacity >= work, so min(work, capacity) == work bitwise.
        full_certified = true;
        ++result.window_prunes;
      } else {
        ++result.window_exact;
      }
    } else {
      ++result.window_exact;
    }

    // Work the window absorbs below the marginal price v_j; serve up to w.
    const double capacity =
        full_certified || !std::isfinite(s_cap)
            ? util::kInf
            : convex::window_capacity(state.store, machine.num_processors,
                                      window, s_cap, job.id);
    const double target = std::min(job.work, capacity);
    if (target <= 1e-12 * job.work) {
      result.lambda[std::size_t(job.id)] = job.value;
      continue;  // fully unserved
    }
    const auto curves = cache.curves_for(state.store, machine.num_processors,
                                         window, job.id);
    const auto placement =
        convex::water_fill_over_curves(curves, target, util::kInf);
    PSS_CHECK(placement.has_value(), "fractional placement failed");
    model::IntervalStore::Handle h = state.store.handle_at(window.first);
    for (std::size_t i = 0; i < window.size(); ++i) {
      state.store.set_load(h, job.id, placement->amounts[i]);
      cache.note_load_changed(h);
      h = state.store.next_handle(h);
    }
    result.fraction[std::size_t(job.id)] = target / job.work;
    // Full service below the cap fixes lambda at the realized marginal;
    // partial service means the marginal hit the price v_j.
    result.lambda[std::size_t(job.id)] =
        target < job.work ? job.value
                          : price * job.work * power.derivative(
                                                   placement->speed);
  }

  result.partition = state.store.snapshot_partition();
  result.assignment = state.store.snapshot_assignment();
  result.schedule = chen::realize_assignment(
      result.assignment, result.partition, machine.num_processors);
  result.energy = convex::assignment_energy(
      result.assignment, result.partition, machine.num_processors, alpha);
  for (const model::Job& job : instance.jobs())
    if (job.rejectable())
      result.lost_value +=
          (1.0 - result.fraction[std::size_t(job.id)]) * job.value;
  result.dual_lower_bound =
      convex::dual_value(instance, result.partition, result.lambda).value;
  return result;
}

}  // namespace pss::core

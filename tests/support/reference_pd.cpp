#include "support/reference_pd.hpp"

#include <algorithm>
#include <cmath>

#include "chen/realize.hpp"
#include "convex/dual.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::reference {

void ContiguousState::ensure_boundary(double t) {
  if (partition.has_boundary(t)) return;
  if (partition.boundaries().size() < 2) {
    partition.insert_boundary(t);
    if (partition.boundaries().size() == 2) assignment.append_interval();
    return;
  }
  const double lo = partition.boundaries().front();
  const double hi = partition.boundaries().back();
  const std::size_t split = partition.insert_boundary(t);
  if (split != std::size_t(-1)) {
    const double frac = (t - partition.start(split)) /
                        (partition.end(split + 1) - partition.start(split));
    assignment.split_interval(split, frac);
    ++interval_splits;
  } else if (t > hi) {
    assignment.append_interval();
    ++horizon_extensions;
  } else if (t < lo) {
    assignment.prepend_interval();
    ++horizon_extensions;
  }
  PSS_CHECK(assignment.num_intervals() == partition.num_intervals(),
            "assignment drifted from partition");
}

ReferencePd::ReferencePd(model::Machine machine, std::optional<double> delta)
    : machine_(machine),
      delta_(delta.value_or(core::optimal_delta(machine.alpha))) {
  PSS_REQUIRE(machine_.num_processors >= 1, "need at least one processor");
  PSS_REQUIRE(delta_ > 0.0, "delta must be positive");
}

core::ArrivalDecision ReferencePd::on_arrival(const model::Job& job) {
  PSS_REQUIRE(job.deadline > job.release, "bad job window");
  PSS_REQUIRE(job.work > 0.0, "job work must be positive");
  PSS_REQUIRE(first_arrival_ ||
                  job.release >= last_release_ - util::clock_tol(last_release_),
              "jobs must arrive in nondecreasing release order");
  last_release_ = std::max(last_release_, job.release);
  first_arrival_ = false;
  state_.ensure_boundary(job.release);
  state_.ensure_boundary(job.deadline);

  const double alpha = machine_.alpha;
  const model::IntervalRange window = state_.partition.job_range(job);
  const double s_reject =
      core::rejection_speed(job.value, job.work, alpha, delta_);
  const auto placement = convex::water_fill(
      state_.assignment, state_.partition, machine_.num_processors, window,
      job.work, s_reject, job.id);

  core::ArrivalDecision decision;
  if (!placement.has_value()) {
    // Line 12(b): the marginal hit v_j first.
    decision.speed = s_reject;
    decision.lambda = job.value;
  } else {
    // Line 11(a): full workload placed at uniform own-speed s*.
    decision.accepted = true;
    decision.speed = placement->speed;
    decision.lambda = delta_ * job.work *
                      model::PowerFunction(alpha).derivative(placement->speed);
    decision.planned_energy =
        job.work * util::pos_pow(placement->speed, alpha - 1.0);
    for (std::size_t i = 0; i < window.size(); ++i)
      state_.assignment.set_load(window.first + i, job.id,
                                 placement->amounts[i]);
  }
  decisions_.push_back({job.id, decision});
  return decision;
}

double ReferencePd::planned_energy() const {
  return convex::assignment_energy(state_.assignment, state_.partition,
                                   machine_.num_processors, machine_.alpha);
}

model::Schedule ReferencePd::final_schedule() const {
  model::Schedule schedule = chen::realize_assignment(
      state_.assignment, state_.partition, machine_.num_processors);
  for (const auto& [id, decision] : decisions_)
    if (!decision.accepted) schedule.mark_rejected(id);
  return schedule;
}

core::FractionalPdResult run_fractional_pd(const model::Instance& instance,
                                           std::optional<double> delta) {
  PSS_REQUIRE(instance.num_jobs() > 0, "empty instance");
  const model::Machine machine = instance.machine();
  const double alpha = machine.alpha;
  const double price = delta.value_or(1.0);
  const model::PowerFunction power(alpha);

  ContiguousState state;
  core::FractionalPdResult result;
  result.fraction.assign(instance.num_jobs(), 0.0);
  result.lambda.assign(instance.num_jobs(), 0.0);
  for (const model::Job& job : instance.jobs_by_release()) {
    state.ensure_boundary(job.release);
    state.ensure_boundary(job.deadline);
    const model::IntervalRange window = state.partition.job_range(job);
    const double s_cap = core::rejection_speed(job.value, job.work, alpha,
                                               price);
    // Work the window absorbs below the marginal price v_j; serve up to w.
    const double capacity =
        std::isfinite(s_cap)
            ? convex::window_capacity(state.assignment, state.partition,
                                      machine.num_processors, window, s_cap,
                                      job.id)
            : util::kInf;
    const double target = std::min(job.work, capacity);
    if (target <= 1e-12 * job.work) {
      result.lambda[std::size_t(job.id)] = job.value;
      continue;  // fully unserved
    }
    const auto placement =
        convex::water_fill(state.assignment, state.partition,
                           machine.num_processors, window, target,
                           util::kInf, job.id);
    PSS_CHECK(placement.has_value(), "fractional placement failed");
    for (std::size_t i = 0; i < window.size(); ++i)
      state.assignment.set_load(window.first + i, job.id,
                                placement->amounts[i]);
    result.fraction[std::size_t(job.id)] = target / job.work;
    result.lambda[std::size_t(job.id)] =
        target < job.work
            ? job.value
            : price * job.work * power.derivative(placement->speed);
  }

  result.partition = state.partition;
  result.assignment = state.assignment;
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

}  // namespace pss::reference

#include "core/pd_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "chen/interval_schedule.hpp"
#include "chen/realize.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

PdScheduler::PdScheduler(model::Machine machine, PdOptions options)
    : machine_(machine),
      delta_(options.delta.value_or(optimal_delta(machine.alpha))),
      record_decisions_(options.record_decisions) {
  PSS_REQUIRE(machine_.num_processors >= 1, "need at least one processor");
  PSS_REQUIRE(machine_.alpha > 1.0, "alpha must exceed 1");
  PSS_REQUIRE(delta_ > 0.0, "delta must be positive");
}

void PdScheduler::advance_to(double t, bool compact) {
  PSS_REQUIRE(std::isfinite(t), "advance target must be finite");
  PSS_REQUIRE(first_arrival_ ||
                  t >= last_release_ - util::clock_tol(last_release_),
              "advance_to must move the clock forward");
  // Structure-free on purpose: a pure clock advance inserts no boundary
  // and dirties no cache, so heartbeat ticks cannot grow the partition.
  first_arrival_ = false;
  last_release_ = std::max(last_release_, t);
  if (compact) compact_before(t - util::clock_tol(t));
}

void PdScheduler::compact_before(double frontier) {
  model::IntervalStore& store = state_.store;
  if (store.num_intervals() == 0) return;
  // Fast exit for the common per-tick case: nothing retires.
  if (store.end_of(store.front_handle()) > frontier) return;
  retired_energy_ = energy_before(frontier, retired_energy_);
  freed_scratch_.clear();
  const std::size_t retired = store.compact_before(frontier, freed_scratch_);
  if (retired == 0) return;
  cache_.on_compacted(freed_scratch_);
  ++counters_.compactions;
  counters_.compacted_intervals += static_cast<long long>(retired);
}

void PdScheduler::reset() {
  // Drops the session's interval store, cached curves and load lists with
  // their heap capacity; only small working buffers (the cache's slot
  // slab and rebuild scratch, the water-fill buffers) keep theirs.
  // Recycling that capacity across sessions would remove nearly every
  // allocation left on the arrival path (0.005 per arrival), but each
  // pooled scheduler would then hold its largest session's footprint:
  // serve-dense peak RSS rose from 29.5 to 37.2 MB (+25%) when tried.
  state_ = OnlineState{};
  cache_.reset();
  decisions_.clear();
  freed_scratch_.clear();
  counters_ = PdCounters{};
  retired_energy_ = 0.0;
  last_release_ = -1.0;
  first_arrival_ = true;
}

ArrivalDecision PdScheduler::on_arrival(const model::Job& job) {
  PSS_REQUIRE(job.deadline > job.release, "bad job window");
  PSS_REQUIRE(job.work > 0.0, "job work must be positive");
  PSS_REQUIRE(!first_arrival_
                  ? job.release >=
                        last_release_ - util::clock_tol(last_release_)
                  : true,
              "jobs must arrive in nondecreasing release order");
  last_release_ = std::max(last_release_, job.release);

  state_.ensure_boundary(job.release);
  first_arrival_ = false;
  state_.ensure_boundary(job.deadline);

  const double alpha = machine_.alpha;
  const model::PowerFunction power(alpha);
  const auto window = state_.store.range(job.release, job.deadline);
  const double s_reject = rejection_speed(job.value, job.work, alpha, delta_);

  // The one exact water fill over the window's insertion curves decides;
  // an accept commits one load per window interval.
  const auto curves = cache_.curves_for(state_.store, machine_.num_processors,
                                        window, job.id);
  const bool placed = convex::water_fill_over_curves(
      curves, job.work, s_reject, fill_terms_, placement_);

  ArrivalDecision decision;
  if (placed) {
    model::IntervalStore::Handle h = state_.store.handle_at(window.first);
    for (std::size_t i = 0; i < window.size(); ++i) {
      state_.store.set_load(h, job.id, placement_.amounts[i]);
      h = state_.store.next_handle(h);
    }
    // Line 11(a): full workload placed at uniform own-speed s*.
    decision.accepted = true;
    decision.speed = placement_.speed;
    decision.lambda = delta_ * job.work * power.derivative(placement_.speed);
    decision.planned_energy =
        job.work * util::pos_pow(placement_.speed, alpha - 1.0);
  } else {
    // Line 12(b): the marginal hit v_j first; nothing is committed and
    // lambda = v.
    decision.speed = s_reject;
    decision.lambda = job.value;
  }
  ++counters_.arrivals;
  (decision.accepted ? counters_.accepted : counters_.rejected) += 1;
  counters_.interval_splits = state_.interval_splits;
  counters_.horizon_extensions = state_.horizon_extensions;
  counters_.curve_cache_hits = cache_.stats().hits;
  counters_.curve_cache_rebuilds = cache_.stats().rebuilds;
  counters_.max_intervals =
      std::max(counters_.max_intervals, state_.num_intervals());
  counters_.max_window = std::max(counters_.max_window, window.size());
  if (record_decisions_) decisions_.push_back({job.id, decision});
  return decision;
}

double PdScheduler::energy_before(double frontier, double energy) const {
  // Left to right, skipping empty intervals: the order assignment_energy
  // sums in, so the retired accumulator continued over the live intervals
  // reproduces the uncompacted sum bitwise.
  const model::IntervalStore& store = state_.store;
  for (model::IntervalStore::Handle h = store.front_handle();
       h != model::IntervalStore::kNoHandle && store.end_of(h) <= frontier;
       h = store.next_handle(h)) {
    if (store.loads(h).empty()) continue;
    energy += chen::interval_energy(store.loads(h), machine_.num_processors,
                                    store.length_of(h), machine_.alpha);
  }
  return energy;
}

double PdScheduler::planned_energy() const {
  return energy_before(util::kInf, retired_energy_);
}

model::Schedule PdScheduler::final_schedule() const {
  model::Schedule schedule = chen::realize_assignment(
      state_.store.snapshot_assignment(), state_.store.snapshot_partition(),
      machine_.num_processors);
  for (const auto& [id, decision] : decisions_)
    if (!decision.accepted) schedule.mark_rejected(id);
  return schedule;
}

}  // namespace pss::core

// Fractional PD — the online algorithm the relaxed program (CP) suggests.
//
// The integral PD of Listing 1 makes an all-or-nothing call: if the window
// cannot absorb the whole workload below the rejection speed, the job is
// dropped and its full value lost. The convex relaxation (y in [0,1])
// instead permits partial service: place as much work as the window absorbs
// at marginal price up to v_j (the same water level s_rej as PD), and pay
// only the unserved fraction (1 - f_j) * v_j.
//
// This is the online counterpart of the per-job block step in
// convex::minimize_relaxed. Pricing matters: integral PD deliberately
// *overprices* energy (delta = alpha^(1-alpha) < 1 makes the priced
// marginal hit v while the true marginal energy is still v/delta > v) to
// hedge against future arrivals — correct for an all-or-nothing decision,
// but a guaranteed money-loser for marginal work. The fractional variant
// therefore defaults to true marginal-cost pricing, delta = 1: work is
// served exactly while its marginal energy cost is below the per-unit
// value, which makes each single arrival decision myopically optimal
// (matching minimize_relaxed's block step). Across a whole sequence the
// comparison with integral PD is empirical — served fractions occupy
// capacity integral PD would have kept free — and bench_tab_rejection
// quantifies it. The dual certificate applies unchanged: lambda_j = v_j
// for every partially served job, so g(lambda~) still lower-bounds the
// relaxed optimum (in the fractional-value cost model this targets).
//
// The engine shares PdScheduler's state (core::OnlineState) and insertion
// curves (core::CurveCache); every arrival scans its window exactly, as the
// reference oracle does.
#pragma once

#include <optional>
#include <vector>

#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"

namespace pss::core {

struct FractionalPdResult {
  model::Schedule schedule;
  model::WorkAssignment assignment;
  model::TimePartition partition;
  std::vector<double> fraction;  // served fraction f_j per job id
  std::vector<double> lambda;    // dual variable per job id
  double energy = 0.0;
  double lost_value = 0.0;       // sum over jobs of (1 - f_j) * v_j
  double dual_lower_bound = 0.0; // g(lambda) — bound on the relaxed optimum

  [[nodiscard]] double total_cost() const { return energy + lost_value; }
};

/// Runs fractional PD over the instance in release order. `delta` is the
/// pricing parameter; nullopt selects delta = 1 (true marginal-cost
/// pricing — see the header comment for why this differs from PD).
///
/// Every arrival takes the test-only reference oracle's path, in the same
/// arithmetic order, so every result stays bitwise identical to it: the
/// exact convex::window_capacity scan at the price speed, then — unless
/// the served target is below the dust threshold — the one exact water
/// fill over the CurveCache insertion curves.
[[nodiscard]] FractionalPdResult run_fractional_pd(
    const model::Instance& instance, std::optional<double> delta = {});

}  // namespace pss::core

#include "convex/water_fill.hpp"

#include <cmath>

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"
#include "util/pairwise_sum.hpp"

namespace pss::convex {

namespace {

std::vector<double> other_loads(const std::vector<model::Load>& all,
                                model::JobId ignore_job) {
  std::vector<double> loads;
  loads.reserve(all.size());
  for (const model::Load& l : all)
    if (l.job != ignore_job) loads.push_back(l.amount);
  return loads;
}

std::vector<double> other_loads(const model::WorkAssignment& assignment,
                                std::size_t k, model::JobId ignore_job) {
  return other_loads(assignment.loads(k), ignore_job);
}

// Window-order walk over the store: calls fn(handle, length) for each
// interval of `window`. Amortized O(1) per step after the O(log n) seek.
template <typename Fn>
void for_window(const model::IntervalStore& store, model::IntervalRange window,
                Fn&& fn) {
  model::IntervalStore::Handle h = store.handle_at(window.first);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const model::IntervalStore::Handle next = store.next_handle(h);
    const double end = next == model::IntervalStore::kNoHandle
                           ? store.back_boundary()
                           : store.start_of(next);
    fn(h, end - store.start_of(h));
    h = next;
  }
}

// Shared placement tail of both water-fill entry points. The reference and
// incremental paths must stay operation-for-operation identical here (dust
// cutoff, largest-share tie-break, residue absorption) — that is what the
// differential suite's bitwise equality rests on — so there is exactly one
// copy. `curve_at(i)` returns the i-th window interval's insertion curve.
template <typename CurveAt>
Placement build_placement(double work, double level, std::size_t num_curves,
                          const CurveAt& curve_at) {
  Placement placement;
  placement.speed = level;
  placement.amounts.resize(num_curves, 0.0);
  std::size_t largest = 0;
  for (std::size_t i = 0; i < num_curves; ++i) {
    double amount = curve_at(i).eval(level);
    if (amount < 1e-12 * work) amount = 0.0;  // drop floating-point dust
    placement.amounts[i] = amount;
    if (placement.amounts[i] > placement.amounts[largest]) largest = i;
  }
  // Canonical pairwise total (util/pairwise_sum.hpp), the order the
  // reference oracle sums in.
  const double placed = util::pairwise_sum(placement.amounts);
  // Absorb the inversion's floating-point residue into the largest share so
  // the job's committed total is exactly its workload.
  const double residue = work - placed;
  PSS_CHECK(std::abs(residue) <= 1e-7 * std::max(1.0, work),
            "water-filling residue too large");
  placement.amounts[largest] += residue;
  PSS_CHECK(placement.amounts[largest] >= 0.0, "negative corrected amount");
  placement.placed = work;
  return placement;
}

}  // namespace

std::optional<Placement> water_fill(const model::WorkAssignment& assignment,
                                    const model::TimePartition& partition,
                                    int num_processors,
                                    model::IntervalRange window, double work,
                                    double max_speed,
                                    model::JobId ignore_job) {
  PSS_REQUIRE(window.last <= partition.num_intervals(),
              "window exceeds partition");
  PSS_REQUIRE(window.first < window.last, "empty placement window");
  PSS_REQUIRE(work > 0.0, "work must be positive");
  PSS_REQUIRE(max_speed > 0.0, "max speed must be positive");

  std::vector<util::PiecewiseLinear> curves;
  curves.reserve(window.size());
  for (std::size_t k = window.first; k < window.last; ++k) {
    curves.push_back(chen::insertion_curve(
        other_loads(assignment, k, ignore_job), num_processors,
        partition.length(k)));
  }
  const util::PiecewiseLinear total = util::PiecewiseLinear::sum(curves);

  if (std::isfinite(max_speed) && total.eval(max_speed) < work)
    return std::nullopt;
  const std::optional<double> level = total.first_at_least(work);
  PSS_CHECK(level.has_value(),
            "unbounded-speed window must absorb any workload");
  PSS_CHECK(!std::isfinite(max_speed) || *level <= max_speed * (1.0 + 1e-9),
            "water level exceeded the verified cap");
  return build_placement(work, *level, curves.size(),
                         [&](std::size_t i) -> const util::PiecewiseLinear& {
                           return curves[i];
                         });
}

std::optional<Placement> water_fill_over_curves(
    std::span<const util::PiecewiseLinear* const> curves, double work,
    double max_speed) {
  PSS_REQUIRE(!curves.empty(), "empty placement window");
  PSS_REQUIRE(work > 0.0, "work must be positive");
  PSS_REQUIRE(max_speed > 0.0, "max speed must be positive");

  const util::LazyLinearSum total(curves);

  if (std::isfinite(max_speed) && total.eval(max_speed) < work)
    return std::nullopt;
  const std::optional<double> level = total.first_at_least(work);
  PSS_CHECK(level.has_value(),
            "unbounded-speed window must absorb any workload");
  PSS_CHECK(!std::isfinite(max_speed) || *level <= max_speed * (1.0 + 1e-9),
            "water level exceeded the verified cap");
  return build_placement(work, *level, curves.size(),
                         [&](std::size_t i) -> const util::PiecewiseLinear& {
                           return *curves[i];
                         });
}

double window_capacity(const model::WorkAssignment& assignment,
                       const model::TimePartition& partition,
                       int num_processors, model::IntervalRange window,
                       double speed, model::JobId ignore_job) {
  std::vector<double> amounts;
  amounts.reserve(window.size());
  for (std::size_t k = window.first; k < window.last; ++k) {
    std::vector<double> loads = other_loads(assignment, k, ignore_job);
    std::sort(loads.begin(), loads.end(), std::greater<>());
    amounts.push_back(chen::insertion_amount(loads, num_processors,
                                             partition.length(k), speed));
  }
  return util::pairwise_sum(amounts);
}

double window_capacity(const model::IntervalStore& store, int num_processors,
                       model::IntervalRange window, double speed,
                       model::JobId ignore_job) {
  std::vector<double> amounts;
  amounts.reserve(window.size());
  for_window(store, window, [&](model::IntervalStore::Handle h, double len) {
    std::vector<double> loads = other_loads(store.loads(h), ignore_job);
    std::sort(loads.begin(), loads.end(), std::greater<>());
    amounts.push_back(
        chen::insertion_amount(loads, num_processors, len, speed));
  });
  return util::pairwise_sum(amounts);
}

}  // namespace pss::convex

#include "chen/insertion_curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace pss::chen {

namespace {

/// d(s) and R(s) for sorted-descending loads: d = #loads strictly above
/// s*l, R = total minus the d largest.
struct PoolState {
  std::size_t dedicated;
  double pool_load;
};

PoolState pool_state(const std::vector<double>& sorted_desc,
                     const std::vector<double>& prefix_sums, double level) {
  // First index whose load is <= level  ==> number of loads > level.
  auto it = std::lower_bound(sorted_desc.begin(), sorted_desc.end(), level,
                             [](double load, double lv) { return load > lv; });
  const std::size_t d = std::size_t(it - sorted_desc.begin());
  const double total = prefix_sums.back();
  return {d, total - prefix_sums[d]};
}

/// Number of loads strictly above `level` in the sorted-descending `u` —
/// the count pool_state's binary search returns — moved from a previous
/// count `d`. Amortized O(1) per call while successive levels ascend.
std::size_t count_above(const std::vector<double>& u, std::size_t d,
                        double level) {
  while (d > 0 && !(u[d - 1] > level)) --d;
  while (d < u.size() && u[d] > level) ++d;
  return d;
}

/// The curve algorithm. `scratch.sorted` holds the raw load amounts on
/// entry; they are validated, filtered and sorted in place.
void build_from_amounts(int num_processors, double length,
                        InsertionScratch& scratch, util::PiecewiseLinear& out) {
  using Knot = util::PiecewiseLinear::Knot;
  std::vector<double>& u = scratch.sorted;
  std::size_t n = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double x = u[i];
    PSS_REQUIRE(x >= 0.0 && std::isfinite(x), "loads must be >= 0 and finite");
    if (x > 0.0) u[n++] = x;
  }
  u.resize(n);
  std::sort(u.begin(), u.end(), std::greater<>());
  std::vector<double>& prefix = scratch.prefix;
  prefix.assign(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + u[i];
  const double total = prefix.back();
  const std::size_t procs = std::size_t(num_processors);
  const double inf = std::numeric_limits<double>::infinity();

  out.rebuild(length, [&](std::vector<Knot>& knots) {
    // Candidate speeds where the curve can change slope, written ascending
    // and distinct as knot x's: 0 and the thresholds u_i / l (where a
    // dedicated job dissolves into the pool) — ascending because u is
    // sorted descending — and, inside each segment between consecutive
    // thresholds, the clamp crossings of the two min/max branches.
    std::size_t next = n;  // thresholds u[next-1]/l, .., u[0]/l remain
    std::size_t d = n;     // count_above cursor for the segment probes
    double a = 0.0;
    while (true) {
      knots.push_back({a, 0.0});
      double b = inf;
      while (next > 0) {
        const double t = u[--next] / length;
        if (t > a) {  // t == a: a duplicate threshold
          b = t;
          break;
        }
      }
      // Segment-constant pool state: probe just inside the segment.
      const double probe = std::isinf(b) ? a + 1.0 : 0.5 * (a + b);
      d = count_above(u, d, probe * length);
      if (d < procs) {
        const double c = (double(num_processors) - double(d)) * length;
        const double pool_load = total - prefix[d];
        // Pool branch c*s - R: its crossings with 0 and with length*s.
        // R/c <= R/(c-l), so they come out ascending.
        if (c > 0.0 && pool_load > 0.0) {
          const double zero_cross = pool_load / c;
          if (zero_cross > a && zero_cross < b)
            knots.push_back({zero_cross, 0.0});
        }
        if (c > length && pool_load > 0.0) {
          const double min_cross = pool_load / (c - length);
          if (min_cross > a && min_cross < b && knots.back().x != min_cross)
            knots.push_back({min_cross, 0.0});
        }
      }
      if (std::isinf(b)) break;
      a = b;
    }
    // One candidate beyond the largest threshold so the final linear piece
    // (slope l) anchors correctly even when the last crossing is far out.
    // Every candidate so far is at most total/l (u_0 <= total, and both
    // crossings divide R <= total by at least l), so 2*total/l + 1 lies
    // strictly above them all.
    knots.push_back({(total > 0.0 ? 2.0 * total / length : 1.0) + 1.0, 0.0});

    // z at each candidate, with the pool state moved along the ascending
    // speeds.
    d = n;
    for (Knot& k : knots) {
      const double s = k.x;
      double z = 0.0;
      if (s > 0.0) {
        d = count_above(u, d, s * length);
        if (d < procs) {
          const double c = (double(num_processors) - double(d)) * length;
          z = std::max(0.0, std::min(c * s - (total - prefix[d]), s * length));
        }
      }
      k.y = z;
    }
  });
}

}  // namespace

double insertion_amount(const std::vector<double>& sorted_loads_desc,
                        int num_processors, double length, double speed) {
  PSS_REQUIRE(num_processors >= 1 && length > 0.0, "bad interval parameters");
  if (speed <= 0.0) return 0.0;
  std::vector<double> prefix(sorted_loads_desc.size() + 1, 0.0);
  for (std::size_t i = 0; i < sorted_loads_desc.size(); ++i)
    prefix[i + 1] = prefix[i] + sorted_loads_desc[i];
  const PoolState st =
      pool_state(sorted_loads_desc, prefix, speed * length);
  if (st.dedicated >= std::size_t(num_processors)) return 0.0;
  const double pool_procs = double(num_processors) - double(st.dedicated);
  const double pool_branch = pool_procs * length * speed - st.pool_load;
  const double dedicated_branch = speed * length;
  return std::max(0.0, std::min(pool_branch, dedicated_branch));
}

void build_insertion_curve(const std::vector<model::Load>& loads,
                           model::JobId ignore_job, int num_processors,
                           double length, InsertionScratch& scratch,
                           util::PiecewiseLinear& out) {
  PSS_REQUIRE(num_processors >= 1 && length > 0.0, "bad interval parameters");
  scratch.sorted.clear();
  for (const model::Load& l : loads)
    if (l.job != ignore_job) scratch.sorted.push_back(l.amount);
  build_from_amounts(num_processors, length, scratch, out);
}

util::PiecewiseLinear insertion_curve(std::vector<double> other_loads,
                                      int num_processors, double length) {
  PSS_REQUIRE(num_processors >= 1 && length > 0.0, "bad interval parameters");
  InsertionScratch scratch{std::move(other_loads), {}};
  util::PiecewiseLinear curve;
  build_from_amounts(num_processors, length, scratch, curve);
  return curve;
}

util::PiecewiseLinear insertion_curve(const std::vector<model::Load>& loads,
                                      model::JobId ignore_job,
                                      int num_processors, double length) {
  InsertionScratch scratch;
  util::PiecewiseLinear curve;
  build_insertion_curve(loads, ignore_job, num_processors, length, scratch,
                        curve);
  return curve;
}

}  // namespace pss::chen

// Frozen reference for chen::build_insertion_curve's knot set.
//
// The allocation-heavy form of the insertion-curve algorithm the in-place
// builder replaced: it sorts the candidate speeds (0, the thresholds u_i/l,
// the per-segment clamp crossings and the top anchor) with std::sort +
// std::unique and finds every pool state by binary search, then applies
// from_knots' merge and clamp rules. Kept verbatim so tests can pin the
// production builder to it knot for knot, bit for bit — including the
// `top` quirk: `top` reads the last candidate *appended*, after the
// crossings, not the largest one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/piecewise_linear.hpp"

namespace pss::reference {

struct ReferenceCurve {
  std::vector<util::PiecewiseLinear::Knot> knots;
  double final_slope = 0.0;
};

inline ReferenceCurve reference_insertion_curve(std::vector<double> other_loads,
                                                int num_processors,
                                                double length) {
  using Knot = util::PiecewiseLinear::Knot;
  if (!(num_processors >= 1 && length > 0.0))
    throw std::invalid_argument("bad interval parameters");
  std::vector<double> u;
  for (double x : other_loads) {
    if (!(x >= 0.0 && std::isfinite(x)))
      throw std::invalid_argument("loads must be >= 0 and finite");
    if (x > 0.0) u.push_back(x);
  }
  std::sort(u.begin(), u.end(), std::greater<>());
  std::vector<double> prefix(u.size() + 1, 0.0);
  for (std::size_t i = 0; i < u.size(); ++i) prefix[i + 1] = prefix[i] + u[i];
  const double total = prefix.back();
  struct PoolState {
    std::size_t dedicated;
    double pool_load;
  };
  const auto pool_state = [&](double level) {
    auto it = std::lower_bound(u.begin(), u.end(), level,
                               [](double load, double lv) { return load > lv; });
    const std::size_t d = std::size_t(it - u.begin());
    return PoolState{d, total - prefix[d]};
  };

  std::vector<double> candidates{0.0};
  for (double load : u) candidates.push_back(load / length);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<double> extra;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const double a = candidates[i];
    const double b = (i + 1 < candidates.size()) ? candidates[i + 1] : inf;
    const double probe = std::isinf(b) ? a + 1.0 : 0.5 * (a + b);
    const PoolState st = pool_state(probe * length);
    if (st.dedicated >= std::size_t(num_processors)) continue;
    const double c = (double(num_processors) - double(st.dedicated)) * length;
    if (c > 0.0 && st.pool_load > 0.0) {
      const double zero_cross = st.pool_load / c;
      if (zero_cross > a && zero_cross < b) extra.push_back(zero_cross);
    }
    if (c > length && st.pool_load > 0.0) {
      const double min_cross = st.pool_load / (c - length);
      if (min_cross > a && min_cross < b) extra.push_back(min_cross);
    }
  }
  candidates.insert(candidates.end(), extra.begin(), extra.end());
  const double top = std::max(candidates.empty() ? 0.0 : candidates.back(),
                              (total > 0.0 ? 2.0 * total / length : 1.0));
  candidates.push_back(top + 1.0);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<Knot> raw;
  for (double s : candidates) {
    double z = 0.0;
    if (s > 0.0) {
      const PoolState st = pool_state(s * length);
      if (st.dedicated < std::size_t(num_processors)) {
        const double c =
            (double(num_processors) - double(st.dedicated)) * length;
        z = std::max(0.0, std::min(c * s - st.pool_load, s * length));
      }
    }
    raw.push_back({s, z});
  }

  // from_knots: merge duplicate x (keeping the larger y), clamp sub-ulp dips.
  ReferenceCurve curve;
  curve.final_slope = length;
  for (const Knot& k : raw) {
    if (!(std::isfinite(k.x) && std::isfinite(k.y)))
      throw std::invalid_argument("knot not finite");
    if (!curve.knots.empty()) {
      Knot& prev = curve.knots.back();
      if (k.x == prev.x) {
        prev.y = std::max(prev.y, k.y);
        continue;
      }
      if (!(prev.y - k.y <= 1e-9 * std::max(1.0, std::abs(prev.y))))
        throw std::invalid_argument("knots must be nondecreasing in y");
      curve.knots.push_back({k.x, std::max(k.y, prev.y)});
      continue;
    }
    curve.knots.push_back(k);
  }
  return curve;
}

}  // namespace pss::reference

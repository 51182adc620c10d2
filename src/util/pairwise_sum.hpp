// Canonical pairwise (tree-shaped) summation.
//
// The library's bitwise decision-identity contract requires the engine and
// the test-only reference oracle to accumulate window quantities — summed
// curve knots, placed amounts, window capacities — in exactly the same
// floating-point order. That one shared order is the balanced pairwise
// recursion
//
//   ps(x_1..x_n) = fl( ps(x_1..x_h) + ps(x_{h+1}..x_n) ),  h = floor(n/2),
//
// which every summing site on the decision path uses (PiecewiseLinear::
// sum, LazyLinearSum, water-fill placement, window capacities). Its
// worst-case relative error is O(log n · eps) rather than the O(n · eps) of
// a left-to-right scan, which keeps every numeric tolerance downstream
// tight on wide windows.
#pragma once

#include <cstddef>
#include <span>

namespace pss::util {

/// Sum of xs in the canonical pairwise order. Empty span sums to 0.0.
[[nodiscard]] double pairwise_sum(std::span<const double> xs);

}  // namespace pss::util

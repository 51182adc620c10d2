// Monotone (nondecreasing), continuous, piecewise-linear functions.
//
// These are the workhorse of the library's convex-optimization layer: the
// amount of work z_k(s) that can be inserted into an atomic interval at a
// uniform own-speed s is a nondecreasing piecewise-linear function of s
// (src/chen), and both the PD algorithm and the offline convex solver
// water-fill by inverting the *sum* of such curves (src/core, src/convex).
//
// A function is represented by its knots (x_i, y_i) with x strictly
// increasing, linear interpolation in between, and a final slope that
// extends the last segment to +infinity. The domain starts at the first
// knot's x.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace pss::util {

class PiecewiseLinear {
 public:
  struct Knot {
    double x;
    double y;
  };

  PiecewiseLinear() = default;

  /// Builds a function from knots. Knots must be sorted by x; exact
  /// duplicates in x are merged (keeping the last y). y must be
  /// nondecreasing up to a small tolerance (tiny violations from
  /// floating-point noise are clamped). final_slope must be >= 0.
  [[nodiscard]] static PiecewiseLinear from_knots(std::vector<Knot> knots,
                                                  double final_slope);

  /// In-place form of from_knots: `fill(buffer)` appends the raw knots to
  /// this function's cleared knot buffer, and from_knots' merge and clamp
  /// rules then run over that buffer in place. The buffer keeps its
  /// capacity, so rebuilding a curve whose knot count did not grow
  /// allocates nothing.
  template <typename Fill>
  void rebuild(double final_slope, Fill&& fill) {
    knots_.clear();
    std::forward<Fill>(fill)(knots_);
    normalize(final_slope);
  }

  /// The constant-zero function on [0, inf).
  [[nodiscard]] static PiecewiseLinear zero();

  /// Evaluate at x (x must be >= domain start).
  [[nodiscard]] double eval(double x) const;

  /// Smallest x with f(x) >= y, or nullopt if y is never reached
  /// (possible when the final slope is zero).
  [[nodiscard]] std::optional<double> first_at_least(double y) const;

  /// Pointwise sum. All summands must share a domain start.
  [[nodiscard]] static PiecewiseLinear sum(
      std::span<const PiecewiseLinear> fns);

  [[nodiscard]] const std::vector<Knot>& knots() const { return knots_; }
  [[nodiscard]] double final_slope() const { return final_slope_; }
  [[nodiscard]] double domain_start() const;
  [[nodiscard]] bool empty() const { return knots_.empty(); }

 private:
  /// from_knots' validation, duplicate-x merge and monotonicity clamp,
  /// applied to knots_ in place.
  void normalize(double final_slope);

  std::vector<Knot> knots_;
  double final_slope_ = 0.0;
};

/// Lazy pointwise sum over a fixed set of summands.
///
/// PiecewiseLinear::sum materializes the total by evaluating every summand
/// at every union knot — O(N * W) for N total knots over W summands. This
/// view materializes nothing: queries locate the union knots bracketing a
/// point through per-summand binary searches (O(W log K) each) and invert
/// the sum by bisection over those brackets, which is all the
/// water-filling inversion needs — one eval at the speed cap, one monotone
/// search for the level.
///
/// Query arithmetic mirrors sum() followed by eval()/first_at_least() on
/// the materialized total knot for knot (same summand order, same
/// interpolation formulas), so both routes return bit-identical results.
/// The one exception is sum()'s monotonicity clamp in from_knots, which
/// only engages on sub-ulp floating-point dips and is not reproduced here.
class LazyLinearSum {
 public:
  /// `fns` must be nonempty, all non-null and non-empty, sharing a domain
  /// start (the same preconditions as PiecewiseLinear::sum). `terms` is the
  /// caller's per-summand term buffer for the pairwise accumulation; a
  /// buffer reused across views stops allocating once it holds fns.size()
  /// terms. The summands and the buffer must outlive the view.
  LazyLinearSum(std::span<const PiecewiseLinear* const> fns,
                std::vector<double>& terms);

  /// Sum of the summands at x, interpolated between the union knots
  /// bracketing x exactly as eval() on the materialized total would.
  [[nodiscard]] double eval(double x) const;

  /// Smallest x with sum(x) >= y, or nullopt if y is never reached.
  [[nodiscard]] std::optional<double> first_at_least(double y) const;

  [[nodiscard]] double final_slope() const { return final_slope_; }

 private:
  struct Bracket {
    double lo;       // largest union knot <= x
    bool has_hi;     // false when x is at or past the last union knot
    double hi;       // smallest union knot > x (when has_hi)
  };
  [[nodiscard]] Bracket bracket(double x) const;
  [[nodiscard]] double sum_at(double x) const;

  std::span<const PiecewiseLinear* const> fns_;
  double front_ = 0.0;  // shared domain start (first union knot)
  double back_ = 0.0;   // last union knot
  double final_slope_ = 0.0;
  // Caller-owned per-summand term buffer for the canonical pairwise
  // accumulation in sum_at (written by the logically const queries).
  std::vector<double>* terms_;
};

}  // namespace pss::util

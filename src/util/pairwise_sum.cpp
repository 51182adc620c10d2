#include "util/pairwise_sum.hpp"

namespace pss::util {

double pairwise_sum(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  if (n == 1) return xs[0];
  if (n == 2) return xs[0] + xs[1];
  const std::size_t h = n / 2;
  return pairwise_sum(xs.first(h)) + pairwise_sum(xs.subspan(h));
}

}  // namespace pss::util

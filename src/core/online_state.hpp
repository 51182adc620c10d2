// Shared online state for arrival-driven schedulers: a time partition that
// refines as jobs reveal new boundaries, with committed loads that split
// proportionally (Section 3, "Concerning the Time Partitioning"). Used by
// both the integral PD scheduler and the fractional variant.
//
// The state lives in model::IntervalStore, an order-statistics indexed
// store with stable interval handles and O(log n) refinement. Caches keyed
// by handle need no structural mirroring at all — a split allocates a
// fresh handle for the right half and bumps epochs, which the
// epoch/length validation of CurveCache already detects. The contiguous
// TimePartition + WorkAssignment refinement survives only in the test-only
// reference oracle (tests/support/reference_pd).
#pragma once

#include <cstddef>

#include "model/interval_store.hpp"

namespace pss::core {

struct OnlineState {
  model::IntervalStore store;

  long long interval_splits = 0;
  long long horizon_extensions = 0;

  /// Makes t a boundary, splitting committed loads proportionally when t
  /// falls inside an existing interval. Handle-keyed cache entries survive
  /// refinements by construction.
  void ensure_boundary(double t) {
    switch (store.ensure_boundary(t)) {
      case model::IntervalStore::Refinement::kSplit:
        ++interval_splits;
        break;
      case model::IntervalStore::Refinement::kAppend:
      case model::IntervalStore::Refinement::kPrepend:
        ++horizon_extensions;
        break;
      case model::IntervalStore::Refinement::kNoop:
      case model::IntervalStore::Refinement::kBootstrap:
        break;
    }
  }

  [[nodiscard]] std::size_t num_intervals() const {
    return store.num_intervals();
  }
};

}  // namespace pss::core

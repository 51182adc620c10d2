#include "convex/curve_segment_tree.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::convex {

namespace {

// Relative slack applied at every combine so that floating-point rounding
// can never push the bound below the true value. Compounds to ~4e-11 over
// the ~40 levels of a million-node treap — far below the query slack.
constexpr double kCombineSlack = 1e-12;
// Final inflation of a query's accumulated bound. Chosen to dominate both
// the combine-slack compounding and the *reference path's* own summation
// rounding (a window-order sum of w terms is within ~w*eps relative of the
// exact value; w <= 1M gives ~1e-10, leaving two orders of margin). A
// decision certified under this bound is therefore a decision the exact
// linear scan would also take.
constexpr double kQuerySlack = 1e-8;

}  // namespace

std::size_t CurveSegmentTree::Summary::cell_of(double px) const {
  // Largest knot index i with x(i) <= px (px >= 0 == x(0) always).
  std::size_t lo = 0, hi = size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (x(mid) <= px)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

double CurveSegmentTree::Summary::point_hi(double px) const {
  const std::size_t i = cell_of(px);
  if (i + 1 == size()) return hi(i) + tail * (px - x(i));
  if (px == x(i)) return hi(i);
  const double t = (px - x(i)) / (x(i + 1) - x(i));
  return hi(i) + t * (hi(i + 1) - hi(i));
}

std::uint64_t CurveSegmentTree::priority_of(Handle h) {
  // Deterministic balanced shape from the dense handle ids, as in
  // util::OrderIndex.
  return util::splitmix64(h);
}

void CurveSegmentTree::clear() {
  nodes_.clear();
  root_ = kNull;
  synced_handles_ = 0;
  live_count_ = 0;
  stats_ = Stats{};
}

void CurveSegmentTree::mark_dirty(Handle h) {
  // A handle the tree has not absorbed yet will be inserted stale on the
  // next query, so an early mark needs no record; a dead slot's mark is
  // moot (its rebirth re-enters stale).
  if (!contains(h)) return;
  nodes_[h].self_stale = true;
  for (Handle cur = h; cur != kNull; cur = nodes_[cur].parent) {
    if (nodes_[cur].stale) break;  // invariant: stale implies stale ancestors
    nodes_[cur].stale = true;
  }
}

void CurveSegmentTree::rotate_up(Handle h) {
  const Handle p = nodes_[h].parent;
  const Handle g = nodes_[p].parent;
  if (nodes_[p].left == h) {
    nodes_[p].left = nodes_[h].right;
    if (nodes_[h].right != kNull) nodes_[nodes_[h].right].parent = p;
    nodes_[h].right = p;
  } else {
    nodes_[p].right = nodes_[h].left;
    if (nodes_[h].left != kNull) nodes_[nodes_[h].left].parent = p;
    nodes_[h].left = p;
  }
  nodes_[p].parent = h;
  nodes_[h].parent = g;
  if (g == kNull)
    root_ = h;
  else if (nodes_[g].left == p)
    nodes_[g].left = h;
  else
    nodes_[g].right = h;
  // Both rotated nodes changed children; their summaries must recombine.
  nodes_[p].stale = true;
  nodes_[h].stale = true;
}

void CurveSegmentTree::insert_node(Handle h, double key) {
  // Fresh handles extend the slab in allocation order; a recycled handle
  // overwrites its dead slot (absorb_recycled is the only caller that can
  // pass one).
  const bool fresh = std::size_t(h) == nodes_.size();
  PSS_REQUIRE(fresh || (std::size_t(h) < nodes_.size() && !nodes_[h].live),
              "handles must be absorbed in allocation order or recycled");
  Node node;
  node.key = key;
  node.live = true;
  if (root_ == kNull) {
    if (fresh)
      nodes_.push_back(node);
    else
      nodes_[h] = node;
    root_ = h;
    ++live_count_;
    return;
  }
  Handle cur = root_;
  while (true) {
    PSS_REQUIRE(key != nodes_[cur].key, "duplicate interval start");
    Handle& child =
        key < nodes_[cur].key ? nodes_[cur].left : nodes_[cur].right;
    if (child == kNull) {
      child = h;
      node.parent = cur;
      if (fresh)
        nodes_.push_back(node);
      else
        nodes_[h] = node;
      break;
    }
    cur = child;
  }
  ++live_count_;
  // The whole insertion path gains a new descendant: mark it stale without
  // the early exit, so the stale-implies-stale-ancestors invariant that
  // mark_dirty's early exit relies on survives the rotations below.
  for (Handle p = cur; p != kNull; p = nodes_[p].parent)
    nodes_[p].stale = true;
  const std::uint64_t prio = priority_of(h);
  while (nodes_[h].parent != kNull && priority_of(nodes_[h].parent) < prio)
    rotate_up(h);
}

void CurveSegmentTree::erase(Handle h) {
  if (!contains(h)) return;
  // The whole ancestor path loses a descendant; pre-mark it stale so the
  // rotations below (which only restale the two rotated nodes) cannot
  // break the stale-implies-stale-ancestors invariant.
  for (Handle p = h; p != kNull; p = nodes_[p].parent)
    nodes_[p].stale = true;
  // Rotate the node down to a leaf, promoting the higher-priority child so
  // the heap invariant holds everywhere else, then detach it.
  while (nodes_[h].left != kNull || nodes_[h].right != kNull) {
    const Handle l = nodes_[h].left;
    const Handle r = nodes_[h].right;
    Handle child;
    if (l == kNull)
      child = r;
    else if (r == kNull)
      child = l;
    else
      child = priority_of(l) > priority_of(r) ? l : r;
    rotate_up(child);
  }
  const Handle p = nodes_[h].parent;
  if (p == kNull) {
    root_ = kNull;
  } else {
    if (nodes_[p].left == h)
      nodes_[p].left = kNull;
    else
      nodes_[p].right = kNull;
  }
  nodes_[h] = Node{};  // releases the summary vectors; live = false
  --live_count_;
}

void CurveSegmentTree::dirty_predecessor(double key) {
  // If the just-inserted handle came from a split, its in-order
  // predecessor is the left half: same handle as before, new length and
  // divided loads, and no notification fires for it. Dirty the predecessor
  // unconditionally; for appends/prepends that merely recombines one clean
  // interval.
  Handle cur = root_;
  Handle pred = kNull;
  while (cur != kNull) {
    if (nodes_[cur].key < key) {
      pred = cur;
      cur = nodes_[cur].right;
    } else {
      cur = nodes_[cur].left;
    }
  }
  if (pred != kNull) mark_dirty(pred);
}

void CurveSegmentTree::absorb_recycled(Handle h, double key) {
  PSS_REQUIRE(std::size_t(h) < nodes_.size() && !nodes_[h].live,
              "absorb_recycled needs a dead absorbed slot");
  insert_node(h, key);
  dirty_predecessor(key);
  ++stats_.nodes_absorbed;
}

void CurveSegmentTree::absorb_new_handles(const model::IntervalStore& store) {
  const std::size_t space = store.handle_space();
  while (synced_handles_ < space) {
    const Handle h = Handle(synced_handles_++);
    // A handle can retire (or even retire-then-recycle-then-retire) before
    // its first query-time absorption; dead slots are skipped here and
    // re-enter through absorb_recycled when the store recycles them.
    if (!store.is_live(h)) {
      if (std::size_t(h) == nodes_.size()) nodes_.emplace_back();
      continue;
    }
    const double key = store.start_of(h);
    insert_node(h, key);
    dirty_predecessor(key);
    ++stats_.nodes_absorbed;
  }
}

void CurveSegmentTree::compress(Summary& s) {
  const std::size_t count = s.size();
  if (count <= kMaxKnots) return;
  // Kept knots balanced by upper-envelope rise (first and last always
  // kept), so value-flat stretches collapse into single cells.
  std::size_t kept[kMaxKnots];
  std::size_t nk = 0;
  kept[nk++] = 0;
  const double range = s.hi(count - 1) - s.hi(0);
  const double step = range > 0.0
                          ? range / double(kMaxKnots - 1)
                          : std::numeric_limits<double>::infinity();
  double next_target = s.hi(0) + step;
  for (std::size_t i = 1; i + 1 < count && nk + 1 < kMaxKnots; ++i) {
    if (s.hi(i) >= next_target) {
      kept[nk++] = i;
      next_target = s.hi(i) + step;
    }
  }
  kept[nk++] = count - 1;

  // Per kept cell, the old envelope's worst excess over the chord at the
  // dropped knots (piecewise-linear differences are extremal at knots).
  // Folding each knot's adjacent-cell excesses into the knot value keeps
  // the envelope continuous, which is what makes the next merge lossless:
  // the new segment through two raised knots lies above the old chord plus
  // its cell excess, hence above the old envelope.
  double excess[kMaxKnots] = {0.0};
  for (std::size_t c = 0; c + 1 < nk; ++c) {
    const std::size_t i = kept[c];
    const std::size_t e = kept[c + 1];
    const double x0 = s.x(i), x1 = s.x(e);
    const double hi0 = s.hi(i), hi1 = s.hi(e);
    double d = 0.0;
    for (std::size_t j = i + 1; j < e; ++j) {
      const double t = (s.x(j) - x0) / (x1 - x0);
      d = std::max(d, s.hi(j) - (hi0 + t * (hi1 - hi0)));
    }
    excess[c] = d;
  }

  std::vector<double>& packed = scratch_packed_;
  packed.clear();
  packed.reserve(2 * nk);
  for (std::size_t c = 0; c < nk; ++c) {
    const std::size_t i = kept[c];
    const double lift = std::max(c > 0 ? excess[c - 1] : 0.0,
                                 c + 1 < nk ? excess[c] : 0.0);
    packed.insert(packed.end(), {s.x(i), s.hi(i) + lift});
  }
  s.knots.swap(packed);
}

void CurveSegmentTree::combine(const Summary* a, const Summary& self,
                               const Summary* b, Summary& out) {
  const Summary* parts[3] = {a, &self, b};
  scratch_xs_.clear();
  for (const Summary* part : parts)
    if (part)
      for (std::size_t i = 0; i < part->size(); ++i)
        scratch_xs_.push_back(part->x(i));
  std::sort(scratch_xs_.begin(), scratch_xs_.end());
  scratch_xs_.erase(std::unique(scratch_xs_.begin(), scratch_xs_.end()),
                    scratch_xs_.end());

  // Merge: every part's envelope is linear between union knots, so
  // summing the evaluations at the union knots is lossless — looseness is
  // added only by compress().
  out.knots.clear();
  out.knots.reserve(2 * scratch_xs_.size());
  for (const double u : scratch_xs_) {
    double hi = 0.0;
    for (const Summary* part : parts)
      if (part) hi += part->point_hi(u);
    out.knots.insert(out.knots.end(), {u, hi * (1.0 + kCombineSlack)});
  }
  compress(out);

  double tail = self.tail;
  if (a) tail += a->tail;
  if (b) tail += b->tail;
  out.tail = tail * (1.0 + kCombineSlack);
}

void CurveSegmentTree::pull(Handle h, const model::IntervalStore& store,
                            const CurveFn& curve_of) {
  Node& n = nodes_[h];
  if (!n.stale) return;
  if (n.left != kNull) pull(n.left, store, curve_of);
  if (n.right != kNull) pull(n.right, store, curve_of);
  if (n.self_stale) {
    // Rebuild the interval's own compressed summary from its exact curve;
    // ancestors recombining over an unchanged interval reuse the stored
    // one, which is what keeps a wide flush cheap.
    const util::PiecewiseLinear& curve = curve_of(h);
    n.self.knots.clear();
    for (const util::PiecewiseLinear::Knot& k : curve.knots())
      n.self.knots.insert(n.self.knots.end(), {k.x, k.y});
    n.self.tail = curve.final_slope();
    compress(n.self);
    n.self_stale = false;
  }
  const Summary* left = n.left != kNull ? &nodes_[n.left].agg : nullptr;
  const Summary* right = n.right != kNull ? &nodes_[n.right].agg : nullptr;
  combine(left, n.self, right, n.agg);
  n.stale = false;
  ++stats_.node_pulls;
}

void CurveSegmentTree::accumulate_subtree(Handle h, double speed,
                                          double& hi) {
  if (h != kNull) hi += nodes_[h].agg.point_hi(speed);
}

void CurveSegmentTree::accumulate_ge(Handle h, double klo, double speed,
                                     const CurveFn& curve_of, double& hi) {
  while (h != kNull) {
    if (nodes_[h].key >= klo) {
      hi += curve_of(h).eval(speed);
      accumulate_subtree(nodes_[h].right, speed, hi);
      h = nodes_[h].left;
    } else {
      h = nodes_[h].right;
    }
  }
}

void CurveSegmentTree::accumulate_le(Handle h, double khi, double speed,
                                     const CurveFn& curve_of, double& hi) {
  while (h != kNull) {
    if (nodes_[h].key <= khi) {
      hi += curve_of(h).eval(speed);
      accumulate_subtree(nodes_[h].left, speed, hi);
      h = nodes_[h].right;
    } else {
      h = nodes_[h].left;
    }
  }
}

void CurveSegmentTree::accumulate(Handle h, double klo, double khi,
                                  double speed, const CurveFn& curve_of,
                                  double& hi) {
  while (h != kNull) {
    if (nodes_[h].key < klo) {
      h = nodes_[h].right;
    } else if (nodes_[h].key > khi) {
      h = nodes_[h].left;
    } else {
      // Split node: itself in range, the range continues into both sides.
      hi += curve_of(h).eval(speed);
      accumulate_ge(nodes_[h].left, klo, speed, curve_of, hi);
      accumulate_le(nodes_[h].right, khi, speed, curve_of, hi);
      return;
    }
  }
}

double CurveSegmentTree::window_capacity_bound(
    const model::IntervalStore& store, model::IntervalRange window,
    double speed, const CurveFn& curve_of) {
  PSS_REQUIRE(window.first < window.last, "empty placement window");
  PSS_REQUIRE(window.last <= store.num_intervals(), "window exceeds store");
  PSS_REQUIRE(speed > 0.0, "speed must be positive");
  absorb_new_handles(store);
  PSS_CHECK(live_count_ == store.num_intervals(),
            "segment tree drifted from store");
  if (nodes_[root_].stale) pull(root_, store, curve_of);
  const double klo = nodes_[store.handle_at(window.first)].key;
  const double khi = nodes_[store.handle_at(window.last - 1)].key;
  double hi = 0.0;
  accumulate(root_, klo, khi, speed, curve_of, hi);
  ++stats_.queries;
  return hi * (1.0 + kQuerySlack);
}

}  // namespace pss::convex

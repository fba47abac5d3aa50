// ZPL regions: dense rectangular index sets with inclusive bounds.
//
// A region factors the indices participating in an array statement out of
// the statement itself (ZPL's central abstraction). Regions support the
// geometric operations the runtime needs: shift by a direction, intersect,
// expand by fluff widths, boundary faces, and per-dimension slicing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>

#include "index/index.hh"
#include "support/error.hh"

namespace wavepipe {

/// A rank-R rectangular region [lo[0]..hi[0], ..., lo[R-1]..hi[R-1]] with
/// inclusive bounds, mirroring ZPL's `[2..n-1, 2..n-2]` notation. A region
/// with any hi[d] < lo[d] is empty.
template <Rank R>
class Region {
 public:
  constexpr Region() {
    // Default: canonical empty region.
    for (Rank d = 0; d < R; ++d) {
      lo_.v[d] = 0;
      hi_.v[d] = -1;
    }
  }

  constexpr Region(Idx<R> lo, Idx<R> hi) : lo_(lo), hi_(hi) {}

  /// [0..extent[d]-1] in every dimension.
  static constexpr Region from_extents(const Idx<R>& extents) {
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) hi.v[d] = extents.v[d] - 1;
    return Region(lo, hi);
  }

  constexpr const Idx<R>& lo() const { return lo_; }
  constexpr const Idx<R>& hi() const { return hi_; }
  constexpr Coord lo(Rank d) const { return lo_.v[d]; }
  constexpr Coord hi(Rank d) const { return hi_.v[d]; }

  /// Number of indices along dimension d (0 if empty along d).
  constexpr Coord extent(Rank d) const {
    return std::max<Coord>(0, hi_.v[d] - lo_.v[d] + 1);
  }

  constexpr bool empty() const {
    for (Rank d = 0; d < R; ++d)
      if (hi_.v[d] < lo_.v[d]) return true;
    return false;
  }

  /// Total number of indices.
  constexpr Coord size() const {
    Coord n = 1;
    for (Rank d = 0; d < R; ++d) n *= extent(d);
    return n;
  }

  constexpr bool contains(const Idx<R>& i) const {
    for (Rank d = 0; d < R; ++d)
      if (i.v[d] < lo_.v[d] || i.v[d] > hi_.v[d]) return false;
    return true;
  }

  constexpr bool contains(const Region& other) const {
    if (other.empty()) return true;
    for (Rank d = 0; d < R; ++d)
      if (other.lo_.v[d] < lo_.v[d] || other.hi_.v[d] > hi_.v[d]) return false;
    return true;
  }

  /// The region translated by `dir` (every index shifted). This is the index
  /// set the @-operator reads when the covering region is *this.
  constexpr Region shifted(const Direction<R>& dir) const {
    return Region(lo_ + dir, hi_ + dir);
  }

  constexpr Region intersect(const Region& other) const {
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = std::max(lo_.v[d], other.lo_.v[d]);
      hi.v[d] = std::min(hi_.v[d], other.hi_.v[d]);
    }
    return Region(lo, hi);
  }

  /// Grows the region by `width[d]` on both sides of each dimension
  /// (allocating fluff/ghost space).
  constexpr Region expanded(const Idx<R>& width) const {
    Idx<R> lo = lo_, hi = hi_;
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] -= width.v[d];
      hi.v[d] += width.v[d];
    }
    return Region(lo, hi);
  }

  /// Restricts dimension d to [a..b] (intersected with current bounds are
  /// NOT applied; caller controls). Used for tiles and faces.
  constexpr Region with_dim(Rank d, Coord a, Coord b) const {
    Region out = *this;
    out.lo_.v[d] = a;
    out.hi_.v[d] = b;
    return out;
  }

  /// The `width`-thick face of the region at the low end of dimension d
  /// (e.g. the northmost rows for d=0, width=1).
  constexpr Region low_face(Rank d, Coord width) const {
    return with_dim(d, lo_.v[d], lo_.v[d] + width - 1);
  }

  /// The `width`-thick face at the high end of dimension d.
  constexpr Region high_face(Rank d, Coord width) const {
    return with_dim(d, hi_.v[d] - width + 1, hi_.v[d]);
  }

  friend constexpr bool operator==(const Region&, const Region&) = default;

 private:
  Idx<R> lo_;
  Idx<R> hi_;
};

/// Calls `fn(idx)` for every index of `r` in canonical order: every
/// dimension ascending, dimension 0 outermost and the last dimension
/// innermost. On column-major arrays each step of that order jumps a whole
/// column; loops whose result does not depend on visit order walk storage
/// order instead (DenseArray::for_each_element), and executors that need
/// derived loop orders walk pencils (index/pencil.hh).
template <Rank R, typename Fn>
void for_each(const Region<R>& r, Fn&& fn) {
  if (r.empty()) return;
  Idx<R> i = r.lo();
  while (true) {
    fn(const_cast<const Idx<R>&>(i));
    Rank d = R;
    while (d > 0) {
      --d;
      if (i.v[d] < r.hi(d)) {
        ++i.v[d];
        break;
      }
      i.v[d] = r.lo(d);
      if (d == 0) return;
    }
  }
}

template <Rank R>
std::string to_string(const Region<R>& r) {
  std::string s = "[";
  for (Rank d = 0; d < R; ++d) {
    if (d) s += ", ";
    s += std::to_string(r.lo(d)) + ".." + std::to_string(r.hi(d));
  }
  return s + "]";
}

template <Rank R>
std::ostream& operator<<(std::ostream& os, const Region<R>& r) {
  return os << to_string(r);
}

}  // namespace wavepipe

// Loop structures and the pencil walker shared by every kernel loop.
//
// A pencil is a 1-D run of indices along one ("inner") dimension. Kernels
// resolve their array accesses once per pencil to a base pointer plus a
// stride and then walk plain memory, so the walker hands out whole pencils
// rather than single indices. Executors walk pencils in the loop order a
// scan block's dependences allow; loops whose result does not depend on
// visit order walk them in storage order (contiguous dimension innermost).
#pragma once

#include <array>

#include "index/region.hh"

namespace wavepipe {

/// A loop nest shape: order[0] is the outermost dimension; step[d] is +1
/// (ascending) or -1 (descending) for dimension d.
template <Rank R>
struct LoopStructure {
  std::array<Rank, R> order{};
  std::array<int, R> step{};

  friend bool operator==(const LoopStructure&, const LoopStructure&) = default;
};

/// All dimensions ascending; `inner` innermost, the others outside it in
/// declaration order. With `inner` the contiguous dimension this is storage
/// order; with `inner == R - 1` it is the canonical order for_each visits.
template <Rank R>
LoopStructure<R> ascending_loops(Rank inner) {
  LoopStructure<R> ls;
  Rank level = 0;
  for (Rank d = 0; d < R; ++d) {
    if (d != inner) ls.order[level++] = d;
    ls.step[d] = +1;
  }
  ls.order[R - 1] = inner;
  return ls;
}

/// Calls `fn(start, inner, step, count)` for every pencil of `region` under
/// the loop structure: `inner` is the innermost dimension, pencils iterate
/// it `count` times with stride `step`; outer dimensions advance in the
/// structure's order and directions.
template <Rank R, typename Fn>
void iterate_pencils(const Region<R>& region, const LoopStructure<R>& ls,
                     Fn&& fn) {
  if (region.empty()) return;
  const Rank inner = ls.order[R - 1];
  const Coord count = region.extent(inner);
  const Coord istep = ls.step[inner];

  Idx<R> idx{};
  for (Rank d = 0; d < R; ++d)
    idx.v[d] = ls.step[d] > 0 ? region.lo(d) : region.hi(d);

  if constexpr (R == 1) {
    fn(idx, inner, istep, count);
    return;
  }

  while (true) {
    fn(idx, inner, istep, count);
    // Advance the outer levels, innermost outer level first.
    Rank level = R - 1;
    bool done = false;
    while (true) {
      if (level == 0) {
        done = true;
        break;
      }
      --level;
      const Rank d = ls.order[level];
      idx.v[d] += ls.step[d];
      const bool inside = ls.step[d] > 0 ? idx.v[d] <= region.hi(d)
                                         : idx.v[d] >= region.lo(d);
      if (inside) break;
      idx.v[d] = ls.step[d] > 0 ? region.lo(d) : region.hi(d);
    }
    if (done) break;
  }
}

}  // namespace wavepipe

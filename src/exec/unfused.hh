// The unfused baseline executor: what a plain array language (no scan
// blocks) must do with a wavefront computation.
//
// Without scan blocks the programmer writes an explicit loop over the
// wavefront dimension and a sequence of array statements over the
// remaining-dimension slice (the paper's Fig 2(a)). When the compiler fails
// to fuse those statement loops and interchange them with the user loop —
// the pghpf -O1 failure the paper measured — execution looks like this:
//
//   for each wavefront slice (in travel order):
//     for each statement:
//       evaluate the RHS over the slice into a temporary   (canonical order)
//       copy the temporary into the LHS over the slice
//
// Canonical order iterates dimensions in declaration order, ascending;
// with column-major arrays that strides the slice, which is exactly the
// cache behaviour Fig 6 quantifies against the fused run_serial().
#pragma once

#include "exec/serial.hh"

namespace wavepipe {

/// Runs the plan with array-language (unfused, temporary-per-statement)
/// semantics. Results are identical to run_serial(); only the execution
/// schedule differs.
///
/// The explicit user loops cover every dimension that carries a dependence
/// (for Tomcatv that is just the wavefront dimension — one explicit loop of
/// array statements over row slices, Fig 2(a); for natural-ordering SOR or
/// Smith-Waterman both dimensions carry dependences and the slices shrink
/// to scalars, which is precisely why such codes are painful in a plain
/// array language). A fully parallel plan is a single slice.
template <Rank R>
void run_unfused(const WavefrontPlan<R>& plan) {
  validate_coverage(plan, plan.region);
  const Region<R>& region = plan.region;

  // Dimensions needing explicit user loops: any with a nonzero dependence
  // component.
  std::array<bool, R> sliced{};
  for (const auto& c : plan.constraints)
    for (Rank d = 0; d < R; ++d)
      if (c.v[d] != 0) sliced[d] = true;

  // Enumerate slices: odometer over the sliced dimensions in the derived
  // loop order and directions (outermost first).
  std::vector<Rank> loop_dims;
  for (Rank level = 0; level < R; ++level) {
    const Rank d = plan.loops.order[level];
    if (sliced[d] && region.extent(d) > 0) loop_dims.push_back(d);
  }
  std::vector<Region<R>> slices;
  if (loop_dims.empty()) {
    slices.push_back(region);
  } else {
    Idx<R> pos{};
    for (Rank d : loop_dims)
      pos.v[d] = plan.loops.step[d] > 0 ? region.lo(d) : region.hi(d);
    while (true) {
      Region<R> s = region;
      for (Rank d : loop_dims) s = s.with_dim(d, pos.v[d], pos.v[d]);
      slices.push_back(s);
      // Advance the innermost loop dim first.
      std::size_t k = loop_dims.size();
      bool done = false;
      while (true) {
        if (k == 0) {
          done = true;
          break;
        }
        --k;
        const Rank d = loop_dims[k];
        pos.v[d] += plan.loops.step[d];
        const bool inside = plan.loops.step[d] > 0 ? pos.v[d] <= region.hi(d)
                                                   : pos.v[d] >= region.lo(d);
        if (inside) break;
        pos.v[d] = plan.loops.step[d] > 0 ? region.lo(d) : region.hi(d);
      }
      if (done) break;
    }
  }

  const LoopStructure<R> canon = ascending_loops<R>(R - 1);  // canonical
  std::vector<Real> tmp;
  for (const Region<R>& slice : slices) {
    for (const auto& st : plan.statements) {
      tmp.assign(static_cast<std::size_t>(slice.size()), Real{});
      // Pass 1: RHS into the temporary, canonical order.
      std::size_t pos = 0;
      iterate_pencils(slice, canon,
                      [&](Idx<R> i, Rank inner, Coord step, Coord count) {
                        st.rhs_pencil(i, inner, step, count, tmp.data() + pos);
                        pos += static_cast<std::size_t>(count);
                      });
      // Pass 2: temporary into the LHS, same order.
      pos = 0;
      DenseArray<Real, R>* lhs = st.lhs;
      iterate_pencils(slice, canon,
                      [&](const Idx<R>& i, Rank inner, Coord step, Coord count) {
                        Real* out = &(*lhs)(i);
                        const Coord stride = step * lhs->stride(inner);
                        for (Coord k = 0; k < count; ++k)
                          out[k * stride] = tmp[pos++];
                      });
    }
  }
}

}  // namespace wavepipe

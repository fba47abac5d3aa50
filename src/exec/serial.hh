// Serial execution of compiled scan blocks (the fused, interchanged loop
// nest the paper's compiler generates), plus array-semantics application of
// single statements for the non-wavefront phases of programs.
#pragma once

#include "lang/scan_block.hh"

namespace wavepipe {

/// Checks that every array of the plan covers the index sets its accesses
/// read/write over `region`. Throws ContractError on under-allocation.
template <Rank R>
void validate_coverage(const WavefrontPlan<R>& plan, const Region<R>& region) {
  for (const auto& st : plan.statements) {
    require(st.lhs->region().contains(region),
            "array '" + st.lhs->name() + "' does not cover scan region " +
                to_string(region));
    for (const auto& acc : st.reads) {
      require(acc.array->region().contains(region.shifted(acc.dir)),
              "array '" + acc.array->name() + "' does not cover " +
                  to_string(region) + " shifted by " + to_string(acc.dir));
    }
  }
}

/// Runs the plan's statements over `sub` as one fused loop nest in the
/// derived loop order. `sub` must be contained in the plan's region (tiles,
/// local portions) — dependence legality was established for the whole
/// region and is inherited by sub-regions processed in wave order. A plan
/// with a lane dimension runs kLanes pencils at once, kLaneSpacing slices
/// apart in a wide enough tile: lanes whose addresses differ by a small
/// multiple of 4 KiB would alias the stores of their neighbours a few
/// indices back, and stall on them (DESIGN.md §4).
template <Rank R>
void run_serial_on(const WavefrontPlan<R>& plan, const Region<R>& sub) {
  if (plan.lane_dim) {
    iterate_lane_groups(
        sub, plan.loops, *plan.lane_dim, static_cast<Coord>(kLanes),
        kLaneSpacing,
        [&plan](const Idx<R>& i, Rank inner, Coord step, Coord count,
                Coord spacing) {
          plan.fused_lanes(i, inner, step, count, *plan.lane_dim, spacing);
        },
        plan.fused_pencil);
    return;
  }
  if (plan.fused_pencil) {
    iterate_pencils(sub, plan.loops, plan.fused_pencil);
    return;
  }
  iterate_pencils(sub, plan.loops,
                  [&plan](Idx<R> i, Rank inner, Coord step, Coord count) {
                    for (Coord k = 0; k < count; ++k) {
                      for (const auto& st : plan.statements) st.eval_at(i);
                      i.v[inner] += step;
                    }
                  });
}

/// Runs the whole plan serially (single processor), validating coverage.
template <Rank R>
void run_serial(const WavefrontPlan<R>& plan) {
  validate_coverage(plan, plan.region);
  run_serial_on(plan, plan.region);
}

/// Applies one statement over `region` with array-language semantics: the
/// right-hand side is evaluated before any element is assigned. A
/// temporary is used only when the statement reads its own left-hand side
/// at a nonzero shift (the case where in-place evaluation would be wrong).
template <typename E>
void apply_statement(const Region<E::rank>& region,
                     const StatementSpec<E>& spec) {
  constexpr Rank R = E::rank;
  if (region.empty()) return;
  std::vector<Access<R>> reads;
  spec.expr.collect(reads);
  bool needs_temp = false;
  for (const auto& acc : reads) {
    if (acc.array->id() == spec.lhs->id() && !acc.dir.is_zero())
      needs_temp = true;
    require(!acc.primed,
            "primed references are only meaningful inside scan blocks");
  }

  // A parallel statement has no dependences, so iterate in storage order
  // (contiguous dimension innermost) — what any competent compiler emits.
  const LoopStructure<R> ls = spec.lhs->storage_loops();
  if (!needs_temp) {
    iterate_pencils(region, ls,
                    [&](const Idx<R>& i, Rank inner, Coord step, Coord count) {
                      run_pencil(count, spec.bind(i, inner, step));
                    });
    return;
  }
  std::vector<Real> tmp(static_cast<std::size_t>(region.size()));
  Real* pos = tmp.data();
  iterate_pencils(region, ls,
                  [&](const Idx<R>& i, Rank inner, Coord step, Coord count) {
                    const auto rhs = spec.expr.bind(i, inner, step);
                    for (Coord k = 0; k < count; ++k)
                      pos[k] = rhs(k, kNothingStored, kNothingStored);
                    pos += count;
                  });
  pos = tmp.data();  // the same storage order again
  spec.lhs->for_each_element(region,
                             [&](const Idx<R>&, Real& x) { x = *pos++; });
}

/// Applies several statements in order, each with array semantics.
template <Rank R, typename... Es>
void apply_all(const Region<R>& region, const StatementSpec<Es>&... specs) {
  (apply_statement(region, specs), ...);
}

}  // namespace wavepipe

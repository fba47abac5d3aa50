// Unconstrained distance vectors and loop-structure derivation (paper §3.1).
//
// Array statements are implemented by loop nests created *after* dependence
// analysis, so dependences are expressed over array dimensions rather than
// loop levels ("unconstrained" distance vectors, Lewis/Lin/Snyder PLDI'98).
// Each shifted read of an array written in the block yields an
// execute-before vector c: iteration i must execute before iteration i + c.
//
//   * unprimed read at offset d  =>  c = d   (anti-dependence: the read must
//     see the old value, so i runs before i+d overwrites it);
//   * primed read at offset d    =>  c = -d  (true dependence: the read must
//     see the new value, so i+d runs first). "The unconstrained distance
//     vectors associated with primed array references are simply negated."
//
// A loop structure (a nesting order plus an iteration direction per
// dimension) is legal iff every constraint vector is lexicographically
// positive under it. R <= 3 here, so exhaustive search over R! * 2^R
// structures is exact and instant.
#pragma once

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "index/pencil.hh"
#include "support/error.hh"

namespace wavepipe {

/// An execute-before constraint over array dimensions.
template <Rank R>
using Udv = Direction<R>;

/// True when `c` is lexicographically positive under the structure: scanning
/// dimensions outermost-first, the first nonzero signed component is > 0.
template <Rank R>
bool lex_positive(const Udv<R>& c, const LoopStructure<R>& ls) {
  for (Rank level = 0; level < R; ++level) {
    const Rank d = ls.order[level];
    const Coord signed_c = c.v[d] * ls.step[d];
    if (signed_c > 0) return true;
    if (signed_c < 0) return false;
  }
  return false;  // all zero
}

template <Rank R>
bool satisfies(const std::vector<Udv<R>>& constraints,
               const LoopStructure<R>& ls) {
  for (const auto& c : constraints) {
    if (c.is_zero()) return false;  // an iteration cannot precede itself
    if (!lex_positive(c, ls)) return false;
  }
  return true;
}

/// Preferences used to rank legal loop structures. Lower score wins.
///   * the preferred inner dimension (storage-contiguous) innermost — the
///     interchange that produces the paper's Fig 6 cache win;
///   * ascending loops;
///   * dimensions in declaration order.
template <Rank R>
int structure_score(const LoopStructure<R>& ls, Rank preferred_inner) {
  int score = 0;
  if (ls.order[R - 1] != preferred_inner) score += 1000;
  for (Rank d = 0; d < R; ++d)
    if (ls.step[d] < 0) score += 10;
  for (Rank level = 0; level < R; ++level)
    if (ls.order[level] != level) score += 1;
  return score;
}

/// Finds the best legal loop structure for the constraint set, or nullopt
/// when none exists (the scan block is over-constrained). When `forced_dim`
/// is set, only structures whose step along it equals `forced_step` are
/// considered — the planner uses this to make the loop direction along the
/// wavefront dimension agree with the WSV travel direction.
template <Rank R>
std::optional<LoopStructure<R>> derive_loop_structure(
    const std::vector<Udv<R>>& constraints, Rank preferred_inner,
    std::optional<Rank> forced_dim = std::nullopt, int forced_step = 0) {
  require(preferred_inner < R, "preferred inner dimension out of range");
  std::array<Rank, R> perm;
  for (Rank d = 0; d < R; ++d) perm[d] = d;

  std::optional<LoopStructure<R>> best;
  int best_score = 0;
  do {
    for (unsigned signs = 0; signs < (1u << R); ++signs) {
      LoopStructure<R> ls;
      ls.order = perm;
      for (Rank d = 0; d < R; ++d)
        ls.step[d] = (signs >> d) & 1u ? -1 : +1;
      if (forced_dim && ls.step[*forced_dim] != forced_step) continue;
      if (!satisfies(constraints, ls)) continue;
      const int score = structure_score(ls, preferred_inner);
      if (!best || score < best_score) {
        best = ls;
        best_score = score;
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

/// Builds the execute-before vector of one access.
template <Rank R>
Udv<R> execute_before_vector(const Direction<R>& dir, bool primed) {
  return primed ? -dir : dir;
}

}  // namespace wavepipe

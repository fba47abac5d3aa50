// Array statements: the unit a scan block is built from.
//
// `lhs <<= expr` captures one array assignment as a typed StatementSpec.
// Adding a spec to a ScanBlock type-erases it into a Statement carrying the
// access metadata (for dependence analysis) and three evaluators:
//   * eval_at      — one index (reference executor, fallback paths);
//   * eval_pencil  — a 1-D run of indices along a chosen inner dimension,
//                    assigning in place;
//   * rhs_pencil   — the same run, but writing RHS values to a buffer
//                    (array-language temporary semantics, used by the
//                    unfused baseline executor of the cache study).
// The pencil evaluators bind the statement once per pencil to pointer
// cursors (see expr.hh) and walk plain memory.
//
// The typed specs additionally let the variadic scan(...) builder compile a
// *fused* pencil that interleaves all statements per index at native speed
// — the single-loop-nest code the paper's compiler generates — and a lane
// kernel that runs kLanes independent pencils of it at once.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/expr.hh"

namespace wavepipe {

/// A typed statement: lhs array plus right-hand-side expression tree.
template <typename E>
struct StatementSpec {
  static constexpr Rank rank = E::rank;
  DenseArray<Real, E::rank>* lhs;
  E expr;

  /// The statement bound to one pencil: assign(k, now, prev) evaluates the
  /// right-hand side's element k, stores it into the left-hand side's
  /// element k and returns it.
  struct Cursor {
    Real* out;
    Coord stride;
    Coord lane;  // elements from one lane's pencil to the next
    typename E::Cursor rhs;

    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V assign(Coord k, const Stored<J, V>& now,
                                    const Stored<P, V>& prev) const {
      const V x = rhs(k, now, prev);
      store_lanes(out + k * stride, lane, x);
      return x;
    }
  };
  /// With a spacing, the cursor walks kLanes pencils: the one at `start`
  /// and those `spacing`, 2 * `spacing`, ... slices further along
  /// `lane_dim`.
  Cursor bind(const Idx<rank>& start, Rank inner, Coord step,
              Rank lane_dim = 0, Coord spacing = 0) const {
    return {&(*lhs)(start), step * lhs->stride(inner),
            spacing * lhs->stride(lane_dim),
            expr.bind(start, inner, step, lane_dim, spacing)};
  }
};

/// Runs bound statements along one pencil, interleaved per index in
/// argument order — the body of a fused loop nest. Every read goes through
/// memory, after the stores of the statements before it.
template <typename... Cs>
void run_pencil(Coord count, const Cs&... cursors) {
  for (Coord k = 0; k < count; ++k)
    (cursors.assign(k, kNothingStored, kNothingStored), ...);
}

/// Links every read of bound statements to the stores it may take from
/// registers: what an earlier statement stores at the same index, and what
/// the last statement storing there stored one index back.
template <typename... Cs>
void link_stores(Cs&... cursors) {
  int j = 0;
  auto link_reads = [&](auto& c) {
    int i = 0;
    ((c.rhs.link(cursors.out, cursors.stride, i, i < j), ++i), ...);
    ++j;
  };
  (link_reads(cursors), ...);
}

/// One index of a fused pencil: each statement in turn, handing on what it
/// stored; returns what every statement stored. Always inlined so the
/// stored values stay in registers.
template <typename V, std::size_t J, std::size_t P, typename C,
          typename... Rest>
[[gnu::always_inline]] inline Stored<J + 1 + sizeof...(Rest), V>
assign_in_order(Coord k, const Stored<J, V>& now, const Stored<P, V>& prev,
                const C& c, const Rest&... rest) {
  Stored<J + 1, V> next;
  for (std::size_t i = 0; i < J; ++i) next[i] = now[i];
  next[J] = c.assign(k, now, prev);
  if constexpr (sizeof...(Rest) > 0)
    return assign_in_order(k, next, prev, rest...);
  else
    return next;
}

/// run_pencil, except that a read of exactly a location an earlier
/// statement stores at the same index takes the stored value from a
/// register rather than reloading it. That shortens a recurrence along the
/// pencil, where each index waits on the one before; elsewhere the per-read
/// check only costs throughput.
template <typename... Cs>
void run_pencil_forwarding(Coord count, Cs... cursors) {
  link_stores(cursors...);
  for (Coord k = 0; k < count; ++k)
    assign_in_order(k, kNothingStored, kNothingStored, cursors...);
}

/// Pencils the lane kernel runs at once, and how many slices apart along
/// the lane dimension they start when a tile is wide enough (see
/// iterate_lane_groups in index/pencil.hh).
inline constexpr std::size_t kLanes = 4;
inline constexpr Coord kLaneSpacing = 8;

/// run_pencil_forwarding over L independent pencils at once: the cursors
/// are bound with a lane dimension, and every value is a Lanes<L>. A
/// recurrence along a pencil makes each index wait on the one before; L of
/// them in flight hide that latency. Each lane also carries what it stored
/// one index back in registers, so a read one step back along the pencil
/// never reloads it; the first index reads it from memory (the fluff or a
/// received face). Each element sees the same operations in the same order
/// as on one pencil, with no reassociation, so the results are the same
/// bits.
template <std::size_t L, typename... Cs>
void run_pencil_lanes(Coord count, Cs... cursors) {
  if (count <= 0) return;
  link_stores(cursors...);
  constexpr Stored<0, Lanes<L>> none{};
  Stored<sizeof...(Cs), Lanes<L>> prev =
      assign_in_order(0, none, none, cursors...);
  for (Coord k = 1; k < count; ++k)
    prev = assign_in_order(k, none, prev, cursors...);
}

/// Builds a StatementSpec from `lhs <<= rhs_expression`. The operator is
/// chosen for its low precedence: `a <<= b + c * at(d, north)` parses the
/// whole right-hand side as the expression.
template <typename E>
  requires is_wp_expr_v<E>
StatementSpec<E> operator<<=(DenseArray<Real, E::rank>& lhs, const E& rhs) {
  return StatementSpec<E>{&lhs, rhs};
}

/// `a <<= b;` — whole-array copy as a statement.
template <Rank R>
StatementSpec<ArrayRef<R>> operator<<=(DenseArray<Real, R>& lhs,
                                       DenseArray<Real, R>& rhs) {
  return StatementSpec<ArrayRef<R>>{&lhs, ref(rhs)};
}

/// `a <<= fill(0.0);` — scalar fill as a statement.
template <Rank R>
StatementSpec<ScalarExpr<R>> fill_stmt(DenseArray<Real, R>& lhs, Real v) {
  return StatementSpec<ScalarExpr<R>>{&lhs, ScalarExpr<R>(v)};
}

/// The type-erased statement stored in scan blocks and plans.
template <Rank R>
struct Statement {
  DenseArray<Real, R>* lhs = nullptr;
  std::vector<Access<R>> reads;

  std::function<void(const Idx<R>&)> eval_at;
  std::function<void(Idx<R> start, Rank inner, Coord step, Coord count)>
      eval_pencil;
  std::function<void(Idx<R> start, Rank inner, Coord step, Coord count,
                     Real* out)>
      rhs_pencil;

  const std::string& lhs_name() const { return lhs->name(); }
};

/// Type-erases a spec into a Statement.
template <typename E>
Statement<E::rank> to_statement(const StatementSpec<E>& spec) {
  constexpr Rank R = E::rank;
  Statement<R> st;
  st.lhs = spec.lhs;
  spec.expr.collect(st.reads);

  DenseArray<Real, R>* lp = spec.lhs;
  E expr = spec.expr;  // captured by value: statements outlive expressions

  st.eval_at = [lp, expr](const Idx<R>& i) { (*lp)(i) = expr.eval(i); };

  st.eval_pencil = [spec](Idx<R> i, Rank inner, Coord step, Coord count) {
    run_pencil(count, spec.bind(i, inner, step));
  };

  st.rhs_pencil = [expr](Idx<R> i, Rank inner, Coord step, Coord count,
                         Real* out) {
    const auto rhs = expr.bind(i, inner, step);
    for (Coord k = 0; k < count; ++k)
      out[k] = rhs(k, kNothingStored, kNothingStored);
  };

  return st;
}

}  // namespace wavepipe

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
// — the single-loop-nest code the paper's compiler generates.
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

  /// The statement bound to one pencil: assign(k, stored) evaluates the
  /// right-hand side's element k, stores it into the left-hand side's
  /// element k and returns it.
  struct Cursor {
    Real* out;
    Coord stride;
    typename E::Cursor rhs;

    template <std::size_t J>
    Real assign(Coord k, const Stored<J>& stored) const {
      const Real x = rhs(k, stored);
      out[k * stride] = x;
      return x;
    }
  };
  Cursor bind(const Idx<rank>& start, Rank inner, Coord step) const {
    return {&(*lhs)(start), step * lhs->stride(inner),
            expr.bind(start, inner, step)};
  }
};

/// Runs bound statements along one pencil, interleaved per index in
/// argument order — the body of a fused loop nest. Every read goes through
/// memory, after the stores of the statements before it.
template <typename... Cs>
void run_pencil(Coord count, const Cs&... cursors) {
  for (Coord k = 0; k < count; ++k) (cursors.assign(k, kNothingStored), ...);
}

/// One index of run_pencil_forwarding: each statement in turn, handing on
/// what it stored. Always inlined so the stored values stay in registers.
template <std::size_t J, typename C, typename... Rest>
[[gnu::always_inline]] inline void assign_in_order(Coord k,
                                                   const Stored<J>& stored,
                                                   const C& c,
                                                   const Rest&... rest) {
  const Real x = c.assign(k, stored);
  if constexpr (sizeof...(Rest) > 0) {
    Stored<J + 1> next;
    for (std::size_t i = 0; i < J; ++i) next[i] = stored[i];
    next[J] = x;
    assign_in_order(k, next, rest...);
  }
}

/// run_pencil, except that a read of exactly a location an earlier
/// statement stores at the same index (linked once per pencil) takes the
/// stored value from a register rather than reloading it. That shortens a
/// recurrence along the pencil, where each index waits on the one before;
/// elsewhere the per-read check only costs throughput.
template <typename... Cs>
void run_pencil_forwarding(Coord count, Cs... cursors) {
  int j = 0;
  auto link_to_earlier = [&](auto& c) {
    int i = 0;
    ((i < j ? c.rhs.link(cursors.out, cursors.stride, i) : void(), ++i), ...);
    ++j;
  };
  (link_to_earlier(cursors), ...);
  for (Coord k = 0; k < count; ++k)
    assign_in_order(k, kNothingStored, cursors...);
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
    for (Coord k = 0; k < count; ++k) out[k] = rhs(k, kNothingStored);
  };

  return st;
}

}  // namespace wavepipe

// Expression templates for wavepipe array statements.
//
// This is the embedded analogue of ZPL's array expressions:
//
//   ZPL:      r  = aa * d'@north;
//   wavepipe: r <<= aa * prime(d, north);
//
//   ZPL:      d  = 1.0 / (dd - aa@north * r);
//   wavepipe: d <<= 1.0 / (dd - at(aa, north) * r);
//
// `at(a, dir)` is the @ (shift) operator; `prime(a, dir)` is the paper's
// prime operator applied to a shifted reference. Plain array operands are
// unshifted references. Expressions record every access's (array,
// direction, primed) triple, from which scan blocks derive wavefront
// summary vectors, legality, and loop structure.
//
// Every node evaluates two ways. eval(i) resolves one global index — the
// per-index reference. bind(start, inner, step) resolves the node once per
// pencil to a Cursor c, and c(k, now, prev) is the node's value at
// start + k*step along dimension `inner`: an array reference becomes a
// base pointer plus a stride, and interior nodes compose their children's
// cursors. Bound with a lane dimension and a spacing, the same cursor
// walks kLanes pencils side by side, that many slices apart along it, and
// evaluated on Lanes<L> values it yields one value per pencil, each by the
// scalar operations. Cursor evaluation is always inlined: left to the
// optimizer, a large translation unit outlines some nodes, and each call
// then returns its lanes through memory. Along a recurrence, the fused
// pencil passes in `now` the values the earlier statements just stored at
// the same index and in `prev` what every statement stored one index back,
// and a reference linked to one of those stores takes the value from there
// instead of reloading it. Both ways apply the same operations in the same
// order, so they agree bit for bit.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "lang/access.hh"

namespace wavepipe {

/// One value per pencil of the lane kernel.
template <std::size_t L>
using Lanes = std::array<Real, L>;

/// Values statements of a fused pencil stored, in statement order: at the
/// current index, those of the statements before the current one; one
/// index back, those of every statement (none outside a fused pencil, and
/// none one index back at a pencil's first index). V is Real on one pencil
/// and Lanes<L> on L of them.
template <std::size_t J, typename V = Real>
using Stored = std::array<V, J>;
inline constexpr Stored<0> kNothingStored{};

/// stored[i] for a run-time i < J, indexed by constants so the values stay
/// in registers.
template <typename V, std::size_t J, std::size_t... I>
[[gnu::always_inline]] inline V pick(const Stored<J, V>& stored, int i,
                                     std::index_sequence<I...>) {
  V x = stored[0];
  ((i == static_cast<int>(I) ? (void)(x = stored[I]) : (void)0), ...);
  return x;
}

// The lane helpers below spell the lanes out through index sequences in
// always-inlined functions, not loops or lambdas: the optimizer neither
// unrolls a short loop nor inlines a lambda reliably, and either leaves the
// lanes in memory.
namespace detail {

template <typename Op, std::size_t l, typename... Vs>
[[gnu::always_inline]] inline Real apply_lane(const Vs&... v) {
  return Op::apply(v[l]...);
}

template <typename Op, typename V, std::size_t... l, typename... Vs>
[[gnu::always_inline]] inline V lanewise(std::index_sequence<l...>,
                                         const Vs&... v) {
  return V{apply_lane<Op, l>(v...)...};
}

template <typename V, std::size_t... l>
[[gnu::always_inline]] inline V load_lanes(std::index_sequence<l...>,
                                           const Real* p, Coord lane) {
  return V{p[static_cast<Coord>(l) * lane]...};
}

template <typename V, std::size_t... l>
[[gnu::always_inline]] inline void store_lanes(std::index_sequence<l...>,
                                               Real* p, Coord lane,
                                               const V& x) {
  ((p[static_cast<Coord>(l) * lane] = x[l]), ...);
}

template <typename V, std::size_t... l>
[[gnu::always_inline]] inline V splat(std::index_sequence<l...>, Real v) {
  return V{(static_cast<void>(l), v)...};
}

template <typename V>
using lane_indices = std::make_index_sequence<std::tuple_size_v<V>>;

}  // namespace detail

/// Op applied to the value on one pencil, or to each lane in turn.
template <typename Op, typename V, typename... Vs>
[[gnu::always_inline]] inline V lanewise(const V& a, const Vs&... b) {
  if constexpr (std::is_same_v<V, Real>)
    return Op::apply(a, b...);
  else
    return detail::lanewise<Op, V>(detail::lane_indices<V>{}, a, b...);
}

/// *p on one pencil; on lanes, the same element of each, `lane` elements
/// apart.
template <typename V>
[[gnu::always_inline]] inline V load_lanes(const Real* p, Coord lane) {
  if constexpr (std::is_same_v<V, Real>)
    return *p;
  else
    return detail::load_lanes<V>(detail::lane_indices<V>{}, p, lane);
}

template <typename V>
[[gnu::always_inline]] inline void store_lanes(Real* p, Coord lane,
                                               const V& x) {
  if constexpr (std::is_same_v<V, Real>)
    *p = x;
  else
    detail::store_lanes(detail::lane_indices<V>{}, p, lane, x);
}

/// v on one pencil, or in every lane.
template <typename V>
[[gnu::always_inline]] inline V splat(Real v) {
  if constexpr (std::is_same_v<V, Real>)
    return v;
  else
    return detail::splat<V>(detail::lane_indices<V>{}, v);
}

// ---------------------------------------------------------------------------
// Leaf nodes

/// A (possibly shifted, possibly primed) reference to an array.
template <Rank R>
class ArrayRef {
 public:
  static constexpr Rank rank = R;

  explicit ArrayRef(DenseArray<Real, R>& a, Direction<R> dir = {},
                    bool primed = false)
      : a_(&a), dir_(dir), primed_(primed) {}

  /// Applies an additional @-shift (shifts compose by vector addition).
  ArrayRef at(const Direction<R>& d) const {
    Direction<R> nd = dir_;
    for (Rank k = 0; k < R; ++k) nd.v[k] += d.v[k];
    return ArrayRef(*a_, nd, primed_);
  }

  /// Marks the reference primed.
  ArrayRef primed() const { return ArrayRef(*a_, dir_, true); }

  Real eval(const Idx<R>& i) const { return (*a_)(i + dir_); }

  struct Cursor {
    const Real* base;
    Coord stride;
    Coord lane;  // elements from one lane's pencil to the next
    /// The earlier statement whose store at the same index this reads, or
    /// -1 (read memory).
    int from = -1;
    /// The statement whose store one index back this reads, or -1.
    int back = -1;

    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V operator()(Coord k, const Stored<J, V>& now,
                                        const Stored<P, V>& prev) const {
      if constexpr (J > 0)
        if (from >= 0) return pick(now, from, std::make_index_sequence<J>{});
      if constexpr (P > 0)
        if (back >= 0) return pick(prev, back, std::make_index_sequence<P>{});
      return load_lanes<V>(base + k * stride, lane);
    }
    /// Called for each statement in order, so the last one storing to this
    /// location wins. `earlier`: the statement runs before this read at the
    /// same index. Element k of this reference is element k - 1 of a store
    /// that starts one stride further on; the addresses are compared as
    /// integers, since the two need not point into one array.
    void link(const Real* out, Coord out_stride, int statement, bool earlier) {
      if (stride != out_stride) return;
      if (earlier && base == out) from = statement;
      const auto addr = [](const Real* p) {
        return static_cast<std::intptr_t>(reinterpret_cast<std::uintptr_t>(p));
      };
      if (addr(out) - addr(base) ==
          stride * static_cast<std::intptr_t>(sizeof(Real)))
        back = statement;
    }
  };
  Cursor bind(const Idx<R>& start, Rank inner, Coord step, Rank lane_dim = 0,
              Coord spacing = 0) const {
    return {&(*a_)(start + dir_), step * a_->stride(inner),
            spacing * a_->stride(lane_dim)};
  }

  void collect(std::vector<Access<R>>& out) const {
    out.push_back(Access<R>{a_, dir_, primed_});
  }

 private:
  DenseArray<Real, R>* a_;
  Direction<R> dir_;
  bool primed_;
};

/// A scalar constant promoted into an expression.
template <Rank R>
class ScalarExpr {
 public:
  static constexpr Rank rank = R;
  explicit ScalarExpr(Real v) : v_(v) {}
  Real eval(const Idx<R>&) const { return v_; }

  struct Cursor {
    Real v;
    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V operator()(Coord, const Stored<J, V>&,
                                        const Stored<P, V>&) const {
      return splat<V>(v);
    }
    void link(const Real*, Coord, int, bool) {}
  };
  Cursor bind(const Idx<R>&, Rank, Coord, Rank = 0, Coord = 0) const {
    return {v_};
  }

  void collect(std::vector<Access<R>>&) const {}

 private:
  Real v_;
};

// ---------------------------------------------------------------------------
// Expression traits

template <typename E>
struct is_wp_expr : std::false_type {};
template <Rank R>
struct is_wp_expr<ArrayRef<R>> : std::true_type {};
template <Rank R>
struct is_wp_expr<ScalarExpr<R>> : std::true_type {};

template <typename L, typename Rt, typename Op>
class BinExpr;
template <typename E, typename Op>
class UnExpr;
template <typename L, typename Rt, typename Op>
struct is_wp_expr<BinExpr<L, Rt, Op>> : std::true_type {};
template <typename E, typename Op>
struct is_wp_expr<UnExpr<E, Op>> : std::true_type {};

template <typename E>
inline constexpr bool is_wp_expr_v = is_wp_expr<std::decay_t<E>>::value;

template <typename X>
struct is_wp_array : std::false_type {};
template <Rank R>
struct is_wp_array<DenseArray<Real, R>> : std::true_type {};
template <typename X>
inline constexpr bool is_wp_array_v = is_wp_array<std::decay_t<X>>::value;

/// An operand an operator accepts: expression, array, or arithmetic scalar.
template <typename X>
inline constexpr bool is_wp_operand_v =
    is_wp_expr_v<X> || is_wp_array_v<X> ||
    std::is_arithmetic_v<std::decay_t<X>>;

/// Rank carried by an operand (arrays and expressions only).
template <typename X>
struct wp_rank_of {
  static constexpr Rank value = std::decay_t<X>::rank;
};
template <Rank R>
struct wp_rank_of<DenseArray<Real, R>> {
  static constexpr Rank value = R;
};

template <typename A, typename B>
constexpr Rank operand_rank() {
  if constexpr (is_wp_expr_v<A> || is_wp_array_v<A>)
    return wp_rank_of<std::decay_t<A>>::value;
  else
    return wp_rank_of<std::decay_t<B>>::value;
}

/// Normalizes an operand into an expression node of rank R.
template <Rank R, typename X>
auto make_operand(X&& x) {
  using D = std::decay_t<X>;
  if constexpr (is_wp_expr_v<D>) {
    return x;  // already an expression (copied; nodes are small)
  } else if constexpr (is_wp_array_v<D>) {
    return ArrayRef<R>(const_cast<DenseArray<Real, R>&>(x));
  } else {
    static_assert(std::is_arithmetic_v<D>);
    return ScalarExpr<R>(static_cast<Real>(x));
  }
}

// ---------------------------------------------------------------------------
// Interior nodes

template <typename L, typename Rt, typename Op>
class BinExpr {
 public:
  static constexpr Rank rank = L::rank;
  static_assert(L::rank == Rt::rank, "operand ranks must match");

  BinExpr(L l, Rt r) : l_(std::move(l)), r_(std::move(r)) {}

  Real eval(const Idx<rank>& i) const { return Op::apply(l_.eval(i), r_.eval(i)); }

  struct Cursor {
    typename L::Cursor l;
    typename Rt::Cursor r;
    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V operator()(Coord k, const Stored<J, V>& s,
                                        const Stored<P, V>& p) const {
      return lanewise<Op>(l(k, s, p), r(k, s, p));
    }
    void link(const Real* out, Coord stride, int statement, bool earlier) {
      l.link(out, stride, statement, earlier);
      r.link(out, stride, statement, earlier);
    }
  };
  Cursor bind(const Idx<rank>& start, Rank inner, Coord step,
              Rank lane_dim = 0, Coord spacing = 0) const {
    return {l_.bind(start, inner, step, lane_dim, spacing),
            r_.bind(start, inner, step, lane_dim, spacing)};
  }

  void collect(std::vector<Access<rank>>& out) const {
    l_.collect(out);
    r_.collect(out);
  }

 private:
  L l_;
  Rt r_;
};

template <typename E, typename Op>
class UnExpr {
 public:
  static constexpr Rank rank = E::rank;

  explicit UnExpr(E e) : e_(std::move(e)) {}

  Real eval(const Idx<rank>& i) const { return Op::apply(e_.eval(i)); }

  struct Cursor {
    typename E::Cursor e;
    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V operator()(Coord k, const Stored<J, V>& s,
                                        const Stored<P, V>& p) const {
      return lanewise<Op>(e(k, s, p));
    }
    void link(const Real* out, Coord stride, int statement, bool earlier) {
      e.link(out, stride, statement, earlier);
    }
  };
  Cursor bind(const Idx<rank>& start, Rank inner, Coord step,
              Rank lane_dim = 0, Coord spacing = 0) const {
    return {e_.bind(start, inner, step, lane_dim, spacing)};
  }

  void collect(std::vector<Access<rank>>& out) const { e_.collect(out); }

 private:
  E e_;
};

namespace ops {
struct Add { static Real apply(Real a, Real b) { return a + b; } };
struct Sub { static Real apply(Real a, Real b) { return a - b; } };
struct Mul { static Real apply(Real a, Real b) { return a * b; } };
struct Div { static Real apply(Real a, Real b) { return a / b; } };
struct Min { static Real apply(Real a, Real b) { return a < b ? a : b; } };
struct Max { static Real apply(Real a, Real b) { return a < b ? b : a; } };
struct Neg { static Real apply(Real a) { return -a; } };
struct Abs { static Real apply(Real a) { return a < 0 ? -a : a; } };
struct Sqrt { static Real apply(Real a) { return std::sqrt(a); } };
struct Exp { static Real apply(Real a) { return std::exp(a); } };
struct Select {
  static Real apply(Real c, Real a, Real b) { return c > 0.0 ? a : b; }
};
}  // namespace ops

// ---------------------------------------------------------------------------
// Builder functions (the public DSL surface)

/// Plain (unshifted, unprimed) reference.
template <Rank R>
ArrayRef<R> ref(DenseArray<Real, R>& a) {
  return ArrayRef<R>(a);
}

/// The @ operator: reference shifted by a direction.
template <Rank R>
ArrayRef<R> at(DenseArray<Real, R>& a, const Direction<R>& d) {
  return ArrayRef<R>(a, d, false);
}

/// The prime operator applied to a shifted reference: a'@d.
template <Rank R>
ArrayRef<R> prime(DenseArray<Real, R>& a, const Direction<R>& d) {
  return ArrayRef<R>(a, d, true);
}

/// The prime operator alone; shift it afterwards: prime(a).at(d).
template <Rank R>
ArrayRef<R> prime(DenseArray<Real, R>& a) {
  return ArrayRef<R>(a, {}, true);
}

template <typename L, typename Rt, typename Op>
BinExpr<L, Rt, Op> make_bin(L l, Rt r, Op) {
  return BinExpr<L, Rt, Op>(std::move(l), std::move(r));
}

#define WAVEPIPE_BINARY_OP(symbol, op_type)                                  \
  template <typename A, typename B>                                         \
    requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&                    \
             (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||     \
              is_wp_array_v<B>))                                            \
  auto operator symbol(const A& a, const B& b) {                            \
    constexpr Rank R = operand_rank<A, B>();                                \
    return make_bin(make_operand<R>(a), make_operand<R>(b), op_type{});     \
  }

WAVEPIPE_BINARY_OP(+, ops::Add)
WAVEPIPE_BINARY_OP(-, ops::Sub)
WAVEPIPE_BINARY_OP(*, ops::Mul)
WAVEPIPE_BINARY_OP(/, ops::Div)
#undef WAVEPIPE_BINARY_OP

template <typename A, typename B>
  requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||
            is_wp_array_v<B>))
auto min_e(const A& a, const B& b) {
  constexpr Rank R = operand_rank<A, B>();
  return make_bin(make_operand<R>(a), make_operand<R>(b), ops::Min{});
}

template <typename A, typename B>
  requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||
            is_wp_array_v<B>))
auto max_e(const A& a, const B& b) {
  constexpr Rank R = operand_rank<A, B>();
  return make_bin(make_operand<R>(a), make_operand<R>(b), ops::Max{});
}

/// Element-wise selection (ZPL's masked computation, expression form):
/// cond > 0 picks `a`, otherwise `b`.
template <typename C, typename L, typename Rt>
class SelectExpr {
 public:
  static constexpr Rank rank = C::rank;
  static_assert(C::rank == L::rank && L::rank == Rt::rank);

  SelectExpr(C c, L l, Rt r)
      : c_(std::move(c)), l_(std::move(l)), r_(std::move(r)) {}

  Real eval(const Idx<rank>& i) const {
    return c_.eval(i) > 0.0 ? l_.eval(i) : r_.eval(i);
  }

  struct Cursor {
    typename C::Cursor c;
    typename L::Cursor l;
    typename Rt::Cursor r;
    /// On lanes both sides are evaluated, and each lane keeps its own.
    template <typename V, std::size_t J, std::size_t P>
    [[gnu::always_inline]] V operator()(Coord k, const Stored<J, V>& s,
                                        const Stored<P, V>& p) const {
      if constexpr (std::is_same_v<V, Real>) {
        return c(k, s, p) > 0.0 ? l(k, s, p) : r(k, s, p);
      } else {
        return lanewise<ops::Select>(c(k, s, p), l(k, s, p), r(k, s, p));
      }
    }
    void link(const Real* out, Coord stride, int statement, bool earlier) {
      c.link(out, stride, statement, earlier);
      l.link(out, stride, statement, earlier);
      r.link(out, stride, statement, earlier);
    }
  };
  Cursor bind(const Idx<rank>& start, Rank inner, Coord step,
              Rank lane_dim = 0, Coord spacing = 0) const {
    return {c_.bind(start, inner, step, lane_dim, spacing),
            l_.bind(start, inner, step, lane_dim, spacing),
            r_.bind(start, inner, step, lane_dim, spacing)};
  }

  void collect(std::vector<Access<rank>>& out) const {
    c_.collect(out);
    l_.collect(out);
    r_.collect(out);
  }

 private:
  C c_;
  L l_;
  Rt r_;
};

template <typename C, typename L, typename Rt>
struct is_wp_expr<SelectExpr<C, L, Rt>> : std::true_type {};

/// select_e(cond, a, b): where cond > 0 take a, else b.
template <typename C, typename A, typename B>
  requires(is_wp_operand_v<C> && is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<C> || is_wp_array_v<C> || is_wp_expr_v<A> ||
            is_wp_array_v<A> || is_wp_expr_v<B> || is_wp_array_v<B>))
auto select_e(const C& c, const A& a, const B& b) {
  constexpr Rank R = [] {
    if constexpr (is_wp_expr_v<C> || is_wp_array_v<C>)
      return wp_rank_of<std::decay_t<C>>::value;
    else
      return operand_rank<A, B>();
  }();
  return SelectExpr(make_operand<R>(c), make_operand<R>(a), make_operand<R>(b));
}

template <typename E, typename Op>
UnExpr<E, Op> make_un(E e, Op) {
  return UnExpr<E, Op>(std::move(e));
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto operator-(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Neg{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto abs_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Abs{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto sqrt_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Sqrt{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto exp_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Exp{});
}

}  // namespace wavepipe

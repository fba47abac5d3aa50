// Kernel oracle: every pencil evaluator must be bit-equal to the per-index
// reference Statement::eval_at, and every storage-order array loop must
// give what a for_each-ordered loop gives.
//
// The engine byte-identity tests compare executors against each other, so
// a rounding change shared by every executor would pass them. These tests
// compare against the per-index expression evaluation instead: the fused
// pencil that scan(...) installs, its lane kernel, eval_pencil, rhs_pencil
// and apply_statement, over every op node, shifted and primed references,
// ranks 1-3, both storage orders, ascending and descending steps, every
// inner dimension (contiguous or not), and tiles whose reads reach the
// fluff.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/simple_hydro.hh"
#include "apps/smith_waterman.hh"
#include "apps/sor.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"
#include "exec/driver.hh"
#include "exec/serial.hh"

namespace wavepipe {
namespace {

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

template <Rank R>
Direction<R> unit(Rank d, Coord s) {
  Direction<R> dir{};
  dir.v[d] = s;
  return dir;
}

// Deterministic, sign-mixed values with exact zeros sprinkled in, so min,
// max, abs and select all see both branches and -0.0 vs +0.0.
template <Rank R>
Real value(int seed, const Idx<R>& i) {
  Coord h = seed * 7919;
  for (Rank d = 0; d < R; ++d) h = h * 131 + i.v[d] * (17 + 6 * d);
  if (h % 11 == 0) return (h % 2 == 0) ? 0.0 : -0.0;
  return std::sin(0.37 * static_cast<Real>(h % 997)) * 1.75;
}

// Every loop structure of rank R: all nesting orders, all step signs.
template <Rank R>
std::vector<LoopStructure<R>> all_loop_structures() {
  std::array<Rank, R> order{};
  std::iota(order.begin(), order.end(), Rank{0});
  std::vector<LoopStructure<R>> out;
  do {
    for (unsigned signs = 0; signs < (1u << R); ++signs) {
      LoopStructure<R> ls;
      ls.order = order;
      for (Rank d = 0; d < R; ++d) ls.step[d] = (signs >> d) & 1u ? -1 : +1;
      out.push_back(ls);
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

// Interior [1..n]^R inside arrays allocated over [0..n+1]^R (one cell of
// fluff). Tiles: the whole interior, its low and high corners and its last
// dimension-0 slab — each touches the fluff on at least one side, so
// shifted reads from them land in it.
template <Rank R>
struct World {
  static constexpr Coord kN = R == 1 ? 9 : (R == 2 ? 6 : 4);

  explicit World(StorageOrder order)
      : all(Region<R>::from_extents(filled(kN + 2))),
        interior(Region<R>(filled(1), filled(kN))),
        a("a", all, order),
        b("b", all, order),
        c("c", all, order),
        x("x", all, order),
        y("y", all, order),
        z("z", all, order) {}

  static Idx<R> filled(Coord v) {
    Idx<R> i;
    i.v.fill(v);
    return i;
  }

  std::vector<Region<R>> tiles() const {
    const Coord mid = kN / 2;
    return {interior, Region<R>(filled(1), filled(mid)),
            Region<R>(filled(mid + 1), filled(kN)),
            interior.with_dim(0, kN, kN)};
  }

  // Resets every array from `value`, through for_each and operator() only.
  void reset() {
    int seed = 1;
    for (DenseArray<Real, R>* arr : arrays()) {
      for_each(all, [&](const Idx<R>& i) { (*arr)(i) = value<R>(seed, i); });
      ++seed;
    }
  }

  std::vector<DenseArray<Real, R>*> arrays() { return {&a, &b, &c, &x, &y, &z}; }

  std::vector<std::uint64_t> snapshot() {
    std::vector<std::uint64_t> out;
    for (DenseArray<Real, R>* arr : arrays())
      for (Real v : arr->raw()) out.push_back(bits(v));
    return out;
  }

  Region<R> all, interior;
  DenseArray<Real, R> a, b, c, x, y, z;
};

// Three statements covering every op node. s2 and s3 read what s1 and s2
// store at the same index (the fused pencil forwards those). They must not
// forward the other reads of written arrays: s3 reads x at a nonzero shift,
// s2 reads its own y and s1 and s2 read a later statement's y and z at the
// same index, all of which are old values in memory. x and z are primed.
template <Rank R>
auto block_specs(World<R>& w) {
  const Direction<R> e = unit<R>(0, 1);
  const Direction<R> f = unit<R>(R - 1, 1);
  auto s1 = w.x <<= w.a * prime(w.x, -e) + min_e(w.b, at(w.c, f)) -
                    max_e(at(w.a, -f), 0.25) + 0.5 * w.y;
  auto s2 = w.y <<= select_e(w.a - 0.1, -w.x, abs_e(at(w.b, e))) /
                        (2.0 + sqrt_e(abs_e(w.c))) -
                    0.25 * w.y + w.z * 0.125;
  auto s3 = w.z <<= exp_e(0.3 * prime(w.z, -e)) * w.y -
                    w.x / (1.5 + abs_e(w.y)) + at(w.x, f);
  return std::make_tuple(s1, s2, s3);
}

template <Rank R>
WavefrontPlan<R> block_plan(World<R>& w) {
  auto [s1, s2, s3] = block_specs(w);
  return scan(w.interior, s1, s2, s3).compile();
}

// Per-index reference in the same visit order as the pencil evaluators.
template <Rank R>
void run_eval_at(const WavefrontPlan<R>& plan, const Region<R>& tile,
                 const LoopStructure<R>& ls, bool interleaved) {
  iterate_pencils(tile, ls, [&](Idx<R> start, Rank inner, Coord step,
                                Coord count) {
    if (interleaved) {
      Idx<R> i = start;
      for (Coord k = 0; k < count; ++k, i.v[inner] += step)
        for (const auto& st : plan.statements) st.eval_at(i);
      return;
    }
    for (const auto& st : plan.statements) {
      Idx<R> i = start;
      for (Coord k = 0; k < count; ++k, i.v[inner] += step) st.eval_at(i);
    }
  });
}

template <Rank R>
void check_block_pencils(StorageOrder order) {
  World<R> w(order);
  const WavefrontPlan<R> plan = block_plan(w);
  ASSERT_TRUE(plan.fused_pencil);
  ASSERT_EQ(plan.statements.size(), 3u);
  for (const LoopStructure<R>& ls : all_loop_structures<R>()) {
    for (const Region<R>& tile : w.tiles()) {
      SCOPED_TRACE("tile " + to_string(tile) + " inner dim " +
                   std::to_string(ls.order[R - 1]) + " step " +
                   std::to_string(ls.step[ls.order[R - 1]]));
      // Fused pencil against interleaved eval_at.
      w.reset();
      run_eval_at(plan, tile, ls, true);
      const auto want_fused = w.snapshot();
      w.reset();
      iterate_pencils(tile, ls, plan.fused_pencil);
      EXPECT_EQ(w.snapshot(), want_fused) << "fused pencil";

      // eval_pencil, statement after statement per pencil.
      w.reset();
      run_eval_at(plan, tile, ls, false);
      const auto want_each = w.snapshot();
      w.reset();
      iterate_pencils(tile, ls, [&](Idx<R> i, Rank inner, Coord step,
                                    Coord count) {
        for (const auto& st : plan.statements)
          st.eval_pencil(i, inner, step, count);
      });
      EXPECT_EQ(w.snapshot(), want_each) << "eval_pencil";
    }
  }
}

TEST(KernelPencils, FusedAndEvalPencilMatchEvalAtRank1) {
  check_block_pencils<1>(StorageOrder::kColMajor);
  check_block_pencils<1>(StorageOrder::kRowMajor);
}

TEST(KernelPencils, FusedAndEvalPencilMatchEvalAtRank2) {
  check_block_pencils<2>(StorageOrder::kColMajor);
  check_block_pencils<2>(StorageOrder::kRowMajor);
}

TEST(KernelPencils, FusedAndEvalPencilMatchEvalAtRank3) {
  check_block_pencils<3>(StorageOrder::kColMajor);
  check_block_pencils<3>(StorageOrder::kRowMajor);
}

// ---------------------------------------------------------------------------
// The lane kernel: run_serial_on with a lane dimension, against eval_at.

// Arrays over [0..n+1] in every dimension, with n = kWide along the lane
// dimension (wide enough for a full chunk of lanes and a narrower one after
// it) and kN along the others.
template <Rank R>
struct LaneWorld {
  static constexpr Coord kN = R == 2 ? 5 : 3;
  static constexpr Coord kWide = 2 * static_cast<Coord>(kLanes) * kLaneSpacing;

  LaneWorld(StorageOrder order, Rank lane_dim)
      : ld(lane_dim),
        all(Region<R>(Idx<R>{}, extent(lane_dim, 1))),
        interior(Region<R>(World<R>::filled(1), extent(lane_dim, 0))),
        a("a", all, order),
        b("b", all, order),
        c("c", all, order),
        x("x", all, order),
        y("y", all, order),
        z("z", all, order) {}

  static Idx<R> extent(Rank lane_dim, Coord fluff) {
    Idx<R> i = World<R>::filled(kN + fluff);
    i.v[lane_dim] = kWide + fluff;
    return i;
  }

  // Every width from 1 to 2 * kLanes + 3 at both ends of the lane
  // dimension, one full chunk (kLanes lanes kLaneSpacing apart) and one
  // chunk plus a narrower one, each spanning the other dimensions.
  std::vector<Region<R>> tiles() const {
    std::vector<Region<R>> out;
    for (Coord w = 1; w <= 2 * static_cast<Coord>(kLanes) + 3; ++w) {
      out.push_back(interior.with_dim(ld, 1, w));
      out.push_back(interior.with_dim(ld, kWide - w + 1, kWide));
    }
    const Coord chunk = static_cast<Coord>(kLanes) * kLaneSpacing;
    out.push_back(interior.with_dim(ld, 1, chunk));
    out.push_back(interior.with_dim(ld, 2, chunk + 6));
    return out;
  }

  void reset() {
    int seed = 1;
    for (DenseArray<Real, R>* arr : arrays()) {
      for_each(all, [&](const Idx<R>& i) { (*arr)(i) = value<R>(seed, i); });
      ++seed;
    }
  }

  std::vector<DenseArray<Real, R>*> arrays() { return {&a, &b, &c, &x, &y, &z}; }

  std::vector<std::uint64_t> snapshot() {
    std::vector<std::uint64_t> out;
    for (DenseArray<Real, R>* arr : arrays())
      for (Real v : arr->raw()) out.push_back(bits(v));
    return out;
  }

  Rank ld;
  Region<R> all, interior;
  DenseArray<Real, R> a, b, c, x, y, z;
};

// A recurrence along `inner`, every op node, and no read of a written array
// shifted along `ld`. Reads one step back along the pencil: s1 its x,
// which s4 stores last, s1 a later statement's z, s3 and s4 earlier
// statements' x and y, and s3 its own z. x and y are also read one step
// ahead and y at the same index, which are old values in memory. At rank 3
// written arrays are also read shifted along the third dimension. The
// unwritten a and c are read shifted along the lanes, into the fluff.
template <Rank R>
WavefrontPlan<R> lane_plan(LaneWorld<R>& w, Rank inner) {
  const Direction<R> e = unit<R>(inner, 1);
  const Direction<R> f = unit<R>(w.ld, 1);
  Direction<R> g{};
  if constexpr (R == 3) g = unit<R>(3 - inner - w.ld, 1);
  auto s1 = w.x <<= w.a * prime(w.x, -e) + min_e(w.b, at(w.c, f)) -
                    max_e(at(w.a, -f), 0.25) + 0.5 * w.y + prime(w.z, -e);
  auto s2 = w.y <<= select_e(w.a - 0.1, -w.x, abs_e(at(w.b, e))) /
                        (2.0 + sqrt_e(abs_e(w.c))) -
                    0.25 * w.y + w.z * 0.125 + at(w.x, e) - at(w.z, g);
  auto s3 = w.z <<= exp_e(0.3 * prime(w.z, -e)) * w.y -
                    w.x / (1.5 + abs_e(w.y)) + 0.5 * prime(w.x, -e) -
                    at(w.a, e).at(f) + at(w.y, e);
  auto s4 = w.x <<= 0.5 * w.x - prime(w.y, -e);
  return scan(w.interior, s1, s2, s3, s4).compile();
}

// Every loop structure with `inner` innermost.
template <Rank R>
std::vector<LoopStructure<R>> loops_with_inner(Rank inner) {
  std::vector<LoopStructure<R>> out;
  for (const LoopStructure<R>& ls : all_loop_structures<R>())
    if (ls.order[R - 1] == inner) out.push_back(ls);
  return out;
}

template <Rank R>
void check_lane_kernel(StorageOrder order, Rank inner, Rank ld) {
  LaneWorld<R> w(order, ld);
  WavefrontPlan<R> plan = lane_plan(w, inner);
  ASSERT_TRUE(plan.fused_lanes);
  plan.lane_dim = ld;
  for (const LoopStructure<R>& ls : loops_with_inner<R>(inner)) {
    plan.loops = ls;
    for (const Region<R>& tile : w.tiles()) {
      SCOPED_TRACE("tile " + to_string(tile) + " inner dim " +
                   std::to_string(inner) + " step " +
                   std::to_string(ls.step[inner]) + " lane dim " +
                   std::to_string(ld));
      w.reset();
      run_eval_at(plan, tile, ls, true);
      const auto want = w.snapshot();
      w.reset();
      run_serial_on(plan, tile);
      ASSERT_EQ(w.snapshot(), want);
    }
  }
}

TEST(KernelPencils, LanesMatchEvalAtRank2) {
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    check_lane_kernel<2>(order, 0, 1);
    check_lane_kernel<2>(order, 1, 0);
  }
}

TEST(KernelPencils, LanesMatchEvalAtRank3) {
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor})
    for (Rank inner = 0; inner < 3; ++inner)
      for (Rank ld = 0; ld < 3; ++ld)
        if (ld != inner) check_lane_kernel<3>(order, inner, ld);
}

// compile() picks the lane dimension: an outer dimension no read of a
// written array is shifted along, primed or not, when a primed read is
// shifted along the pencil.
TEST(KernelPencils, LaneDimensionNeedsUnshiftedWrittenReads) {
  World<2> w(StorageOrder::kColMajor);  // dimension 0 innermost
  const Direction<2> south{{1, 0}};
  // Recurrence along the pencil; only the unwritten a is shifted across.
  auto lanes = scan(w.interior, w.x <<= prime(w.x, kNorth) * at(w.a, kWest) +
                                        at(w.a, kEast) - at(w.y, south))
                   .compile();
  EXPECT_EQ(lanes.loops.order[1], 0u);
  ASSERT_TRUE(lanes.lane_dim.has_value());
  EXPECT_EQ(*lanes.lane_dim, 1u);
  // A written array read shifted across, unprimed or primed: no lanes.
  EXPECT_FALSE(scan(w.interior,
                    w.x <<= prime(w.x, kNorth) + at(w.y, kEast),
                    w.y <<= w.a * 2.0)
                   .compile()
                   .lane_dim);
  EXPECT_FALSE(
      scan(w.interior, w.x <<= prime(w.x, kNorth) + prime(w.x, kWest))
          .compile()
          .lane_dim);
  // No recurrence along the pencil: a single pencil already streams.
  EXPECT_FALSE(scan(w.interior, w.x <<= prime(w.x, kWest) + w.a)
                   .compile()
                   .lane_dim);
}

// The applications: primes in one dimension give lanes across it; primes
// in every dimension keep the single-pencil path.
TEST(KernelPencils, ApplicationPlansGetLanesWhereTheyMay) {
  const ProcGrid<2> one = ProcGrid<2>::along_dim(1, 0);
  Tomcatv tomcatv(TomcatvConfig{}, one, 0);
  SimpleHydro simple(SimpleConfig{}, one, 0);
  AltSweep alt(AltSweepConfig{}, one, 0);
  for (const WavefrontPlan<2>* plan :
       {&tomcatv.forward_plan(), &tomcatv.backward_plan(),
        &simple.forward_plan(), &simple.backward_plan(),
        &alt.vertical_plan()}) {
    ASSERT_TRUE(plan->lane_dim.has_value()) << plan->describe();
    EXPECT_EQ(*plan->lane_dim, 1u);
  }
  Sor sor(SorConfig{}, one, 0);
  SmithWaterman sw(SmithWatermanConfig{}, one, 0);
  EXPECT_FALSE(sor.plan().lane_dim);
  EXPECT_FALSE(sw.plan().lane_dim);
  Sweep3d sweep(Sweep3dConfig{}, ProcGrid<3>::along_dim(1, 0), 0);
  for (int octant = 0; octant < 8; ++octant)
    EXPECT_FALSE(sweep.plan_of(octant, 0).lane_dim) << "octant " << octant;
}

// rhs_pencil writes the right-hand side to a buffer and touches no array.
template <Rank R>
void check_rhs_pencil(StorageOrder order) {
  World<R> w(order);
  const auto specs = block_specs(w);
  const WavefrontPlan<R> plan = block_plan(w);
  w.reset();
  const auto before = w.snapshot();
  for (const LoopStructure<R>& ls : all_loop_structures<R>()) {
    for (const Region<R>& tile : w.tiles()) {
      iterate_pencils(tile, ls, [&](Idx<R> start, Rank inner, Coord step,
                                    Coord count) {
        std::vector<Real> got(static_cast<std::size_t>(count));
        std::size_t s = 0;
        std::apply(
            [&](const auto&... spec) {
              auto check = [&](const auto& sp) {
                plan.statements[s++].rhs_pencil(start, inner, step, count,
                                                got.data());
                Idx<R> i = start;
                for (Coord k = 0; k < count; ++k, i.v[inner] += step)
                  ASSERT_EQ(bits(got[static_cast<std::size_t>(k)]),
                            bits(sp.expr.eval(i)))
                      << "statement " << s << " at " << to_string(i);
              };
              (check(spec), ...);
            },
            specs);
      });
    }
  }
  EXPECT_EQ(w.snapshot(), before);
}

TEST(KernelPencils, RhsPencilMatchesEvalEveryRankAndOrder) {
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    check_rhs_pencil<1>(order);
    check_rhs_pencil<2>(order);
    check_rhs_pencil<3>(order);
  }
}

// apply_statement has array semantics: every right-hand side value is
// computed from the old arrays before any element is assigned. The
// reference does exactly that, per index, in for_each order.
template <Rank R, typename E>
void check_apply(World<R>& w, const StatementSpec<E>& spec,
                 const Region<R>& region) {
  w.reset();
  std::vector<Real> rhs;
  for_each(region, [&](const Idx<R>& i) { rhs.push_back(spec.expr.eval(i)); });
  std::size_t k = 0;
  for_each(region, [&](const Idx<R>& i) { (*spec.lhs)(i) = rhs[k++]; });
  const auto want = w.snapshot();
  w.reset();
  apply_statement(region, spec);
  EXPECT_EQ(w.snapshot(), want) << "region " << to_string(region);
}

template <Rank R>
void check_apply_statement(StorageOrder order) {
  World<R> w(order);
  const Direction<R> e = unit<R>(0, 1);
  const Direction<R> f = unit<R>(R - 1, 1);
  for (const Region<R>& tile : w.tiles()) {
    // No self-shifted read: evaluated in place.
    check_apply(w, w.x <<= max_e(w.a, at(w.b, -e)) * -w.c +
                               exp_e(0.2 * min_e(at(w.a, f), 1.0)) -
                               select_e(w.b, sqrt_e(abs_e(w.c)), 3.0) / 7.0,
                tile);
    // Self-shifted reads: goes through the temporary.
    check_apply(w, w.y <<= at(w.y, -f) + 0.5 * at(w.y, e) - abs_e(w.y), tile);
  }
}

TEST(KernelPencils, ApplyStatementMatchesArraySemanticsReference) {
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    check_apply_statement<1>(order);
    check_apply_statement<2>(order);
    check_apply_statement<3>(order);
  }
}

// ---------------------------------------------------------------------------
// Storage-order array loops against for_each-ordered references.

template <Rank R>
void check_storage_order_loops(StorageOrder order, StorageOrder other) {
  World<R> w(order);
  w.reset();

  // fill_fn: same values as assigning in for_each order, and every index
  // visited exactly once.
  DenseArray<Real, R> got("got", w.all, order);
  DenseArray<Real, R> want("want", w.all, order);
  std::multiset<std::vector<Coord>> seen;
  got.fill_fn([&](const Idx<R>& i) {
    seen.insert(std::vector<Coord>(i.v.begin(), i.v.end()));
    return value<R>(9, i);
  });
  for_each(w.all, [&](const Idx<R>& i) { want(i) = value<R>(9, i); });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(w.all.size()));
  EXPECT_EQ(std::set<std::vector<Coord>>(seen.begin(), seen.end()).size(),
            seen.size());
  for_each(w.all, [&](const Idx<R>& i) {
    ASSERT_EQ(bits(got(i)), bits(want(i))) << to_string(i);
  });

  // copy_from across storage orders, on every tile and on the fluff.
  for (const Region<R>& where : w.tiles()) {
    DenseArray<Real, R> dst("dst", w.all, other), ref("ref", w.all, other);
    dst.fill(-7.0);
    ref.fill(-7.0);
    dst.copy_from(w.a, where);
    for_each(where, [&](const Idx<R>& i) { ref(i) = w.a(i); });
    EXPECT_EQ(dst.raw(), ref.raw()) << "copy_from " << to_string(where);
  }

  // max_abs_difference across storage orders, with a -0.0/+0.0 pair.
  DenseArray<Real, R> other_b("other_b", w.all, other);
  for_each(w.all, [&](const Idx<R>& i) { other_b(i) = w.b(i); });
  other_b(w.all.lo()) = -w.b(w.all.lo());
  Real m = 0;
  for_each(w.all, [&](const Idx<R>& i) {
    const Real d = w.a(i) < other_b(i) ? other_b(i) - w.a(i) : w.a(i) - other_b(i);
    if (d > m) m = d;
  });
  EXPECT_EQ(bits(max_abs_difference(w.a, other_b)), bits(m));
  EXPECT_EQ(bits(max_abs_difference(w.b, w.b)), bits(0.0));
}

TEST(KernelPencils, StorageOrderLoopsMatchForEachReference) {
  const StorageOrder col = StorageOrder::kColMajor;
  const StorageOrder row = StorageOrder::kRowMajor;
  check_storage_order_loops<1>(col, row);
  check_storage_order_loops<2>(col, row);
  check_storage_order_loops<2>(row, col);
  check_storage_order_loops<3>(col, row);
  check_storage_order_loops<3>(row, col);
}

// global_max_abs may walk storage order; global_sum must keep for_each
// order, because floating-point addition does not reassociate. One rank, so
// both equal their local loops exactly.
TEST(KernelPencils, GlobalReductionsMatchForEachReference) {
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    World<3> w(order);
    w.reset();
    const Layout<3> layout(w.interior, ProcGrid<3>({1, 1, 1}),
                           World<3>::filled(1));
    Real max_ref = 0, sum_ref = 0;
    for_each(w.interior, [&](const Idx<3>& i) {
      const Real v = w.a(i) < 0 ? -w.a(i) : w.a(i);
      if (v > max_ref) max_ref = v;
      sum_ref += w.a(i);
    });
    Real got_max = -1, got_sum = -1;
    Machine::run(1, {}, [&](Communicator& comm) {
      got_max = global_max_abs(w.a, w.interior, layout, comm);
      got_sum = global_sum(w.a, w.interior, layout, comm);
    });
    EXPECT_EQ(bits(got_max), bits(max_ref));
    EXPECT_EQ(bits(got_sum), bits(sum_ref));
  }
}

}  // namespace
}  // namespace wavepipe

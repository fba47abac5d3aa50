// Microbenchmarks: the array-language execution paths (google-benchmark).
// Quantifies the cost of the DSL against a hand-written loop nest — the
// "language tax" a ZPL-style embedded language pays — and the value of the
// fused pencil over the per-index fallback.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "exec/serial.hh"
#include "exec/unfused.hh"

namespace {

using namespace wavepipe;

constexpr Coord kN = 256;

struct Arrays {
  Arrays()
      : all({{1, 1}}, {{kN, kN}}),
        reg({{2, 2}}, {{kN - 1, kN - 1}}),
        r("r", all),
        aa("aa", all),
        d("d", all),
        dd("dd", all),
        rx("rx", all) {
    aa.fill(-1.0);
    dd.fill(4.0);
    d.fill(0.25);
    rx.fill(1.0);
    r.fill(0.0);
  }
  Region<2> all, reg;
  DenseArray<Real, 2> r, aa, d, dd, rx;
};

void BM_HandWrittenLoops(benchmark::State& state) {
  Arrays a;
  for (auto _ : state) {
    // The Fortran-style fused nest, column-major order (dim 0 inner).
    for (Coord j = 2; j <= kN - 1; ++j) {
      for (Coord i = 2; i <= kN - 1; ++i) {
        const Real rr = a.aa(i, j) * a.d(i - 1, j);
        a.r(i, j) = rr;
        a.d(i, j) = 1.0 / (a.dd(i, j) - a.aa(i - 1, j) * rr);
        a.rx(i, j) = a.rx(i, j) - a.rx(i - 1, j) * rr;
      }
    }
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_HandWrittenLoops)->Iterations(50);

void BM_ScanBlockFused(benchmark::State& state) {
  Arrays a;
  auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                   a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                   a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                  .compile();
  for (auto _ : state) {
    run_serial(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_ScanBlockFused)->Iterations(50);

void BM_ScanBlockPerIndexFallback(benchmark::State& state) {
  Arrays a;
  ScanBlock<2> sb(a.reg);
  sb.add(a.r <<= a.aa * prime(a.d, kNorth));
  sb.add(a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r));
  sb.add(a.rx <<= a.rx - prime(a.rx, kNorth) * a.r);
  auto plan = sb.compile();
  for (auto _ : state) {
    run_serial(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_ScanBlockPerIndexFallback)->Iterations(50);

void BM_UnfusedArraySemantics(benchmark::State& state) {
  Arrays a;
  auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                   a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                   a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                  .compile();
  for (auto _ : state) {
    run_unfused(plan);
    benchmark::DoNotOptimize(a.rx(kN - 1, kN - 1));
  }
  state.SetItemsProcessed(state.iterations() * (kN - 2) * (kN - 2));
}
BENCHMARK(BM_UnfusedArraySemantics)->Iterations(20);

// One rank's block of the Tomcatv forward wave at n = 2048, p = 4, b = 32:
// 514 x 2050 allocated column-major (a 4112 B column stride), 512 x 2048
// cells, run tile by tile as the pipelined executor runs it.
struct RankBlock {
  static constexpr Coord kRows = 512, kCols = 2048, kTile = 32;
  RankBlock()
      : all({{1, 1}}, {{kRows + 2, kCols + 2}}),
        reg({{2, 2}}, {{kRows + 1, kCols + 1}}),
        r("r", all),
        aa("aa", all),
        d("d", all),
        dd("dd", all),
        rx("rx", all),
        ry("ry", all) {
    aa.fill(-1.0);
    dd.fill(4.0);
    d.fill(0.25);
    rx.fill(1.0);
    ry.fill(0.5);
    r.fill(0.0);
  }
  template <typename Fn>
  void for_each_tile(Fn&& fn) const {
    for (Coord j = reg.lo(1); j <= reg.hi(1); j += kTile)
      fn(reg.with_dim(1, j, std::min(j + kTile - 1, reg.hi(1))));
  }
  Region<2> all, reg;
  DenseArray<Real, 2> r, aa, d, dd, rx, ry;
};

// The hand-written loop one pencil at a time: each cell waits on the one
// above it.
void BM_HandSinglePencilRankBlock(benchmark::State& state) {
  RankBlock a;
  for (auto _ : state) {
    a.for_each_tile([&](const Region<2>& tile) {
      for (Coord j = tile.lo(1); j <= tile.hi(1); ++j)
        for (Coord i = tile.lo(0); i <= tile.hi(0); ++i) {
          const Real rr = a.aa(i, j) * a.d(i - 1, j);
          a.r(i, j) = rr;
          a.d(i, j) = 1.0 / (a.dd(i, j) - a.aa(i - 1, j) * rr);
          a.rx(i, j) = a.rx(i, j) - a.rx(i - 1, j) * rr;
          a.ry(i, j) = a.ry(i, j) - a.ry(i - 1, j) * rr;
        }
    });
    benchmark::DoNotOptimize(a.ry(RankBlock::kRows + 1, RankBlock::kCols + 1));
  }
  state.SetItemsProcessed(state.iterations() * a.reg.size());
}
BENCHMARK(BM_HandSinglePencilRankBlock)->Iterations(20);

// The same block as the scan block, which runs kLanes pencils at once.
void BM_ScanBlockFusedRankBlock(benchmark::State& state) {
  RankBlock a;
  auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                   a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                   a.rx <<= a.rx - prime(a.rx, kNorth) * a.r,
                   a.ry <<= a.ry - prime(a.ry, kNorth) * a.r)
                  .compile();
  for (auto _ : state) {
    a.for_each_tile([&](const Region<2>& tile) { run_serial_on(plan, tile); });
    benchmark::DoNotOptimize(a.ry(RankBlock::kRows + 1, RankBlock::kCols + 1));
  }
  state.SetItemsProcessed(state.iterations() * a.reg.size());
}
BENCHMARK(BM_ScanBlockFusedRankBlock)->Iterations(20);

void BM_CompilePlan(benchmark::State& state) {
  Arrays a;
  for (auto _ : state) {
    auto plan = scan(a.reg, a.r <<= a.aa * prime(a.d, kNorth),
                     a.d <<= 1.0 / (a.dd - at(a.aa, kNorth) * a.r),
                     a.rx <<= a.rx - prime(a.rx, kNorth) * a.r)
                    .compile();
    benchmark::DoNotOptimize(plan.loops);
  }
}
BENCHMARK(BM_CompilePlan)->Iterations(2000);

}  // namespace

BENCHMARK_MAIN();

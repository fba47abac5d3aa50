// Alternating-direction line Gauss-Seidel: the paper's §2.2 Summary
// scenario — a program with both north-south AND east-west wavefronts.
//
// Each half-iteration is a line relaxation: a parallel statement gathers
// the orthogonal stencil contributions into g, then a scan block carries
// the Gauss-Seidel recurrence along the line direction:
//
//   vertical:    g = u@west + u@east + f            (parallel)
//                u = (1-w)u + (w/4)(u'@north + u@south + g)   (wavefront N-S)
//   horizontal:  g = u@north + u@south + f          (parallel)
//                u = (1-w)u + (w/4)(u'@west + u@east + g)     (wavefront W-E)
//
// With arrays distributed across the first dimension the vertical sweep is
// a distributed wavefront while the horizontal one is processor-local. Two
// strategies execute the vertical sweep:
//
//   * kPipelined  — the language-based solution: pipeline it (Fig 4b);
//   * kTranspose  — the array-language workaround: transpose u so the
//     wavefront dimension becomes local, run the (now horizontal) sweep
//     fully parallel, transpose back;
//   * kScheduled  — the dataflow solution: the whole iteration (both
//     sweeps and both gather statements) is lowered into a tile-task graph
//     chunked along the column dimension, so the W-E sweep chases the N-S
//     wave chunk by chunk and successive iterations pipeline into each
//     other instead of meeting at phase barriers.
//
// All strategies compute bit-identical fields; bench/transpose_vs_pipeline
// compares the first two, quantifying the paper's "may be much slower",
// and bench/sched_overlap measures what the third recovers.
#pragma once

#include "array/transpose.hh"
#include "exec/driver.hh"
#include "sched/executor.hh"
#include "sched/tags.hh"

namespace wavepipe {

enum class VerticalStrategy { kPipelined, kTranspose, kScheduled };

struct AltSweepConfig {
  Coord n = 64;
  int iterations = 4;
  Real omega = 1.0;  // the lagged orthogonal terms make this Jacobi-like: w <= 1
  StorageOrder order = StorageOrder::kColMajor;
};

class AltSweep {
 public:
  AltSweep(const AltSweepConfig& cfg, const ProcGrid<2>& grid, int rank);

  AltSweep(const AltSweep&) = delete;
  AltSweep& operator=(const AltSweep&) = delete;

  /// Dirichlet boundary, zero interior, fixed source term; the transposed
  /// twins hold the same fields with coordinates swapped.
  /// Writes every allocated element, fluff included: the constructor
  /// builds the arrays for overwrite and calls init() once. Calling it
  /// again re-initializes.
  void init();

  /// One iteration: vertical sweep (by the chosen strategy) followed by
  /// the horizontal sweep (always local). Collective. kScheduled runs a
  /// one-iteration task graph; for cross-iteration pipelining call
  /// iterate_scheduled with the full iteration count instead.
  void iterate(Communicator& comm, VerticalStrategy strategy,
               const WaveOptions& opts = {});

  /// Runs `iterations` whole iterations as one task graph: per
  /// column-chunk tasks for the gather statements (g1, g2), the N-S wave
  /// tiles, the per-chunk north-bound ghost messages, and the W-E sweep,
  /// with edges encoding the data and anti dependences between them.
  /// Bit-identical to calling iterate(kPipelined) `iterations` times with
  /// the same options. Collective.
  SchedReport iterate_scheduled(
      Communicator& comm, int iterations, const WaveOptions& opts = {},
      const SchedOptions& sched = SchedOptions::from_env());

  Real residual_norm(Communicator& comm);
  Real checksum(Communicator& comm);

  const Layout<2>& layout() const { return layout_; }
  const Region<2>& interior() const { return interior_; }
  Coord wave_elements() const { return interior_.size(); }

 private:
  void vertical_pipelined(Communicator& comm, const WaveOptions& opts);
  void vertical_by_transpose(Communicator& comm);
  void horizontal_local(Communicator& comm);

  AltSweepConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> global_, interior_;
  Layout<2> layout_;
  DistArray<Real, 2> u_, f_, g_, res_;

  // Transposed-world twins for the kTranspose strategy.
  Layout<2> tlayout_;
  Region<2> tinterior_;
  DistArray<Real, 2> ut_, ft_, gt_;

  WavefrontPlan<2> vplan_;   // vertical line sweep (wave along dim 0)
  WavefrontPlan<2> hplan_;   // horizontal line sweep (wave along dim 1, local)
  WavefrontPlan<2> vtplan_;  // the vertical sweep in the transposed world

  // Tag space for the scheduled strategy, above every hardcoded base the
  // blocking paths use; each iterate_scheduled call allocates fresh
  // per-iteration ranges so overlapping iterations can never collide.
  TagAllocator tags_{800};
};

/// SPMD driver; returns the final residual norm.
Real alt_sweep_spmd(Communicator& comm, const AltSweepConfig& cfg,
                    const ProcGrid<2>& grid, VerticalStrategy strategy,
                    const WaveOptions& opts = {});

}  // namespace wavepipe

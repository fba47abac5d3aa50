// Tomcatv: the SPECfp92 mesh-generation benchmark's computational
// structure, built on the wavepipe array language.
//
// The program is an iterative solver with four phases per iteration:
//   1. residual phase (fully parallel stencils): rx, ry from x, y;
//   2. forward elimination — the paper's Fig 2(b) scan block verbatim:
//        [2..n-1, 2..n-1] scan
//          r  = aa * d'@north;
//          d  = 1.0 / (dd - aa@north * r);
//          rx = rx - rx'@north * r;
//          ry = ry - ry'@north * r;
//      (a north-to-south wavefront);
//   3. back substitution — the mirrored south-to-north wavefront:
//          rx = (rx - aa * rx'@south) * d;   ry likewise;
//   4. update phase (fully parallel): x += omega*rx; y += omega*ry.
//
// Together 2+3 are a Thomas tridiagonal line solve along the first
// dimension (diagonally dominant: dd = 4, aa = -1), so the whole program is
// a convergent line-relaxation Poisson solver — numerically meaningful, and
// phase-for-phase the shape the paper measures (two wavefront fragments
// plus parallel phases).
#pragma once

#include "exec/driver.hh"
#include "exec/unfused.hh"

namespace wavepipe {

struct TomcatvConfig {
  Coord n = 64;                // arrays are n x n, 1-based like the Fortran
  int iterations = 5;
  StorageOrder order = StorageOrder::kColMajor;
  Real omega = 0.8;            // damping of the correction update
};

class Tomcatv {
 public:
  Tomcatv(const TomcatvConfig& cfg, const ProcGrid<2>& grid, int rank);

  Tomcatv(const Tomcatv&) = delete;
  Tomcatv& operator=(const Tomcatv&) = delete;

  /// Deterministic initial mesh (a distorted lattice) and coefficients.
  /// Writes every allocated element, fluff included: the constructor
  /// builds the arrays for overwrite and calls init() once. Calling it
  /// again re-initializes.
  void init();

  // --- the four phases (all collective over the grid) ---

  /// Parallel stencil phase; returns nothing (call residual_norm after it).
  void residual_phase(Communicator& comm);

  /// The Fig 2(b) scan block (north-to-south wavefront).
  WaveReport<2> forward_elimination(Communicator& comm,
                                    const WaveOptions& opts = {});

  /// The mirrored back substitution (south-to-north wavefront).
  WaveReport<2> back_substitution(Communicator& comm,
                                  const WaveOptions& opts = {});

  /// Parallel mesh update.
  void update_phase(Communicator& comm);

  /// All four phases once; returns max |rx| before the update (the
  /// residual the solver is driving to zero).
  Real iterate(Communicator& comm, const WaveOptions& opts = {});

  // --- uniprocessor cache-study entry points (grid must be 1x1) ---

  /// Runs both wavefront phases with the fused scan-block executor.
  void wavefronts_fused();
  /// Runs both wavefront phases with the unfused array-semantics baseline.
  void wavefronts_unfused();
  /// Runs the parallel phases serially (residual + update).
  void parallel_phases_serial();

  /// One full uniprocessor iteration (no communicator): parallel phases
  /// plus both wavefronts, executed fused (scan blocks) or unfused (plain
  /// array-language code). The whole-program measurement of Fig 6.
  void iterate_uniprocessor(bool fused);

  /// The compiled wavefront plans (per-fragment timing in benches).
  const WavefrontPlan<2>& forward_plan() const { return fwd_plan_; }
  const WavefrontPlan<2>& backward_plan() const { return bwd_plan_; }

  // --- inspection ---

  const TomcatvConfig& config() const { return cfg_; }
  const Layout<2>& layout() const { return layout_; }
  const Region<2>& interior() const { return interior_; }
  DenseArray<Real, 2>& x() { return x_; }
  DenseArray<Real, 2>& y() { return y_; }
  DenseArray<Real, 2>& rx() { return rx_; }

  /// Order-independent checksum of the mesh (collective).
  Real checksum(Communicator& comm);
  /// Residual norm max|rx| (collective).
  Real residual_norm(Communicator& comm);

  /// Elements computed per wavefront phase (model inputs).
  Coord wave_elements() const { return interior_.size(); }

 private:
  WavefrontPlan<2> compile_forward();
  WavefrontPlan<2> compile_backward();

  TomcatvConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> global_;    // [1..n, 1..n]
  Region<2> interior_;  // [2..n-1, 2..n-1]
  Layout<2> layout_;

  DenseArray<Real, 2> x_, y_;    // mesh coordinates
  DenseArray<Real, 2> rx_, ry_;  // residuals / corrections
  DenseArray<Real, 2> aa_, dd_;  // tridiagonal coefficients
  DenseArray<Real, 2> d_, r_;    // elimination workspace

  WavefrontPlan<2> fwd_plan_;
  WavefrontPlan<2> bwd_plan_;
};

/// Convenience SPMD driver: init + `cfg.iterations` iterations. Returns the
/// final residual norm (same on every rank).
Real tomcatv_spmd(Communicator& comm, const TomcatvConfig& cfg,
                  const ProcGrid<2>& grid, const WaveOptions& opts = {});

}  // namespace wavepipe

// Gauss-Seidel / SOR with natural ordering: the textbook wavefront.
//
// The update
//
//   u = (1-w)*u + w*0.25*(u'@north + u'@west + u@south + u@east - h2f)
//
// reads *new* values to the north and west (primed) and old values to the
// south and east — the natural-ordering sweep. The WSV of {north, west} is
// (-,-) (the paper's Example 2 class): the wavefront travels along one
// dimension and the other is serialized; pipelining recovers parallelism.
// The program solves the Poisson problem -lap(u) = f on the unit square.
#pragma once

#include "exec/driver.hh"
#include "exec/unfused.hh"

namespace wavepipe {

struct SorConfig {
  Coord n = 64;           // grid is n x n including boundary
  int iterations = 10;
  Real omega = 1.5;       // over-relaxation factor
  StorageOrder order = StorageOrder::kColMajor;
};

class Sor {
 public:
  Sor(const SorConfig& cfg, const ProcGrid<2>& grid, int rank);

  Sor(const Sor&) = delete;
  Sor& operator=(const Sor&) = delete;

  /// Zero interior, Dirichlet boundary, smooth source term.
  /// Writes every allocated element, fluff included: the constructor
  /// builds the arrays for overwrite and calls init() once. Calling it
  /// again re-initializes.
  void init();

  /// One natural-ordering sweep (a wavefront; collective).
  WaveReport<2> sweep(Communicator& comm, const WaveOptions& opts = {});

  /// Residual inf-norm of the discrete Poisson equation (collective).
  Real residual_norm(Communicator& comm);

  Real checksum(Communicator& comm);

  const Layout<2>& layout() const { return layout_; }
  const Region<2>& interior() const { return interior_; }
  DenseArray<Real, 2>& u() { return u_; }
  Coord wave_elements() const { return interior_.size(); }

  /// Uniprocessor cache-study entry points (1x1 grid).
  void sweep_fused() { run_serial(plan_); }
  void sweep_unfused() { run_unfused(plan_); }

 private:
  WavefrontPlan<2> compile_sweep();

  SorConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> global_, interior_;
  Layout<2> layout_;
  DenseArray<Real, 2> u_, f_, res_;
  WavefrontPlan<2> plan_;
};

/// SPMD driver: init + iterations sweeps; returns the final residual norm.
Real sor_spmd(Communicator& comm, const SorConfig& cfg,
              const ProcGrid<2>& grid, const WaveOptions& opts = {});

}  // namespace wavepipe

// SIMPLE: a structural reimplementation of the LLNL SIMPLE benchmark
// (Crowley et al., UCID-17715, 1978) — 2-D Lagrangian hydrodynamics with
// heat conduction — on the wavepipe array language.
//
// The original alternates an explicit hydro phase (equation of state,
// artificial viscosity, momentum/energy updates: all fully parallel
// stencils) with an implicit heat-conduction phase whose line solves are
// wavefront computations. As in the paper's evaluation, the program has two
// wavefront fragments (the conduction solve's forward elimination and back
// substitution) embedded in a mostly-parallel program, with a smaller
// wavefront fraction than Tomcatv — which is why the paper's whole-program
// SIMPLE speedups are the modest ones.
//
// Physics is simplified (linearized EOS, fixed conduction coefficient,
// small time step) but every array and phase has its hydro meaning, and the
// arithmetic per phase is representative. See DESIGN.md ("Substitutions").
#pragma once

#include "exec/driver.hh"
#include "exec/unfused.hh"

namespace wavepipe {

struct SimpleConfig {
  Coord n = 64;
  int iterations = 5;
  Real dt = 1e-3;          // time step
  Real gamma = 1.4;        // EOS: p = (gamma-1) rho e
  Real qcoef = 0.2;        // artificial viscosity coefficient
  Real conductivity = 0.1; // heat conduction k (implicit solve)
  StorageOrder order = StorageOrder::kColMajor;
};

class SimpleHydro {
 public:
  SimpleHydro(const SimpleConfig& cfg, const ProcGrid<2>& grid, int rank);

  SimpleHydro(const SimpleHydro&) = delete;
  SimpleHydro& operator=(const SimpleHydro&) = delete;

  /// Smooth initial density/energy bump, fluid at rest.
  /// Writes every allocated element, fluff included: the constructor
  /// builds the arrays for overwrite and calls init() once. Calling it
  /// again re-initializes.
  void init();

  // --- phases (collective) ---

  /// EOS + viscosity + momentum + energy/density updates (all parallel).
  void hydro_phase(Communicator& comm);

  /// Conduction line solve, forward elimination (north-to-south wavefront).
  WaveReport<2> conduction_forward(Communicator& comm,
                                   const WaveOptions& opts = {});

  /// Conduction back substitution (south-to-north wavefront).
  WaveReport<2> conduction_backward(Communicator& comm,
                                    const WaveOptions& opts = {});

  /// Couples the conducted temperature back into the energy (parallel).
  void couple_phase(Communicator& comm);

  /// One full time step; returns total energy (a conserved-ish diagnostic).
  Real step(Communicator& comm, const WaveOptions& opts = {});

  // --- uniprocessor cache-study entry points (1x1 grid) ---
  void wavefronts_fused();
  void wavefronts_unfused();
  void parallel_phases_serial();

  /// One full uniprocessor time step: all phases, wavefronts fused or
  /// unfused. The whole-program measurement of Fig 6.
  void step_uniprocessor(bool fused);

  /// The compiled wavefront plans (per-fragment timing in benches).
  const WavefrontPlan<2>& forward_plan() const { return fwd_plan_; }
  const WavefrontPlan<2>& backward_plan() const { return bwd_plan_; }

  // --- inspection ---
  const Layout<2>& layout() const { return layout_; }
  const Region<2>& interior() const { return interior_; }
  Real checksum(Communicator& comm);
  Real total_energy(Communicator& comm);
  Coord wave_elements() const { return interior_.size(); }

 private:
  WavefrontPlan<2> compile_forward();
  WavefrontPlan<2> compile_backward();

  SimpleConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> global_, interior_;
  Layout<2> layout_;

  DenseArray<Real, 2> rho_, e_, p_, q_;  // state: density, energy, pressure, viscosity
  DenseArray<Real, 2> u_, v_;            // velocity components
  DenseArray<Real, 2> temp_;             // temperature (conduction unknown)
  DenseArray<Real, 2> aa_, dd_, d_, r_;  // tridiagonal workspace

  WavefrontPlan<2> fwd_plan_;
  WavefrontPlan<2> bwd_plan_;
};

/// SPMD driver: init + cfg.iterations steps; returns final total energy.
Real simple_spmd(Communicator& comm, const SimpleConfig& cfg,
                 const ProcGrid<2>& grid, const WaveOptions& opts = {});

}  // namespace wavepipe

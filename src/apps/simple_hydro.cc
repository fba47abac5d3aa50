#include "apps/simple_hydro.hh"

#include <cmath>

namespace wavepipe {

SimpleHydro::SimpleHydro(const SimpleConfig& cfg, const ProcGrid<2>& grid,
                         int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_({{1, 1}}, {{cfg.n, cfg.n}}),
      interior_({{2, 2}}, {{cfg.n - 1, cfg.n - 1}}),
      layout_(global_, grid, Idx<2>{{1, 1}}),
      rho_("rho", layout_.allocated(rank), cfg.order, kForOverwrite),
      e_("e", layout_.allocated(rank), cfg.order, kForOverwrite),
      p_("p", layout_.allocated(rank), cfg.order, kForOverwrite),
      q_("q", layout_.allocated(rank), cfg.order, kForOverwrite),
      u_("u", layout_.allocated(rank), cfg.order, kForOverwrite),
      v_("v", layout_.allocated(rank), cfg.order, kForOverwrite),
      temp_("T", layout_.allocated(rank), cfg.order, kForOverwrite),
      aa_("aa", layout_.allocated(rank), cfg.order, kForOverwrite),
      dd_("dd", layout_.allocated(rank), cfg.order, kForOverwrite),
      d_("d", layout_.allocated(rank), cfg.order, kForOverwrite),
      r_("r", layout_.allocated(rank), cfg.order, kForOverwrite),
      fwd_plan_(compile_forward()),
      bwd_plan_(compile_backward()) {
  require(cfg.n >= 4, "SIMPLE needs n >= 4");
  init();
}

WavefrontPlan<2> SimpleHydro::compile_forward() {
  // Thomas forward elimination on the temperature lines (the conduction
  // solve's wavefront), same shape as Tomcatv's Fig 2(b) block.
  return scan(interior_,
              r_ <<= aa_ * prime(d_, kNorth),
              d_ <<= 1.0 / (dd_ - at(aa_, kNorth) * r_),
              temp_ <<= temp_ - prime(temp_, kNorth) * r_)
      .compile();
}

WavefrontPlan<2> SimpleHydro::compile_backward() {
  return scan(interior_,
              temp_ <<= (temp_ - aa_ * prime(temp_, kSouth)) * d_)
      .compile();
}

void SimpleHydro::init() {
  const Real n = static_cast<Real>(cfg_.n);
  rho_.fill_fn([&](const Idx<2>& i) {
    const Real fi = (static_cast<Real>(i.v[0]) - 0.5 * n) / n;
    const Real fj = (static_cast<Real>(i.v[1]) - 0.5 * n) / n;
    return 1.0 + 0.3 * std::exp(-25.0 * (fi * fi + fj * fj));  // density bump
  });
  e_.fill_fn([&](const Idx<2>& i) {
    const Real fi = (static_cast<Real>(i.v[0]) - 0.5 * n) / n;
    const Real fj = (static_cast<Real>(i.v[1]) - 0.5 * n) / n;
    return 1.0 + 0.5 * std::exp(-25.0 * (fi * fi + fj * fj));  // hot spot
  });
  p_.fill(0.0);
  q_.fill(0.0);
  u_.fill(0.0);
  v_.fill(0.0);
  temp_.fill(1.0);
  // Conduction system: (1 + 2k) T_j - k T_{j-1} - k T_{j+1} = rhs
  aa_.fill(-cfg_.conductivity);
  dd_.fill(1.0 + 2.0 * cfg_.conductivity);
  d_.fill(0.0);
  r_.fill(0.0);
}

void SimpleHydro::hydro_phase(Communicator& comm) {
  const Real g1 = cfg_.gamma - 1.0;
  const Real dt = cfg_.dt;
  const Real qc = cfg_.qcoef;

  // Equation of state (pointwise).
  apply_distributed(interior_, p_ <<= g1 * rho_ * e_, layout_, comm, 300);

  // Artificial viscosity from velocity jumps (stencil).
  apply_distributed(interior_,
                    q_ <<= qc * ((at(u_, kEast) - u_) * (at(u_, kEast) - u_) +
                                 (at(v_, kSouth) - v_) * (at(v_, kSouth) - v_)),
                    layout_, comm, 310);

  // Momentum from pressure + viscosity gradients (stencils).
  apply_distributed(interior_,
                    u_ <<= u_ - (0.5 * dt) * (at(p_, kEast) - at(p_, kWest) +
                                              at(q_, kEast) - at(q_, kWest)),
                    layout_, comm, 320);
  apply_distributed(interior_,
                    v_ <<= v_ - (0.5 * dt) * (at(p_, kSouth) - at(p_, kNorth) +
                                              at(q_, kSouth) - at(q_, kNorth)),
                    layout_, comm, 330);

  // Density and energy from the velocity divergence (stencils).
  apply_distributed(
      interior_,
      rho_ <<= rho_ - (0.5 * dt) * rho_ *
                          (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                           at(v_, kNorth)),
      layout_, comm, 340);
  apply_distributed(
      interior_,
      e_ <<= e_ - (0.5 * dt) * p_ *
                      (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                       at(v_, kNorth)),
      layout_, comm, 350);

  // Temperature relaxes toward the specific energy before conduction.
  apply_distributed(interior_, temp_ <<= temp_ + 0.5 * (e_ - temp_), layout_,
                    comm, 360);
}

WaveReport<2> SimpleHydro::conduction_forward(Communicator& comm,
                                              const WaveOptions& opts) {
  return run_wavefront(fwd_plan_, layout_, comm, opts);
}

WaveReport<2> SimpleHydro::conduction_backward(Communicator& comm,
                                               const WaveOptions& opts) {
  WaveOptions o = opts;
  o.tag_base = opts.tag_base + 128;
  return run_wavefront(bwd_plan_, layout_, comm, o);
}

void SimpleHydro::couple_phase(Communicator& comm) {
  apply_distributed(interior_, e_ <<= e_ + 0.5 * (temp_ - e_), layout_, comm,
                    370);
}

Real SimpleHydro::step(Communicator& comm, const WaveOptions& opts) {
  hydro_phase(comm);
  conduction_forward(comm, opts);
  conduction_backward(comm, opts);
  couple_phase(comm);
  return total_energy(comm);
}

void SimpleHydro::wavefronts_fused() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  run_serial(fwd_plan_);
  run_serial(bwd_plan_);
}

void SimpleHydro::wavefronts_unfused() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  run_unfused(fwd_plan_);
  run_unfused(bwd_plan_);
}

void SimpleHydro::step_uniprocessor(bool fused) {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  const Real g1 = cfg_.gamma - 1.0;
  const Real dt = cfg_.dt;
  const Real qc = cfg_.qcoef;
  apply_statement(interior_, p_ <<= g1 * rho_ * e_);
  apply_statement(interior_,
                  q_ <<= qc * ((at(u_, kEast) - u_) * (at(u_, kEast) - u_) +
                               (at(v_, kSouth) - v_) * (at(v_, kSouth) - v_)));
  apply_statement(interior_,
                  u_ <<= u_ - (0.5 * dt) * (at(p_, kEast) - at(p_, kWest) +
                                            at(q_, kEast) - at(q_, kWest)));
  apply_statement(interior_,
                  v_ <<= v_ - (0.5 * dt) * (at(p_, kSouth) - at(p_, kNorth) +
                                            at(q_, kSouth) - at(q_, kNorth)));
  apply_statement(
      interior_,
      rho_ <<= rho_ - (0.5 * dt) * rho_ *
                          (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                           at(v_, kNorth)));
  apply_statement(
      interior_,
      e_ <<= e_ - (0.5 * dt) * p_ *
                      (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                       at(v_, kNorth)));
  apply_statement(interior_, temp_ <<= temp_ + 0.5 * (e_ - temp_));
  if (fused) {
    run_serial(fwd_plan_);
    run_serial(bwd_plan_);
  } else {
    run_unfused(fwd_plan_);
    run_unfused(bwd_plan_);
  }
  apply_statement(interior_, e_ <<= e_ + 0.5 * (temp_ - e_));
}

void SimpleHydro::parallel_phases_serial() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  const Real g1 = cfg_.gamma - 1.0;
  const Real dt = cfg_.dt;
  const Real qc = cfg_.qcoef;
  apply_statement(interior_, p_ <<= g1 * rho_ * e_);
  apply_statement(interior_,
                  q_ <<= qc * ((at(u_, kEast) - u_) * (at(u_, kEast) - u_) +
                               (at(v_, kSouth) - v_) * (at(v_, kSouth) - v_)));
  apply_statement(interior_,
                  u_ <<= u_ - (0.5 * dt) * (at(p_, kEast) - at(p_, kWest) +
                                            at(q_, kEast) - at(q_, kWest)));
  apply_statement(interior_,
                  v_ <<= v_ - (0.5 * dt) * (at(p_, kSouth) - at(p_, kNorth) +
                                            at(q_, kSouth) - at(q_, kNorth)));
  apply_statement(
      interior_,
      rho_ <<= rho_ - (0.5 * dt) * rho_ *
                          (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                           at(v_, kNorth)));
  apply_statement(
      interior_,
      e_ <<= e_ - (0.5 * dt) * p_ *
                      (at(u_, kEast) - at(u_, kWest) + at(v_, kSouth) -
                       at(v_, kNorth)));
  apply_statement(interior_, temp_ <<= temp_ + 0.5 * (e_ - temp_));
  apply_statement(interior_, e_ <<= e_ + 0.5 * (temp_ - e_));
}

Real SimpleHydro::checksum(Communicator& comm) {
  return global_sum(rho_, interior_, layout_, comm) +
         global_sum(e_, interior_, layout_, comm) +
         global_sum(temp_, interior_, layout_, comm);
}

Real SimpleHydro::total_energy(Communicator& comm) {
  return global_sum(e_, interior_, layout_, comm);
}

Real simple_spmd(Communicator& comm, const SimpleConfig& cfg,
                 const ProcGrid<2>& grid, const WaveOptions& opts) {
  SimpleHydro app(cfg, grid, comm.rank());
  Real energy = 0.0;
  for (int it = 0; it < cfg.iterations; ++it) energy = app.step(comm, opts);
  return energy;
}

}  // namespace wavepipe

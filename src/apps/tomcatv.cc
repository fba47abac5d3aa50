#include "apps/tomcatv.hh"

#include <cmath>
#include <vector>

namespace wavepipe {

namespace {

constexpr Idx<2> kFluff{{1, 1}};

Region<2> global_region(Coord n) { return Region<2>({{1, 1}}, {{n, n}}); }
Region<2> interior_region(Coord n) { return Region<2>({{2, 2}}, {{n - 1, n - 1}}); }

}  // namespace

Tomcatv::Tomcatv(const TomcatvConfig& cfg, const ProcGrid<2>& grid, int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_(global_region(cfg.n)),
      interior_(interior_region(cfg.n)),
      layout_(global_, grid, kFluff),
      x_("x", layout_.allocated(rank), cfg.order, kForOverwrite),
      y_("y", layout_.allocated(rank), cfg.order, kForOverwrite),
      rx_("rx", layout_.allocated(rank), cfg.order, kForOverwrite),
      ry_("ry", layout_.allocated(rank), cfg.order, kForOverwrite),
      aa_("aa", layout_.allocated(rank), cfg.order, kForOverwrite),
      dd_("dd", layout_.allocated(rank), cfg.order, kForOverwrite),
      d_("d", layout_.allocated(rank), cfg.order, kForOverwrite),
      r_("r", layout_.allocated(rank), cfg.order, kForOverwrite),
      fwd_plan_(compile_forward()),
      bwd_plan_(compile_backward()) {
  require(cfg.n >= 4, "Tomcatv needs n >= 4");
  init();
}

WavefrontPlan<2> Tomcatv::compile_forward() {
  // The paper's Fig 2(b), statement for statement.
  return scan(interior_,
              r_ <<= aa_ * prime(d_, kNorth),
              d_ <<= 1.0 / (dd_ - at(aa_, kNorth) * r_),
              rx_ <<= rx_ - prime(rx_, kNorth) * r_,
              ry_ <<= ry_ - prime(ry_, kNorth) * r_)
      .compile();
}

WavefrontPlan<2> Tomcatv::compile_backward() {
  // Thomas back substitution: a south-to-north wavefront.
  return scan(interior_,
              rx_ <<= (rx_ - aa_ * prime(rx_, kSouth)) * d_,
              ry_ <<= (ry_ - aa_ * prime(ry_, kSouth)) * d_)
      .compile();
}

void Tomcatv::init() {
  // A distorted lattice; the harmonic (converged) mesh is the undistorted
  // one, so residuals demonstrably shrink. The distortion is
  // high-frequency (near-Nyquist oscillation per cell): line relaxation
  // damps rough modes fast, which keeps short convergence tests meaningful.
  //
  //   x(i,j) = j + 0.25 * sin(2.7 i) * sin(2.9 j)
  //   y(i,j) = i + 0.25 * cos(2.6 i) * sin(2.8 j)
  //
  // Each factor depends on one coordinate only, so it is tabulated once
  // per row or column; the products keep the formula's association.
  const Region<2> all = x_.region();
  auto table = [&all](Rank d, auto f) {
    std::vector<Real> t;
    for (Coord k = all.lo(d); k <= all.hi(d); ++k)
      t.push_back(f(static_cast<Real>(k)));
    return t;
  };
  const auto sin_i = table(0, [](Real fi) { return std::sin(2.7 * fi); });
  const auto cos_i = table(0, [](Real fi) { return std::cos(2.6 * fi); });
  const auto sin_j_x = table(1, [](Real fj) { return std::sin(2.9 * fj); });
  const auto sin_j_y = table(1, [](Real fj) { return std::sin(2.8 * fj); });
  x_.fill_fn([&](const Idx<2>& i) {
    const std::size_t ri = static_cast<std::size_t>(i.v[0] - all.lo(0));
    const std::size_t cj = static_cast<std::size_t>(i.v[1] - all.lo(1));
    return static_cast<Real>(i.v[1]) + 0.25 * sin_i[ri] * sin_j_x[cj];
  });
  y_.fill_fn([&](const Idx<2>& i) {
    const std::size_t ri = static_cast<std::size_t>(i.v[0] - all.lo(0));
    const std::size_t cj = static_cast<std::size_t>(i.v[1] - all.lo(1));
    return static_cast<Real>(i.v[0]) + 0.25 * cos_i[ri] * sin_j_y[cj];
  });
  rx_.fill(0.0);
  ry_.fill(0.0);
  aa_.fill(-1.0);  // off-diagonal of the diagonally dominant line system
  dd_.fill(4.0);   // diagonal
  d_.fill(0.0);
  r_.fill(0.0);
}

void Tomcatv::residual_phase(Communicator& comm) {
  apply_distributed(interior_,
                    rx_ <<= at(x_, kNorth) + at(x_, kSouth) + at(x_, kWest) +
                                at(x_, kEast) - 4.0 * x_,
                    layout_, comm, /*tag_base=*/300);
  apply_distributed(interior_,
                    ry_ <<= at(y_, kNorth) + at(y_, kSouth) + at(y_, kWest) +
                                at(y_, kEast) - 4.0 * y_,
                    layout_, comm, /*tag_base=*/340);
}

WaveReport<2> Tomcatv::forward_elimination(Communicator& comm,
                                           const WaveOptions& opts) {
  return run_wavefront(fwd_plan_, layout_, comm, opts);
}

WaveReport<2> Tomcatv::back_substitution(Communicator& comm,
                                         const WaveOptions& opts) {
  WaveOptions o = opts;
  o.tag_base = opts.tag_base + 128;  // keep the two waves' tags apart
  return run_wavefront(bwd_plan_, layout_, comm, o);
}

void Tomcatv::update_phase(Communicator& comm) {
  apply_distributed(interior_, x_ <<= x_ + cfg_.omega * rx_, layout_, comm,
                    380);
  apply_distributed(interior_, y_ <<= y_ + cfg_.omega * ry_, layout_, comm,
                    420);
}

Real Tomcatv::iterate(Communicator& comm, const WaveOptions& opts) {
  residual_phase(comm);
  const Real norm = residual_norm(comm);
  forward_elimination(comm, opts);
  back_substitution(comm, opts);
  update_phase(comm);
  return norm;
}

void Tomcatv::wavefronts_fused() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  run_serial(fwd_plan_);
  run_serial(bwd_plan_);
}

void Tomcatv::wavefronts_unfused() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  run_unfused(fwd_plan_);
  run_unfused(bwd_plan_);
}

void Tomcatv::iterate_uniprocessor(bool fused) {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  apply_statement(interior_, rx_ <<= at(x_, kNorth) + at(x_, kSouth) +
                                         at(x_, kWest) + at(x_, kEast) -
                                         4.0 * x_);
  apply_statement(interior_, ry_ <<= at(y_, kNorth) + at(y_, kSouth) +
                                         at(y_, kWest) + at(y_, kEast) -
                                         4.0 * y_);
  if (fused) {
    run_serial(fwd_plan_);
    run_serial(bwd_plan_);
  } else {
    run_unfused(fwd_plan_);
    run_unfused(bwd_plan_);
  }
  apply_statement(interior_, x_ <<= x_ + cfg_.omega * rx_);
  apply_statement(interior_, y_ <<= y_ + cfg_.omega * ry_);
}

void Tomcatv::parallel_phases_serial() {
  require(grid_.size() == 1, "uniprocessor entry point needs a 1x1 grid");
  apply_statement(interior_, rx_ <<= at(x_, kNorth) + at(x_, kSouth) +
                                         at(x_, kWest) + at(x_, kEast) -
                                         4.0 * x_);
  apply_statement(interior_, ry_ <<= at(y_, kNorth) + at(y_, kSouth) +
                                         at(y_, kWest) + at(y_, kEast) -
                                         4.0 * y_);
  apply_statement(interior_, x_ <<= x_ + cfg_.omega * rx_);
  apply_statement(interior_, y_ <<= y_ + cfg_.omega * ry_);
}

Real Tomcatv::checksum(Communicator& comm) {
  return global_sum(x_, interior_, layout_, comm) +
         global_sum(y_, interior_, layout_, comm);
}

Real Tomcatv::residual_norm(Communicator& comm) {
  const Real mx = global_max_abs(rx_, interior_, layout_, comm);
  const Real my = global_max_abs(ry_, interior_, layout_, comm);
  return mx > my ? mx : my;
}

Real tomcatv_spmd(Communicator& comm, const TomcatvConfig& cfg,
                  const ProcGrid<2>& grid, const WaveOptions& opts) {
  Tomcatv app(cfg, grid, comm.rank());
  Real norm = 0.0;
  for (int it = 0; it < cfg.iterations; ++it) norm = app.iterate(comm, opts);
  return norm;
}

}  // namespace wavepipe

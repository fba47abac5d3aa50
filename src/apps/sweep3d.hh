// SWEEP3D: a discrete-ordinates (Sn) transport sweep — the ASCI benchmark
// the paper's introduction names as the prominent wavefront computation.
//
// For each of the 8 octants the angular flux obeys the upwind recurrence
//
//   phi(i,j,k) = (src + mu*phi'@up_x + eta*phi'@up_y + xi*phi'@up_z)
//               / (sigt + mu + eta + xi)
//
// where up_* point against the octant's travel signs: a rank-3 scan block
// whose WSV is (-,-,-) (or sign-flipped), i.e. the paper's case (iii) — the
// wavefront travels along the first (distributed) dimension, the other two
// are serialized locally, and pipelining in blocks recovers parallelism.
// After each octant the scalar flux accumulates phi (a parallel statement).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "exec/driver.hh"
#include "exec/unfused.hh"
#include "sched/executor.hh"
#include "sched/tags.hh"

namespace wavepipe {

struct Sweep3dConfig {
  Coord n = 16;            // cells per dimension
  int iterations = 1;      // source iterations (each sweeps all 8 octants)
  int angles = 1;          // discrete ordinates per octant (Sn quadrature)
  Real sigt = 1.0;         // total cross-section
  StorageOrder order = StorageOrder::kColMajor;
};

/// One ordinate of the quadrature set: direction cosines and weight.
struct Ordinate {
  Real mu, eta, xi;  // positive cosines; the octant supplies the signs
  Real weight;
};

/// A deterministic level-symmetric-flavoured quadrature with `angles`
/// ordinates per octant (weights sum to 1/8 per octant).
std::vector<Ordinate> make_quadrature(int angles);

class Sweep3d {
 public:
  Sweep3d(const Sweep3dConfig& cfg, const ProcGrid<3>& grid, int rank);

  Sweep3d(const Sweep3d&) = delete;
  Sweep3d& operator=(const Sweep3d&) = delete;

  /// Isotropic source bump in the middle, vacuum boundaries (phi = 0 on
  /// the inflow faces), zero initial flux.
  /// Writes every allocated element, fluff included: the constructor
  /// builds the arrays for overwrite and calls init() once. Calling it
  /// again re-initializes.
  void init();

  /// Sweeps one (octant, angle) pair (octant 0..7; bit 0/1/2 = negative
  /// travel along x/y/z; angle indexes the quadrature).
  WaveReport<3> sweep_octant(int octant, Communicator& comm,
                             const WaveOptions& opts = {}, int angle = 0);

  /// Accumulates the current phi into the scalar flux with the ordinate's
  /// quadrature weight (parallel).
  void accumulate(Communicator& comm, int angle = 0);

  /// All 8 octants x all angles + accumulation; returns total scalar flux
  /// (collective).
  Real sweep_all(Communicator& comm, const WaveOptions& opts = {});

  /// sweep_all via the tile-task dataflow scheduler: every (octant, angle)
  /// instance is lowered into one task graph and up to `slots` instances
  /// are in flight at once over per-slot angular-flux buffers, so opposite
  /// octants fill each other's pipeline bubbles. Flux accumulation is
  /// serialized in (octant, angle) order by explicit edges, so the result
  /// (flux, phi, checksum) is bit-identical to sweep_all's. Collective.
  Real sweep_all_scheduled(Communicator& comm, const WaveOptions& opts = {},
                           const SchedOptions& sched = SchedOptions::from_env(),
                           SchedReport* report = nullptr, int slots = 4);

  /// The graph sweep_all_scheduled runs (all instances, zero/acc chains
  /// included), without running it — comm-free and deterministic for a
  /// given (cfg, grid, rank), so it doubles as the recovery
  /// ProgramFactory seam. Resets the slot angular-flux buffers.
  TaskGraph build_sweep_graph(const WaveOptions& opts = {}, int slots = 4);

  /// The comm-free tail of a scheduled sweep: mirrors the last slot's
  /// owned cells into phi_, exactly as sweep_all leaves them.
  void mirror_last_slot();

  /// Writes this rank's owned flux cells into `out`, a row-major n^3
  /// global array over [1..n]^3. Comm-free; owned blocks are disjoint
  /// across ranks — the recovery epilogue seam.
  void extract_owned_flux(std::span<Real> out) const;

  /// The tag ranges the app allocated: one wavefront_tag_span<3>() window
  /// per (octant, angle) instance plus one for accumulation. sweep_octant
  /// ignores WaveOptions::tag_base in favour of these — the stride between
  /// instances is derived from the plan (via wavefront_tag_span), not
  /// hardcoded by the caller.
  const TagAllocator& tags() const { return tags_; }

  const std::vector<Ordinate>& quadrature() const { return quadrature_; }

  Real total_flux(Communicator& comm);
  Real checksum(Communicator& comm);

  const Layout<3>& layout() const { return layout_; }
  const Region<3>& cells() const { return cells_; }
  DenseArray<Real, 3>& phi() { return phi_; }
  DenseArray<Real, 3>& flux() { return flux_; }
  Coord wave_elements() const { return cells_.size(); }

  /// Uniprocessor entry points (1x1x1 grid).
  void octant_fused(int octant) { run_serial(plan_of(octant, 0)); }
  void octant_unfused(int octant) { run_unfused(plan_of(octant, 0)); }

 private:
  WavefrontPlan<3> compile_octant(DenseArray<Real, 3>& phi, int octant,
                                  const Ordinate& ord);
  const WavefrontPlan<3>& plan_of(int octant, int angle) const {
    return plans_[static_cast<std::size_t>(octant) *
                      static_cast<std::size_t>(cfg_.angles) +
                  static_cast<std::size_t>(angle)];
  }
  const TagRange& sweep_tags(int octant, int angle) const {
    return sweep_tags_[static_cast<std::size_t>(octant) *
                           static_cast<std::size_t>(cfg_.angles) +
                       static_cast<std::size_t>(angle)];
  }
  void ensure_slots(int slots);

  Sweep3dConfig cfg_;
  ProcGrid<3> grid_;
  int rank_;
  Region<3> global_, cells_;
  Layout<3> layout_;
  DenseArray<Real, 3> phi_, flux_, src_;
  std::vector<Ordinate> quadrature_;
  std::vector<WavefrontPlan<3>> plans_;  // [octant * angles + angle]
  TagAllocator tags_{500};
  std::vector<TagRange> sweep_tags_;  // [octant * angles + angle]
  TagRange acc_tag_;
  // Scheduler state: per-slot angular-flux buffers and the plans bound to
  // them (instance i uses slot i % slots). Built on first use.
  std::vector<std::unique_ptr<DenseArray<Real, 3>>> slot_phi_;
  std::vector<WavefrontPlan<3>> slot_plans_;  // [octant * angles + angle]
};

/// SPMD driver: init + iterations full sweeps; returns total flux.
Real sweep3d_spmd(Communicator& comm, const Sweep3dConfig& cfg,
                  const ProcGrid<3>& grid, const WaveOptions& opts = {});

/// SPMD driver over the dataflow scheduler; bit-identical flux to
/// sweep3d_spmd under the same config.
Real sweep3d_spmd_scheduled(
    Communicator& comm, const Sweep3dConfig& cfg, const ProcGrid<3>& grid,
    const WaveOptions& opts = {},
    const SchedOptions& sched = SchedOptions::from_env(), int slots = 4);

}  // namespace wavepipe

// The per-rank tiling of a wavefront plan and the wave-face codec.
//
// Everything a wavefront schedule needs to agree on bit for bit lives here:
// the caller-facing WaveOptions/WaveReport, the tiling decision (which
// dimension is tiled, in which order, between which neighbours), the faces
// each tile exchanges, and the codec that packs them into one bundled
// message. sched/lower.hh turns this into tile tasks; exec/pipelined.hh
// runs those tasks. Header-only and free of any scheduler dependency, so
// both can include it.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "array/ghost.hh"
#include "exec/serial.hh"

namespace wavepipe {

struct WaveOptions {
  /// Tile size along the tile dimension; <= 0 means the whole local extent
  /// (the naive Fig 4(a) schedule).
  Coord block = 0;
  /// 2D frontiers only (a second, pipeline-role dimension is distributed):
  /// tile size along the wavefront dimension itself; <= 0 means the whole
  /// local extent (one tile row). Smaller values let the east-neighbour
  /// relay start after block_w rows instead of after the whole block.
  Coord block_w = 0;
  /// Base of the message-tag space this call uses.
  int tag_base = 500;
  /// Fill fluff with neighbours' old values first (disable only when the
  /// caller has already exchanged).
  bool pre_exchange = true;
  /// Charge one virtual-time unit of compute per element (cost-model runs).
  bool charge = true;
  /// Defer the tiles' outflow-send completions to the end of the wave,
  /// letting the send engine drain under later tiles' compute; without it
  /// each tile's sends settle before the tile completes (the blocking
  /// schedule). Results are bit-identical either way; virtual time drops
  /// when sends would stall.
  bool overlap = false;
};

template <Rank R>
struct WaveReport {
  Region<R> local_region;
  bool waved = false;   // wavefront communication actually happened
  int axes = 1;         // frontier axes (2 on a 2D processor-grid frontier)
  Rank tile_dim = 0;
  Coord tiles = 0;
  Coord block = 0;
  Coord wtiles = 1;     // 2D only: tile rows along the wavefront dimension
  Coord block_w = 0;    // 2D only: effective block along the wavefront dim
};

/// Width of the tag window one run_wavefront call may touch starting at
/// WaveOptions::tag_base: 2R tags for the bundled ghost pre-exchange (one
/// per dimension per direction, apply_distributed's convention) plus one
/// per frontier axis for the wave face messages (axis 0 = the wavefront
/// dimension's north/south faces, axis 1 = the second frontier axis's
/// west/east faces). Callers running several wavefront phases concurrently
/// must give each a tag_base at least this far apart — the scheduler's
/// TagAllocator asks for exactly this span per plan instance.
template <Rank R>
constexpr int wavefront_tag_span(int axes = 1) {
  return 2 * static_cast<int>(R) + axes;
}

/// The per-rank tiling decision for one wavefront plan: whether wave
/// communication happens at all, the w-neighbours the face messages flow
/// between, and the (dimension, sign) the tiles run over. lower_wavefront
/// turns it into tile tasks, on every rank alike, so sender and receiver
/// agree on every face without negotiation.
template <Rank R>
struct WaveTiling {
  Region<R> local;     // plan region ∩ this rank's owned block
  bool waved = false;  // wavefront communication actually happens
  Rank w = 0;
  int travel = +1;
  int pred = -1;
  int succ = -1;
  Rank tdim = 0;
  int tsign = +1;

  /// Frontier axes. 1 is the classic rank-line pipeline. 2 means a second
  /// (pipeline-role) dimension w2 is distributed too: the rank sits on a 2D
  /// processor-grid frontier, its local block decomposes into a tile grid
  /// (block_w rows along w x block columns along w2 == tdim), and each tile
  /// consumes north (axis 0, from pred) and west (axis 1, from pred2)
  /// inflow faces and emits south (to succ) and east (to succ2) outflow
  /// faces. Tile (u, v) counts rows/columns in travel order; the tiles
  /// run anti-diagonally (u + v ascending).
  int axes = 1;
  Rank w2 = 0;
  int travel2 = +1;
  int pred2 = -1;
  int succ2 = -1;
  /// Whether splitting the w axis into multiple sequentially executed tile
  /// rows is legal (every execute-before vector c has c[w]*travel >= 0);
  /// when false clamp_block_w pins one tile row.
  bool w_tilable = true;
  /// Same for the tile dimension; 1D mode guarantees it by construction
  /// (the tdim search only picks legal dims), 2D mode has no choice of
  /// tdim (faces flow along w2) and falls back to one column tile instead.
  bool t_tilable = true;

  /// Local extent along the tile dimension (1 when untiled).
  Coord extent() const { return tdim == w ? 1 : local.extent(tdim); }

  /// Local extent along the wavefront dimension (tiled only when axes==2).
  Coord wextent() const { return axes == 2 ? local.extent(w) : 1; }

  /// The effective tile-row height for a requested block_w (<= 0: whole
  /// extent — one tile row).
  Coord clamp_block_w(Coord block_w) const {
    const Coord e = std::max<Coord>(wextent(), 1);
    if (axes != 2 || !w_tilable || block_w <= 0) return e;
    return std::min<Coord>(block_w, e);
  }

  /// Number of tile rows along w under block_w.
  Coord wtiles(Coord block_w) const {
    if (axes != 2) return 1;
    const Coord b = clamp_block_w(block_w);
    return (wextent() + b - 1) / b;
  }

  /// The u-th tile row's coordinate range along w, in travel order.
  std::pair<Coord, Coord> wtile_range(Coord block_w, Coord u) const {
    const Coord b = clamp_block_w(block_w);
    if (travel > 0) {
      const Coord a = local.lo(w) + u * b;
      return {a, std::min(local.hi(w), a + b - 1)};
    }
    const Coord z = local.hi(w) - u * b;
    return {std::max(local.lo(w), z - b + 1), z};
  }

  /// The (u, v) tile of the 2D tile grid.
  Region<R> tile2(Coord block_w, Coord block, Coord u, Coord v) const {
    const auto [ra, rb] = wtile_range(block_w, u);
    return tile(block, v).with_dim(w, ra, rb);
  }

  /// The effective block size for a requested one (<= 0: whole extent).
  Coord clamp_block(Coord block) const {
    const Coord e = std::max<Coord>(extent(), 1);
    if (!t_tilable || block <= 0) return e;
    return std::min<Coord>(block, e);
  }

  /// Number of tiles under block size `block`.
  Coord tiles(Coord block) const {
    if (tdim == w) return 1;
    const Coord b = clamp_block(block);
    return (extent() + b - 1) / b;
  }

  /// The j-th tile's coordinate range along tdim, in tile order.
  std::pair<Coord, Coord> tile_range(Coord block, Coord j) const {
    if (tdim == w) return {0, 0};
    const Coord b = clamp_block(block);
    if (tsign > 0) {
      const Coord a = local.lo(tdim) + j * b;
      return {a, std::min(local.hi(tdim), a + b - 1)};
    }
    const Coord z = local.hi(tdim) - j * b;
    return {std::max(local.lo(tdim), z - b + 1), z};
  }

  /// The j-th tile region itself.
  Region<R> tile(Coord block, Coord j) const {
    if (tdim == w) return local;
    const auto [ta, tb] = tile_range(block, j);
    return local.with_dim(tdim, ta, tb);
  }
};

/// Computes the tiling decision for `rank`. Performs run_wavefront's
/// static legality checks (distributed dimensions must be parallel or the
/// wavefront; every processor along w must own part of the scan region) and
/// throws ContractError on violation.
template <Rank R>
WaveTiling<R> wave_tiling(const WavefrontPlan<R>& plan, const Layout<R>& layout,
                          int rank) {
  const ProcGrid<R>& grid = layout.grid();

  // Distributed dimensions must be parallel, the wavefront dimension, or —
  // at most one — a pipeline-role dimension, which then becomes the second
  // axis of a 2D processor-grid frontier (the paper's Fig 4 mesh). Serial
  // (±) dimensions carry dependences in both directions and can never be
  // distributed; a second pipeline dimension (a 3D frontier) is out of
  // scope.
  int w2 = -1;
  for (Rank d = 0; d < R; ++d) {
    if (!grid.distributed(d)) continue;
    const DimRole role = plan.role(d);
    if (role == DimRole::kParallel ||
        (plan.has_wavefront() && d == plan.wdim()))
      continue;
    require(role == DimRole::kPipeline && plan.has_wavefront(),
            "dimension " + std::to_string(d) +
                " is serialized by the wavefront and may not be distributed");
    require(w2 < 0,
            "at most one pipeline dimension may be distributed alongside the "
            "wavefront (only 2D processor-grid frontiers are supported)");
    w2 = d;
  }

  WaveTiling<R> t;
  t.local = plan.region.intersect(layout.owned(rank));
  t.waved = plan.has_wavefront() && !plan.wave_arrays().empty() &&
            (grid.distributed(plan.wdim()) || w2 >= 0);
  if (!t.waved) return t;

  t.w = plan.wdim();
  t.travel = plan.travel();

  // Every processor row along a frontier axis must own part of the scan
  // region: the wave relays nearest-neighbour, so a hole in the chain would
  // strand it.
  auto check_chain = [&](Rank d) {
    const BlockDist1D& bd = layout.dist(d);
    for (int k = 0; k < bd.parts(); ++k) {
      require(std::max(bd.block_lo(k), plan.region.lo(d)) <=
                  std::min(bd.block_hi(k), plan.region.hi(d)),
              "every processor along a frontier dimension must own part "
              "of the scan region (shrink the grid or the fluff)");
    }
  };
  check_chain(t.w);

  t.pred = grid.neighbor(rank, t.w, -t.travel);
  t.succ = grid.neighbor(rank, t.w, +t.travel);

  auto tiling_legal = [&](Rank d, int s) {
    for (const auto& c : plan.constraints)
      if (c.v[d] * s < 0) return false;
    return true;
  };

  if (w2 >= 0) {
    // 2D frontier: the tile dimension is forced to w2 (faces flow along
    // both frontier axes), tiles are counted in travel order, and
    // either axis whose sequential tile order would break an
    // execute-before vector falls back to a single tile along that axis.
    check_chain(static_cast<Rank>(w2));
    t.axes = 2;
    t.w2 = static_cast<Rank>(w2);
    t.travel2 = plan.wsv[t.w2] == WComp::kMinus ? +1 : -1;
    t.pred2 = grid.neighbor(rank, t.w2, -t.travel2);
    t.succ2 = grid.neighbor(rank, t.w2, +t.travel2);
    t.tdim = t.w2;
    t.tsign = t.travel2;
    t.w_tilable = tiling_legal(t.w, t.travel);
    t.t_tilable = tiling_legal(t.w2, t.travel2);
    return t;
  }

  // Tile dimension and tile order. Splitting dimension t into sequentially
  // executed tiles (sign s) is legal only when every execute-before vector
  // c has c[t]*s >= 0 — otherwise some dependence target would run in an
  // earlier tile than its source within a rank (this is what rules out
  // straight column-tiling for blocks with opposing diagonal dependences;
  // they fall back to the naive single-tile schedule). Among the legal
  // (t, s) pairs, prefer completely parallel dimensions (the paper tiles
  // the parallel dimension), then the in-tile loop direction, then larger
  // local extent.
  t.tdim = t.w;
  t.tsign = +1;
  {
    std::int64_t best_score = -1;
    for (Rank d = 0; d < R; ++d) {
      if (d == t.w) continue;
      for (const int s : {plan.loops.step[d], -plan.loops.step[d]}) {
        if (!tiling_legal(d, s)) continue;
        const std::int64_t score =
            (plan.role(d) == DimRole::kParallel ? (std::int64_t{1} << 40) : 0) +
            (s == plan.loops.step[d] ? (std::int64_t{1} << 20) : 0) +
            t.local.extent(d);
        if (score > best_score) {
          best_score = score;
          t.tdim = d;
          t.tsign = s;
        }
        break;  // the preferred direction was legal; no need for the other
      }
    }
  }
  return t;
}

namespace detail {

/// The face of `local` that flows between w-neighbours for array use `u`:
/// `inflow` selects the side facing the predecessor (receive side) versus
/// the side facing the successor (send side); the t-range restricts the
/// tile segment.
template <Rank R>
Region<R> wave_face(const Region<R>& local, const ArrayUse<R>& u, Rank w,
                    int travel, bool inflow, Rank tdim, Coord t_lo,
                    Coord t_hi) {
  Region<R> f = local;
  if (inflow) {
    f = travel > 0 ? f.with_dim(w, local.lo(w) - u.wave_depth, local.lo(w) - 1)
                   : f.with_dim(w, local.hi(w) + 1, local.hi(w) + u.wave_depth);
  } else {
    f = travel > 0 ? f.with_dim(w, local.hi(w) - u.wave_depth + 1, local.hi(w))
                   : f.with_dim(w, local.lo(w), local.lo(w) + u.wave_depth - 1);
  }
  if (tdim != w) f = f.with_dim(tdim, t_lo, t_hi);
  return f;
}

/// A 2D-frontier face of `local` along frontier axis `fd` (travel `tv`,
/// face depth `depth` — the array's primed halo along fd; an empty region
/// when 0): the slab just outside (inflow) or just inside (outflow) the
/// local block, restricted to [oa..ob] along the other frontier axis `od`
/// (travel `otv`) and *extended* by `ext` toward the predecessor along od,
/// clamped to the scan region [olo..ohi]. The extension is the corner
/// relay: a west face carries the already-relayed rows above the tile that
/// the receiver's diagonal (north-west) primed reads need — the sender has
/// them coherent because its own north inflow is unpacked before any east
/// face is packed, and rows outside the scan region are never written, so
/// the clamp drops exactly the rows the pre-exchange already made
/// coherent.
template <Rank R>
Region<R> wave_face2(const Region<R>& local, Coord depth, Rank fd, int tv,
                     bool inflow, Rank od, int otv, Coord oa, Coord ob,
                     Coord ext, Coord olo, Coord ohi) {
  Region<R> f = local;
  if (inflow) {
    f = tv > 0 ? f.with_dim(fd, local.lo(fd) - depth, local.lo(fd) - 1)
               : f.with_dim(fd, local.hi(fd) + 1, local.hi(fd) + depth);
  } else {
    f = tv > 0 ? f.with_dim(fd, local.hi(fd) - depth + 1, local.hi(fd))
               : f.with_dim(fd, local.lo(fd), local.lo(fd) + depth - 1);
  }
  f = otv > 0 ? f.with_dim(od, std::max(oa - ext, olo), ob)
              : f.with_dim(od, oa, std::min(ob + ext, ohi));
  return f;
}

/// The bundled 2D-frontier faces for all wave arrays of `plan`, for the
/// tile row/column range along the *other* axis. `axis` 0 is the wavefront
/// dimension (north/south faces), 1 the second frontier axis (west/east
/// faces, carrying the corner extension along w).
template <Rank R>
std::vector<Region<R>> wave_faces_2d(const WavefrontPlan<R>& plan,
                                     const WaveTiling<R>& t, int axis,
                                     bool inflow, Coord oa, Coord ob) {
  std::vector<Region<R>> fs;
  const auto uses = plan.wave_arrays();
  fs.reserve(uses.size());
  for (const auto& u : uses) {
    if (axis == 0) {
      fs.push_back(wave_face2(t.local, u.prime_halo.v[t.w], t.w, t.travel,
                              inflow, t.w2, t.travel2, oa, ob, /*ext=*/0,
                              plan.region.lo(t.w2), plan.region.hi(t.w2)));
    } else {
      fs.push_back(wave_face2(t.local, u.prime_halo.v[t.w2], t.w2, t.travel2,
                              inflow, t.w, t.travel, oa, ob,
                              /*ext=*/u.prime_halo.v[t.w],
                              plan.region.lo(t.w), plan.region.hi(t.w)));
    }
  }
  return fs;
}

/// The bundled 1D-frontier faces for tile `j` (tile size `block` along the
/// tile dimension): one face per wave array in `uses` (the plan's
/// wave_arrays(), in order).
template <Rank R>
std::vector<Region<R>> wave_faces_1d(const std::vector<ArrayUse<R>>& uses,
                                     const WaveTiling<R>& t, Coord block,
                                     Coord j, bool inflow) {
  std::vector<Region<R>> fs;
  const auto [ta, tb] = t.tile_range(block, j);
  fs.reserve(uses.size());
  for (const auto& u : uses)
    fs.push_back(wave_face(t.local, u, t.w, t.travel, inflow, t.tdim, ta, tb));
  return fs;
}

// ---- the face codec ----
//
// One bundled wave message carries the faces `fs` of the wave arrays
// `uses` (fs[i] belongs to uses[i]), each in canonical order, back to back;
// empty faces contribute nothing. Sender and receiver compute the same face
// list from the plan, so the layout never needs negotiation. Every tile
// task lower_wavefront emits (1D and 2D) goes through these three
// functions.

/// Element count of the bundled message for `fs`.
template <Rank R>
std::size_t faces_size(const std::vector<Region<R>>& fs) {
  std::size_t n = 0;
  for (const auto& f : fs) n += static_cast<std::size_t>(f.size());
  return n;
}

/// Packs the outflow faces `fs` into `buf` (cleared first).
template <Rank R>
void pack_faces(const std::vector<ArrayUse<R>>& uses,
                const std::vector<Region<R>>& fs, std::vector<Real>& buf) {
  buf.clear();
  for (std::size_t ui = 0; ui < fs.size(); ++ui) {
    if (fs[ui].size() == 0) continue;
    require(uses[ui].array->region().contains(fs[ui]),
            "array '" + uses[ui].name() +
                "' allocates too little fluff for the wave outflow face");
    pack_region_into(*uses[ui].array, fs[ui], buf);
  }
}

/// Unpacks a bundled inflow `payload` into the faces `fs`.
template <Rank R>
void unpack_faces(const std::vector<ArrayUse<R>>& uses,
                  const std::vector<Region<R>>& fs,
                  std::span<const Real> payload) {
  std::size_t off = 0;
  for (std::size_t ui = 0; ui < fs.size(); ++ui) {
    const std::size_t n = static_cast<std::size_t>(fs[ui].size());
    if (n == 0) continue;
    require(uses[ui].array->region().contains(fs[ui]),
            "array '" + uses[ui].name() +
                "' allocates too little fluff for the wave inflow face");
    unpack_region(*uses[ui].array, fs[ui], payload.subspan(off, n));
    off += n;
  }
}

}  // namespace detail

}  // namespace wavepipe

// Lowering a compiled WavefrontPlan into tile tasks.
//
// lower_wavefront() appends to a TaskGraph the plan's tile decomposition
// for one rank (WaveTiling, faces and bundled face payloads from
// exec/wave_tiling.hh). Tile (u, v) — u the tile row along the wavefront
// dimension (always 0 on a 1D frontier), v the tile along the tile
// dimension — receives its inflow faces, unpacks them, computes the tile,
// and sends its outflow faces. Task ids run anti-diagonally (u + v
// ascending, then u), so the kStatic executor, which follows task ids,
// walks the tiles in the paper's pipelined order; run_wavefront is exactly
// this lowering run that way. The edges (u-1, v) -> (u, v) and
// (u, v-1) -> (u, v) encode both the paper's tiling legality order and the
// per-(src, tag) FIFO discipline — with them in place any interleaving of
// several lowered instances keeps every wave's messages matched to the
// right tiles.
//
// What lowering deliberately does NOT do:
//   * no ghost pre-exchange (run_wavefront's pre_exchange): programs that
//     need old-value halos model them as their own tasks, with edges
//     expressing their real ordering constraints;
//   * no inter-instance edges: flux accumulation order, buffer reuse
//     (WAR) and similar cross-plan constraints are the caller's knowledge
//     and are declared with TaskGraph::add_edge.
//
// Lifetime: the emitted task bodies capture `plan` by reference — it must
// outlive run_graph().
#pragma once

#include <string>
#include <vector>

#include "exec/wave_tiling.hh"
#include "sched/graph.hh"
#include "sched/tags.hh"

namespace wavepipe {

template <Rank R>
struct LoweredWave {
  /// The instance's tile tasks, indexed row-major (u * tiles + v on a 2D
  /// frontier, j on a 1D one); size() == wtiles * tiles when waved, 1
  /// otherwise.
  std::vector<TaskId> tiles;
  WaveTiling<R> tiling;
  /// The tiling actually used (effective blocks, tile counts), as
  /// run_wavefront reports it.
  WaveReport<R> report;
};

struct LowerOptions {
  /// Requested tile size along the tile dimension; <= 0 means the whole
  /// local extent (one tile).
  Coord block = 0;
  /// 2D frontiers: requested tile-row height along the wavefront
  /// dimension; <= 0 means the whole local extent (one tile row).
  Coord block_w = 0;
  /// Charge one virtual-time unit of compute per element.
  bool charge = true;
  /// Settle each tile's outflow sends before its task completes — the
  /// blocking schedule run_wavefront uses without WaveOptions::overlap.
  /// Otherwise they drain when the graph does.
  bool settle_sends = false;
  /// Added to the tile's anti-diagonal u + v (j on a 1D frontier) to form
  /// each task's wavefront-diagonal key, so several instances lowered into
  /// one graph interleave by global fill level under the diagonal policy.
  std::int64_t base_diagonal = 0;
};

/// Lowers one plan instance for `rank` into `g`. `tags` must span at least
/// wavefront_tag_span<R>(tiling.axes) tags and belong to this instance
/// alone; the wave messages use base + 2R for the wavefront axis and
/// base + 2R + 1 for the second frontier axis, the offsets run_wavefront's
/// tag window reserves for them. Tasks are labelled "<label>[j]" (1D),
/// "<label>[u,v]" (2D frontier) or "<label>" (no wave communication).
template <Rank R>
LoweredWave<R> lower_wavefront(TaskGraph& g, const WavefrontPlan<R>& plan,
                               const Layout<R>& layout, int rank,
                               const TagRange& tags, const std::string& label,
                               const LowerOptions& opts = {}) {
  LoweredWave<R> lw;
  lw.tiling = wave_tiling(plan, layout, rank);
  const WaveTiling<R>& t = lw.tiling;
  WaveReport<R>& rep = lw.report;
  rep.local_region = t.local;

  // Without wave communication the tiling has no neighbours and one tile,
  // the whole local block.
  const Coord bw = t.clamp_block_w(opts.block_w);
  const Coord bj = t.clamp_block(opts.block);
  const Coord mi = t.wtiles(opts.block_w);
  const Coord mj = t.tiles(opts.block);
  if (t.waved) {
    require(tags.count >= wavefront_tag_span<R>(t.axes),
            "tag range too narrow for a wavefront instance (need "
            "wavefront_tag_span tags)");
    rep.waved = true;
    rep.axes = t.axes;
    rep.tile_dim = t.tdim;
    rep.tiles = mj;
    rep.block = bj;
    if (t.axes == 2) {
      rep.wtiles = mi;
      rep.block_w = bw;
    }
  }
  const int tag_n = tags.base + 2 * static_cast<int>(R);  // axis 0
  const int tag_w = tag_n + 1;                            // axis 1

  const auto wave_uses = plan.wave_arrays();
  // The bundled faces tile (u, v) exchanges along frontier axis `axis`:
  // axis 0 faces span a column tile's range along the tile dimension,
  // axis 1 faces a row tile's range along w (with the corner extension
  // wave_faces_2d adds).
  auto faces = [&](int axis, Coord u, Coord v, bool inflow) {
    if (t.axes == 1) return detail::wave_faces_1d(wave_uses, t, bj, v, inflow);
    const auto [a, b] = axis == 0 ? t.tile_range(bj, v) : t.wtile_range(bw, u);
    return detail::wave_faces_2d(plan, t, axis, inflow, a, b);
  };
  struct Outflow {
    int dst;
    int tag;
    std::vector<Region<R>> faces;
  };

  lw.tiles.assign(static_cast<std::size_t>(mi * mj), kNoTask);
  for (Coord d = 0; d < mi + mj - 1; ++d) {
    for (Coord u = std::max<Coord>(0, d - (mj - 1)); u <= std::min(mi - 1, d);
         ++u) {
      const Coord v = d - u;
      TaskGraph::Task task;
      task.label = !t.waved      ? label
                   : t.axes == 2 ? label + "[" + std::to_string(u) + "," +
                                       std::to_string(v) + "]"
                                 : label + "[" + std::to_string(v) + "]";
      const Region<R> tile =
          t.axes == 2 ? t.tile2(bw, bj, u, v) : t.tile(bj, v);
      task.cost = static_cast<double>(tile.size());
      task.diagonal = opts.base_diagonal + d;

      // North then west: the declaration order is the body's unpack order.
      std::vector<std::vector<Region<R>>> in;
      auto inflow = [&](int src, int tag, int axis) {
        in.push_back(faces(axis, u, v, /*inflow=*/true));
        task.inflows.push_back({src, tag, detail::faces_size(in.back())});
      };
      if (u == 0 && t.pred >= 0) inflow(t.pred, tag_n, 0);
      if (v == 0 && t.pred2 >= 0) inflow(t.pred2, tag_w, 1);
      std::vector<Outflow> out;
      if (u == mi - 1 && t.succ >= 0)
        out.push_back({t.succ, tag_n, faces(0, u, v, /*inflow=*/false)});
      if (v == mj - 1 && t.succ2 >= 0)
        out.push_back({t.succ2, tag_w, faces(1, u, v, /*inflow=*/false)});

      task.run = [&plan, wave_uses, in = std::move(in), out = std::move(out),
                  tile, charge = opts.charge,
                  settle = opts.settle_sends](TaskContext& ctx) {
        for (std::size_t k = 0; k < in.size(); ++k)
          detail::unpack_faces(wave_uses, in[k], ctx.inflows[k]);
        run_serial_on(plan, tile);
        if (charge) ctx.comm.compute(static_cast<double>(tile.size()));
        for (const Outflow& o : out) {
          std::vector<Real> buf;
          detail::pack_faces(wave_uses, o.faces, buf);
          ctx.send(o.dst, std::span<const Real>(buf), o.tag, settle);
        }
      };

      const TaskId id = g.add(std::move(task));
      const auto at = [mj](Coord uu, Coord vv) {
        return static_cast<std::size_t>(uu * mj + vv);
      };
      if (u > 0) g.add_edge(lw.tiles[at(u - 1, v)], id);
      if (v > 0) g.add_edge(lw.tiles[at(u, v - 1)], id);
      lw.tiles[at(u, v)] = id;
    }
  }
  return lw;
}

}  // namespace wavepipe

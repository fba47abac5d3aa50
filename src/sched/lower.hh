// Lowering a compiled WavefrontPlan into tile tasks.
//
// lower_wavefront() appends to a TaskGraph exactly the tile decomposition
// run_wavefront would execute (same WaveTiling, same faces, same bundled
// face payloads), as a chain of tasks: tile j consumes the predecessor
// rank's face message, unpacks it, computes the tile, and sends its own
// outflow face to the successor. The intra-instance edges j-1 -> j encode
// both the paper's tiling legality order and the per-(src, tag) FIFO
// discipline — with them in place any interleaving of several lowered
// instances keeps every wave's messages matched to the right tiles.
//
// What lowering deliberately does NOT do:
//   * no ghost pre-exchange (run_wavefront's pre_exchange): programs that
//     need old-value halos model them as their own tasks, with edges
//     expressing their real ordering constraints;
//   * no inter-instance edges: flux accumulation order, buffer reuse
//     (WAR) and similar cross-plan constraints are the caller's knowledge
//     and are declared with TaskGraph::add_edge.
//
// Lifetime: the emitted task bodies capture `plan` and `layout` by
// reference — both must outlive run_graph().
#pragma once

#include <string>
#include <vector>

#include "array/ghost.hh"
#include "exec/pipelined.hh"
#include "exec/serial.hh"
#include "sched/graph.hh"
#include "sched/tags.hh"

namespace wavepipe {

template <Rank R>
struct LoweredWave {
  /// The instance's tile tasks in tile order (row-major u*tiles+v on a 2D
  /// frontier); size() == wtiles * tiles(block) when waved, 1 otherwise.
  std::vector<TaskId> tiles;
  WaveTiling<R> tiling;
  /// The effective (clamped) block size along the tile dimension.
  Coord block = 0;
  /// 2D frontiers: tile rows along w and the effective block_w (1 and 0
  /// otherwise).
  Coord wtiles = 1;
  Coord block_w = 0;
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
  /// Added to the tile index (u+v on a 2D frontier — the tile grid's
  /// anti-diagonal) to form each task's wavefront-diagonal key, so several
  /// instances lowered into one graph interleave by global fill level
  /// under the diagonal policy.
  std::int64_t base_diagonal = 0;
};

/// Lowers one plan instance for `rank` into `g`. `tags` must span at least
/// wavefront_tag_span<R>(tiling.axes) tags and belong to this instance
/// alone; the wave messages use the same in-window offsets (base + 2R for
/// the wavefront axis, base + 2R + 1 for the second frontier axis) as
/// run_wavefront, so a scheduled rank can interoperate with a rank running
/// run_wavefront on the same tag base. Tasks are labelled "<label>[j]" (1D)
/// or "<label>[u,v]" (2D frontier, row-major tile grid).
template <Rank R>
LoweredWave<R> lower_wavefront(TaskGraph& g, const WavefrontPlan<R>& plan,
                               const Layout<R>& layout, int rank,
                               const TagRange& tags, const std::string& label,
                               const LowerOptions& opts = {}) {
  LoweredWave<R> lw;
  lw.tiling = wave_tiling(plan, layout, rank);
  const WaveTiling<R>& t = lw.tiling;

  if (!t.waved) {
    lw.block = t.clamp_block(opts.block);
    TaskGraph::Task task;
    task.label = label;
    task.cost = static_cast<double>(t.local.size());
    task.diagonal = opts.base_diagonal;
    const Region<R> local = t.local;
    const bool charge = opts.charge;
    task.run = [&plan, local, charge](TaskContext& ctx) {
      run_serial_on(plan, local);
      if (charge) ctx.comm.compute(static_cast<double>(local.size()));
    };
    lw.tiles.push_back(g.add(std::move(task)));
    return lw;
  }

  require(tags.count >= wavefront_tag_span<R>(t.axes),
          "tag range too narrow for a wavefront instance (need "
          "wavefront_tag_span tags)");
  if (t.axes == 2) {
    const Coord bw = t.clamp_block_w(opts.block_w);
    const Coord bj = t.clamp_block(opts.block);
    const Coord mi = t.wtiles(opts.block_w);
    const Coord mj = t.tiles(opts.block);
    lw.block = bj;
    lw.wtiles = mi;
    lw.block_w = bw;
    const int tag_n = tags.base + 2 * static_cast<int>(R);  // axis 0
    const int tag_w = tag_n + 1;                            // axis 1

    const auto wave_uses = plan.wave_arrays();
    // Same payload layout as run_wavefront_2d: axis 0 faces span a column
    // tile's range along w2, axis 1 faces a row tile's range along w (with
    // the corner extension wave_faces_2d adds).
    auto faces2 = [](const WavefrontPlan<R>& p, const WaveTiling<R>& wt,
                     Coord block_w, Coord block, Coord u, Coord v, int axis,
                     bool inflow) {
      if (axis == 0) {
        const auto [ca, cb] = wt.tile_range(block, v);
        return detail::wave_faces_2d(p, wt, 0, inflow, ca, cb);
      }
      const auto [ra, rb] = wt.wtile_range(block_w, u);
      return detail::wave_faces_2d(p, wt, 1, inflow, ra, rb);
    };

    for (Coord u = 0; u < mi; ++u) {
      for (Coord v = 0; v < mj; ++v) {
        TaskGraph::Task task;
        task.label = label + "[" + std::to_string(u) + "," +
                     std::to_string(v) + "]";
        const Region<R> tile = t.tile2(bw, bj, u, v);
        task.cost = static_cast<double>(tile.size());
        task.diagonal = opts.base_diagonal + u + v;

        // Declaration order north-then-west is the body's unpack order.
        if (u == 0 && t.pred >= 0)
          task.inflows.push_back(
              {t.pred, tag_n,
               detail::faces_size(faces2(plan, t, bw, bj, u, v, 0,
                                         /*inflow=*/true))});
        if (v == 0 && t.pred2 >= 0)
          task.inflows.push_back(
              {t.pred2, tag_w,
               detail::faces_size(faces2(plan, t, bw, bj, u, v, 1,
                                         /*inflow=*/true))});

        const bool charge = opts.charge;
        task.run = [&plan, tiling = t, wave_uses, faces2, bw, bj, mi, mj, u,
                    v, tile, charge, tag_n, tag_w](TaskContext& ctx) {
          std::size_t pi = 0;
          if (u == 0 && tiling.pred >= 0)
            detail::unpack_faces(wave_uses,
                                 faces2(plan, tiling, bw, bj, u, v, 0, true),
                                 ctx.inflows[pi++]);
          if (v == 0 && tiling.pred2 >= 0)
            detail::unpack_faces(wave_uses,
                                 faces2(plan, tiling, bw, bj, u, v, 1, true),
                                 ctx.inflows[pi++]);
          run_serial_on(plan, tile);
          if (charge) ctx.comm.compute(static_cast<double>(tile.size()));
          if (u == mi - 1 && tiling.succ >= 0) {
            std::vector<Real> buf;
            detail::pack_faces(wave_uses,
                               faces2(plan, tiling, bw, bj, u, v, 0, false),
                               buf);
            ctx.send(tiling.succ, std::span<const Real>(buf), tag_n);
          }
          if (v == mj - 1 && tiling.succ2 >= 0) {
            std::vector<Real> buf;
            detail::pack_faces(wave_uses,
                               faces2(plan, tiling, bw, bj, u, v, 1, false),
                               buf);
            ctx.send(tiling.succ2, std::span<const Real>(buf), tag_w);
          }
        };

        const TaskId id = g.add(std::move(task));
        // Row-major chain edges encode both the tiling legality order and
        // the per-(src, tag) FIFO posting order for the two inflow streams.
        if (v > 0) g.add_edge(lw.tiles.back(), id);
        if (u > 0)
          g.add_edge(lw.tiles[static_cast<std::size_t>((u - 1) * mj + v)], id);
        lw.tiles.push_back(id);
      }
    }
    return lw;
  }

  const int wave_tag = tags.base + 2 * static_cast<int>(R);
  const Coord b = t.clamp_block(opts.block);
  const Coord m = t.tiles(opts.block);
  lw.block = b;

  const auto wave_uses = plan.wave_arrays();

  for (Coord j = 0; j < m; ++j) {
    TaskGraph::Task task;
    task.label = label + "[" + std::to_string(j) + "]";
    const Region<R> tile = t.tile(b, j);
    task.cost = static_cast<double>(tile.size());
    task.diagonal = opts.base_diagonal + j;

    if (t.pred >= 0)
      task.inflows.push_back(
          {t.pred, wave_tag,
           detail::faces_size(
               detail::wave_faces_1d(wave_uses, t, b, j, /*inflow=*/true))});

    const bool charge = opts.charge;
    const int succ = t.succ;
    // Captures the tiling by value (not `t`, a reference into the eventual
    // return value): task bodies run long after lower_wavefront returns.
    task.run = [&plan, tiling = t, wave_uses, b, j, tile, charge, succ,
                wave_tag](TaskContext& ctx) {
      if (tiling.pred >= 0)
        detail::unpack_faces(
            wave_uses,
            detail::wave_faces_1d(wave_uses, tiling, b, j, /*inflow=*/true),
            ctx.inflow);
      run_serial_on(plan, tile);
      if (charge) ctx.comm.compute(static_cast<double>(tile.size()));
      if (succ >= 0) {
        std::vector<Real> buf;
        detail::pack_faces(
            wave_uses,
            detail::wave_faces_1d(wave_uses, tiling, b, j, /*inflow=*/false),
            buf);
        ctx.send(succ, std::span<const Real>(buf), wave_tag);
      }
    };

    const TaskId id = g.add(std::move(task));
    if (j > 0) g.add_edge(lw.tiles.back(), id);
    lw.tiles.push_back(id);
  }
  return lw;
}

}  // namespace wavepipe

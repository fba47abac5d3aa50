#include "apps/alt_sweep.hh"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "sched/sched.hh"

namespace wavepipe {

AltSweep::AltSweep(const AltSweepConfig& cfg, const ProcGrid<2>& grid,
                   int rank)
    : cfg_(cfg),
      grid_(grid),
      rank_(rank),
      global_({{0, 0}}, {{cfg.n - 1, cfg.n - 1}}),
      interior_({{1, 1}}, {{cfg.n - 2, cfg.n - 2}}),
      layout_(global_, grid, Idx<2>{{1, 1}}),
      u_("u", layout_, rank, cfg.order, kForOverwrite),
      f_("f", layout_, rank, cfg.order, kForOverwrite),
      g_("g", layout_, rank, cfg.order, kForOverwrite),
      res_("res", layout_, rank, cfg.order, kForOverwrite),
      tlayout_(transposed_layout(layout_)),
      tinterior_(transposed_region(interior_)),
      ut_("ut", tlayout_, rank, cfg.order, kForOverwrite),
      ft_("ft", tlayout_, rank, cfg.order, kForOverwrite),
      gt_("gt", tlayout_, rank, cfg.order, kForOverwrite),
      vplan_(scan(interior_,
                  u_.local() <<= (1.0 - cfg.omega) * u_.local() +
                                 (cfg.omega * 0.25) *
                                     (prime(u_.local(), kNorth) +
                                      at(u_.local(), kSouth) + g_.local()))
                 .compile()),
      hplan_(scan(interior_,
                  u_.local() <<= (1.0 - cfg.omega) * u_.local() +
                                 (cfg.omega * 0.25) *
                                     (prime(u_.local(), kWest) +
                                      at(u_.local(), kEast) + g_.local()))
                 .compile()),
      // The vertical sweep mapped into the transposed world: (i, j) ->
      // (j, i) turns north into west and south into east. Operand order
      // mirrors vplan_ exactly so both strategies are bit-identical.
      vtplan_(scan(tinterior_,
                   ut_.local() <<= (1.0 - cfg.omega) * ut_.local() +
                                   (cfg.omega * 0.25) *
                                       (prime(ut_.local(), kWest) +
                                        at(ut_.local(), kEast) + gt_.local()))
                  .compile()) {
  require(cfg.n >= 4, "AltSweep needs n >= 4");
  init();
}

void AltSweep::init() {
  const Real h = 1.0 / static_cast<Real>(cfg_.n - 1);
  const Real pi = 3.14159265358979323846;
  auto u0 = [&](Coord i0, Coord i1) {
    const bool bdry = i0 <= 0 || i0 >= cfg_.n - 1 || i1 <= 0 ||
                      i1 >= cfg_.n - 1;
    return bdry ? static_cast<Real>(i0) * h + static_cast<Real>(i1) * h : 0.0;
  };
  auto f0 = [&](Coord i0, Coord i1) {
    const Real xx = static_cast<Real>(i0) * h;
    const Real yy = static_cast<Real>(i1) * h;
    return h * h * 5.0 * pi * pi * std::sin(pi * xx) * std::sin(2.0 * pi * yy);
  };
  u_.local().fill_fn([&](const Idx<2>& i) { return u0(i.v[0], i.v[1]); });
  f_.local().fill_fn([&](const Idx<2>& i) { return f0(i.v[0], i.v[1]); });
  g_.local().fill(0.0);
  res_.local().fill(0.0);
  // Transposed twins: coordinates swapped. f is constant, so its transpose
  // is filled once here, locally; u's transpose flows at runtime.
  ut_.local().fill_fn([&](const Idx<2>& i) { return u0(i.v[1], i.v[0]); });
  ft_.local().fill_fn([&](const Idx<2>& i) { return f0(i.v[1], i.v[0]); });
  gt_.local().fill(0.0);
}

void AltSweep::vertical_pipelined(Communicator& comm,
                                  const WaveOptions& opts) {
  apply_distributed(interior_,
                    g_.local() <<= at(u_.local(), kWest) +
                                       at(u_.local(), kEast) + f_.local(),
                    layout_, comm, /*tag_base=*/640);
  run_wavefront(vplan_, layout_, comm, opts);
}

void AltSweep::vertical_by_transpose(Communicator& comm) {
  transpose(u_, ut_, comm, 700);
  apply_distributed(tinterior_,
                    gt_.local() <<= at(ut_.local(), kNorth) +
                                        at(ut_.local(), kSouth) + ft_.local(),
                    tlayout_, comm, /*tag_base=*/660);
  WaveOptions opts;  // wave dim is local after the transpose: no pipeline
  opts.tag_base = 540;
  run_wavefront(vtplan_, tlayout_, comm, opts);
  transpose(ut_, u_, comm, 710);
}

void AltSweep::horizontal_local(Communicator& comm) {
  apply_distributed(interior_,
                    g_.local() <<= at(u_.local(), kNorth) +
                                       at(u_.local(), kSouth) + f_.local(),
                    layout_, comm, /*tag_base=*/680);
  WaveOptions opts;
  opts.tag_base = 580;
  run_wavefront(hplan_, layout_, comm, opts);
}

void AltSweep::iterate(Communicator& comm, VerticalStrategy strategy,
                       const WaveOptions& opts) {
  if (strategy == VerticalStrategy::kScheduled) {
    iterate_scheduled(comm, 1, opts);
    return;
  }
  if (strategy == VerticalStrategy::kPipelined)
    vertical_pipelined(comm, opts);
  else
    vertical_by_transpose(comm);
  horizontal_local(comm);
}

SchedReport AltSweep::iterate_scheduled(Communicator& comm, int iterations,
                                        const WaveOptions& opts,
                                        const SchedOptions& sched) {
  require(iterations >= 1, "iterate_scheduled needs >= 1 iterations");

  // Column chunks. The N-S wave tiles along dim 1 (lower_wavefront reuses
  // wave_tiling, so its tiles ARE these chunks); the gather statements and
  // the W-E sweep are cut along the same boundaries so per-chunk edges can
  // say precisely which part of u each task reads or overwrites.
  const Region<2> local = interior_.intersect(layout_.owned(rank_));
  const WaveTiling<2> vt = wave_tiling(vplan_, layout_, rank_);
  if (vt.waved)
    internal_check(vt.tdim == 1 && vt.tsign > 0,
                   "alt_sweep chunking assumes west-to-east vertical tiles");
  const Coord ext = local.extent(1);
  const Coord b = opts.block <= 0 ? ext : std::min(opts.block, ext);
  const Coord nc = (ext + b - 1) / b;
  auto chunk = [&](Coord c) {
    const Coord a = local.lo(1) + c * b;
    return std::pair<Coord, Coord>{a, std::min(local.hi(1), a + b - 1)};
  };
  const int pred = vt.waved ? vt.pred : -1;
  const int succ = vt.waved ? vt.succ : -1;
  const Region<2> owned = layout_.owned(rank_);
  const Coord top_row = owned.lo(0);      // what pred's south fluff mirrors
  const Coord ghost_row = owned.hi(0) + 1;  // this rank's south fluff row

  // The sequential iteration exchanges whole ghost rows at two points: old
  // u before the N-S wave (for the unprimed south read) and new u before
  // g2. Both exchanges' north-bound halves become per-chunk message tasks
  // (SendPre/RxPre and UpG/RxG2); the south-bound halves are not needed —
  // the wave inflow itself deposits pred's freshest row into the north
  // fluff, and nothing reads the north fluff before that deposit.
  TaskGraph g;
  std::vector<TaskId> prev_h, prev_g2;  // previous iteration, per chunk
  for (int it = 0; it < iterations; ++it) {
    const std::string is = std::to_string(it);
    const std::int64_t itbase = static_cast<std::int64_t>(it) * 4 * nc;
    const TagRange vtag =
        tags_.alloc(wavefront_tag_span<2>(), "alt v-wave it " + is);
    const TagRange pretag =
        tags_.alloc(static_cast<int>(nc), "alt pre-exchange it " + is);
    const TagRange uptag =
        tags_.alloc(static_cast<int>(nc), "alt g2 ghost it " + is);

    std::vector<TaskId> g1v(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> sprev(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> rprev(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> upgv(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> rg2v(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> g2v(static_cast<std::size_t>(nc), kNoTask);
    std::vector<TaskId> hv(static_cast<std::size_t>(nc), kNoTask);

    for (Coord c = 0; c < nc; ++c) {
      const auto [ca, cb] = chunk(c);
      const Region<2> reg = local.with_dim(1, ca, cb);
      const std::string cs = "[i" + is + ",c" + std::to_string(c) + "]";

      TaskGraph::Task t1;
      t1.label = "g1" + cs;
      t1.cost = static_cast<double>(reg.size());
      t1.diagonal = itbase + c;
      t1.run = [this, reg](TaskContext& ctx) {
        apply_statement(reg, g_.local() <<= at(u_.local(), kWest) +
                                               at(u_.local(), kEast) +
                                               f_.local());
        ctx.comm.compute(static_cast<double>(reg.size()));
      };
      g1v[static_cast<std::size_t>(c)] = g.add(std::move(t1));

      if (pred >= 0) {
        TaskGraph::Task t;
        t.label = "preX" + cs;
        t.diagonal = itbase + c;
        t.run = [this, top_row, ca = ca, cb = cb,
                 tag = pretag.base + static_cast<int>(c),
                 pred](TaskContext& ctx) {
          std::vector<Real> buf;
          pack_region_into(u_.local(),
                           Region<2>({{top_row, ca}}, {{top_row, cb}}), buf);
          ctx.send(pred, std::span<const Real>(buf), tag);
        };
        sprev[static_cast<std::size_t>(c)] = g.add(std::move(t));
      }
      if (succ >= 0) {
        TaskGraph::Task t;
        t.label = "rxPre" + cs;
        t.diagonal = itbase + c;
        t.inflows.push_back({succ, pretag.base + static_cast<int>(c),
                             static_cast<std::size_t>(cb - ca + 1)});
        const Region<2> face({{ghost_row, ca}}, {{ghost_row, cb}});
        t.run = [this, face](TaskContext& ctx) {
          unpack_region(u_.local(), face, ctx.inflow);
        };
        rprev[static_cast<std::size_t>(c)] = g.add(std::move(t));
      }
    }

    LowerOptions lo;
    lo.block = b;
    lo.charge = opts.charge;
    lo.base_diagonal = itbase + nc;
    const auto lw =
        lower_wavefront(g, vplan_, layout_, rank_, vtag, "v[i" + is + "]", lo);
    internal_check(
        lw.tiles.size() == static_cast<std::size_t>(vt.waved ? nc : 1),
        "alt_sweep chunking disagrees with the lowered wave tiling");
    auto vtask = [&](Coord c) {
      return vt.waved ? lw.tiles[static_cast<std::size_t>(c)] : lw.tiles[0];
    };

    for (Coord c = 0; c < nc; ++c) {
      const auto [ca, cb] = chunk(c);
      const Region<2> reg = local.with_dim(1, ca, cb);
      const std::string cs = "[i" + is + ",c" + std::to_string(c) + "]";

      if (pred >= 0) {
        TaskGraph::Task t;
        t.label = "upG" + cs;
        t.diagonal = itbase + 2 * nc + c;
        t.run = [this, top_row, ca = ca, cb = cb,
                 tag = uptag.base + static_cast<int>(c),
                 pred](TaskContext& ctx) {
          std::vector<Real> buf;
          pack_region_into(u_.local(),
                           Region<2>({{top_row, ca}}, {{top_row, cb}}), buf);
          ctx.send(pred, std::span<const Real>(buf), tag);
        };
        upgv[static_cast<std::size_t>(c)] = g.add(std::move(t));
      }
      if (succ >= 0) {
        TaskGraph::Task t;
        t.label = "rxG2" + cs;
        t.diagonal = itbase + 2 * nc + c;
        t.inflows.push_back({succ, uptag.base + static_cast<int>(c),
                             static_cast<std::size_t>(cb - ca + 1)});
        const Region<2> face({{ghost_row, ca}}, {{ghost_row, cb}});
        t.run = [this, face](TaskContext& ctx) {
          unpack_region(u_.local(), face, ctx.inflow);
        };
        rg2v[static_cast<std::size_t>(c)] = g.add(std::move(t));
      }

      TaskGraph::Task t2;
      t2.label = "g2" + cs;
      t2.cost = static_cast<double>(reg.size());
      t2.diagonal = itbase + 2 * nc + c;
      t2.run = [this, reg](TaskContext& ctx) {
        apply_statement(reg, g_.local() <<= at(u_.local(), kNorth) +
                                               at(u_.local(), kSouth) +
                                               f_.local());
        ctx.comm.compute(static_cast<double>(reg.size()));
      };
      g2v[static_cast<std::size_t>(c)] = g.add(std::move(t2));

      TaskGraph::Task th;
      th.label = "h" + cs;
      th.cost = static_cast<double>(reg.size());
      th.diagonal = itbase + 3 * nc + c;
      th.run = [this, reg](TaskContext& ctx) {
        run_serial_on(hplan_, reg);
        ctx.comm.compute(static_cast<double>(reg.size()));
      };
      hv[static_cast<std::size_t>(c)] = g.add(std::move(th));
    }

    for (Coord c = 0; c < nc; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      // g1 reads u columns c-1..c+1 (post previous H) and rewrites g.
      if (it > 0)
        for (Coord dc = -1; dc <= 1; ++dc)
          if (c + dc >= 0 && c + dc < nc)
            g.add_edge(prev_h[static_cast<std::size_t>(c + dc)], g1v[sc]);
      // The wave reads g and rewrites u columns c; g1's reads of the
      // neighbouring chunks' boundary columns make those anti edges too.
      for (Coord dc = -1; dc <= 1; ++dc)
        if (c + dc >= 0 && c + dc < nc) g.add_edge(g1v[static_cast<std::size_t>(c + dc)], vtask(c));
      // Pre-wave ghost row: send the old top row north before the wave
      // overwrites it; the received copy lands in the south fluff the
      // wave's unprimed south read consumes.
      if (sprev[sc] != kNoTask) {
        if (it > 0) g.add_edge(prev_h[sc], sprev[sc]);
        g.add_edge(sprev[sc], vtask(c));
      }
      if (rprev[sc] != kNoTask) {
        if (it > 0) g.add_edge(prev_g2[sc], rprev[sc]);
        g.add_edge(rprev[sc], vtask(c));
      }
      // Post-wave ghost row for g2's south read; upG must also beat the
      // W-E sweep's rewrite of the top row.
      if (upgv[sc] != kNoTask) {
        g.add_edge(vtask(c), upgv[sc]);
        g.add_edge(upgv[sc], hv[sc]);
      }
      if (rg2v[sc] != kNoTask) {
        g.add_edge(vtask(c), rg2v[sc]);
        g.add_edge(rg2v[sc], g2v[sc]);
      }
      g.add_edge(vtask(c), g2v[sc]);
      g.add_edge(g2v[sc], hv[sc]);
      // The W-E sweep: chained along the wave direction; its unprimed east
      // read takes chunk c+1's post-V, pre-H value.
      if (c > 0) g.add_edge(hv[sc - 1], hv[sc]);
      if (c + 1 < nc) g.add_edge(vtask(c + 1), hv[sc]);
    }

    prev_h = std::move(hv);
    prev_g2 = std::move(g2v);
  }

  return run_graph(g, comm, sched);
}

Real AltSweep::residual_norm(Communicator& comm) {
  apply_distributed(interior_,
                    res_.local() <<= at(u_.local(), kNorth) +
                                         at(u_.local(), kSouth) +
                                         at(u_.local(), kWest) +
                                         at(u_.local(), kEast) -
                                         4.0 * u_.local() + f_.local(),
                    layout_, comm, /*tag_base=*/620);
  return global_max_abs(res_.local(), interior_, layout_, comm);
}

Real AltSweep::checksum(Communicator& comm) {
  return global_sum(u_.local(), interior_, layout_, comm);
}

Real alt_sweep_spmd(Communicator& comm, const AltSweepConfig& cfg,
                    const ProcGrid<2>& grid, VerticalStrategy strategy,
                    const WaveOptions& opts) {
  AltSweep app(cfg, grid, comm.rank());
  if (strategy == VerticalStrategy::kScheduled) {
    // One task graph spanning every iteration, so iteration boundaries
    // pipeline into each other instead of acting as barriers.
    app.iterate_scheduled(comm, cfg.iterations, opts);
  } else {
    for (int it = 0; it < cfg.iterations; ++it)
      app.iterate(comm, strategy, opts);
  }
  return app.residual_norm(comm);
}

}  // namespace wavepipe

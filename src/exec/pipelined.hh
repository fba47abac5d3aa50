// Distributed wavefront execution: naive (Fig 4a) and pipelined (Fig 4b).
//
// Schedule per rank:
//   1. pre-exchange ghosts: every read array's fluff is filled with *old*
//      neighbour values (this serves the unprimed @-references, including
//      anti-dependences across processor boundaries — payloads are
//      snapshots, so ordering with downstream computation is immaterial);
//   2. if the plan has a wavefront along a distributed dimension w and any
//      primed-read (wave) arrays, computation proceeds in tiles of `block`
//      columns along a chosen non-w dimension: receive the predecessor's
//      face segment, compute the tile, send the successor its face segment.
//      block = local extent gives the naive schedule: one receive, compute
//      everything, one send — no parallelism along w. Smaller blocks
//      pipeline the wave at the cost of more messages (the paper's §4
//      tradeoff);
//   3. otherwise the local portion is computed outright (fully parallel).
//
// All wave arrays' face segments for one tile travel as a single bundled
// message, so the per-message cost matches the paper's alpha + beta*b model.
//
// Steps 2 and 3 are one tile loop, stated once: lower_wavefront
// (sched/lower.hh) turns the plan into tile tasks and the kStatic executor
// runs them in task-id order, receiving each inflow blocking when its tile
// is picked. Without WaveOptions::overlap each tile's sends settle before
// the tile completes, reproducing the blocking schedule's virtual times
// exactly; with it they drain at the end of the wave while later tiles
// compute — the paper's communication/computation overlap. Either way the
// computed data is bit-identical.
#pragma once

#include "comm/machine.hh"
#include "sched/executor.hh"
#include "sched/lower.hh"

namespace wavepipe {

/// Executes a compiled scan block over a block-distributed layout.
/// Collective: every rank of the grid must call with the same plan
/// structure and options. Returns a per-rank report.
template <Rank R>
WaveReport<R> run_wavefront(const WavefrontPlan<R>& plan,
                            const Layout<R>& layout, Communicator& comm,
                            const WaveOptions& opts = {}) {
  const int rank = comm.rank();
  require(layout.grid().size() == comm.size(),
          "processor grid size must equal machine size");

  // Lowering first: it performs the tiling's legality checks, and a
  // ContractError must leave before any message does.
  TaskGraph g;
  LowerOptions lo;
  lo.block = opts.block;
  lo.block_w = opts.block_w;
  lo.charge = opts.charge;
  lo.settle_sends = !opts.overlap;
  const LoweredWave<R> lw =
      lower_wavefront(g, plan, layout, rank,
                      TagRange{opts.tag_base, wavefront_tag_span<R>(2)},
                      "wave", lo);

  // Old-value ghost exchange, bundled: every array with a nonzero halo
  // contributes to one message per neighbour per dimension.
  if (opts.pre_exchange) {
    std::vector<GhostHalo<Real, R>> bundle;
    for (const auto& use : plan.arrays) {
      bool any = false;
      for (Rank d = 0; d < R; ++d) any = any || use.halo.v[d] > 0;
      if (any) bundle.push_back({use.array, use.halo});
    }
    if (!bundle.empty())
      exchange_ghosts(std::span<const GhostHalo<Real, R>>(bundle), layout,
                      rank, comm, opts.tag_base);
  }

  run_graph(g, comm, SchedOptions{SchedPolicy::kStatic, SchedBackend::kSpmd});
  return lw.report;
}

/// Fig 4(a): the naive schedule — the wavefront dimension is serialized.
template <Rank R>
WaveReport<R> run_naive(const WavefrontPlan<R>& plan, const Layout<R>& layout,
                        Communicator& comm, WaveOptions opts = {}) {
  opts.block = 0;
  return run_wavefront(plan, layout, comm, opts);
}

/// Fig 4(b): the pipelined schedule with block size `block`. On a 2D
/// frontier the block applies to both tile axes unless the caller already
/// chose a block_w.
template <Rank R>
WaveReport<R> run_pipelined(const WavefrontPlan<R>& plan,
                            const Layout<R>& layout, Communicator& comm,
                            Coord block, WaveOptions opts = {}) {
  require(block >= 1, "pipeline block size must be >= 1");
  opts.block = block;
  if (opts.block_w <= 0) opts.block_w = block;
  return run_wavefront(plan, layout, comm, opts);
}

}  // namespace wavepipe

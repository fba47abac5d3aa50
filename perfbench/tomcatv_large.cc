// tomcatv-large: the paper's own application at a size where the kernel
// dominates. Closed loop, one solve at a time; each solve is what
// SuiteApp::run does for Tomcatv (a fresh 4-rank machine, the app
// constructed on every rank, one iteration at b=32) followed by an exact
// digest of the mesh, so the check covers both wavefronts: at one
// iteration the app's own return value is the residual measured *before*
// them.
#include <functional>
#include <memory>
#include <stdexcept>

#include "apps/tomcatv.hh"
#include "common.hh"

namespace wpbench {

using namespace wavepipe;

namespace {

constexpr Coord kN = 2048;
constexpr int kP = 4;
constexpr Coord kBlock = 32;

Region<2> interior(Coord n) { return Region<2>({{2, 2}}, {{n - 1, n - 1}}); }

// The interior rows each rank of a p-rank Tomcatv owns (the layout the
// app builds: rows distributed along dimension 0, fluff 1).
std::vector<Region<2>> row_blocks(Coord n, int p) {
  const Layout<2> layout(Region<2>({{1, 1}}, {{n, n}}),
                         ProcGrid<2>::along_dim(p, 0), Idx<2>{{1, 1}});
  std::vector<Region<2>> out;
  for (int r = 0; r < p; ++r)
    out.push_back(layout.owned(r).intersect(interior(n)));
  return out;
}

std::uint64_t digest_of(Tomcatv& app, const Region<2>& reg) {
  Digest d;
  for (DenseArray<Real, 2>* a : {&app.x(), &app.y()})
    for (Coord j = reg.lo(1); j <= reg.hi(1); ++j)
      for (Coord i = reg.lo(0); i <= reg.hi(0); ++i) d.add((*a)(i, j));
  return d.h;
}

struct Outcome {
  double wall_s = 0.0;
  Real norm = 0.0;
  std::vector<std::uint64_t> digests;
  CommStats total;
  Coord tiles = 0;
  Coord rank0_cells = 0;
  // Traced solves only: run() call to last rank entering its body, and
  // last rank leaving it to run() returning.
  double spawn_s = 0.0, join_s = 0.0;
};

// One solve at p ranks. `ref_blocks` (p == 1 only) makes rank 0 digest
// every block of the p=4 layout, which is the reference the timed solves
// compare their per-rank digests against.
Outcome solve(int p, Coord block, const std::vector<Region<2>>* ref_blocks,
              Trace* trace, long solve_id, int pass) {
  Outcome out;
  out.digests.assign(ref_blocks ? ref_blocks->size() : static_cast<std::size_t>(p), 0);
  std::vector<Trace::Lane> lanes =
      trace ? Trace::rank_lanes(p, solve_id, pass) : std::vector<Trace::Lane>{};
  const int solve_span = trace ? trace->begin("solve", solve_id, pass) : -1;
  const std::int64_t t0 = now_ns();
  std::int64_t t_call = 0, t_ret = 0;
  {
    Machine m(p, CostModel{}, TraceConfig{}, parallel_engine());
    t_call = now_ns();
    RunResult rr = m.run([&](Communicator& comm) {
      const int r = comm.rank();
      Trace::Lane* lane = trace ? &lanes[static_cast<std::size_t>(r)] : nullptr;
      if (lane) {
        lane->begin("rank_body");
        lane->begin("construct");
      }
      TomcatvConfig cfg;
      cfg.n = kN;
      cfg.iterations = 1;
      auto owner = std::make_unique<Tomcatv>(
          cfg, ProcGrid<2>::along_dim(comm.size(), 0), r);
      Tomcatv& app = *owner;
      WaveOptions opts;
      opts.block = block;
      Real norm = 0.0;
      if (!lane) {
        norm = app.iterate(comm, opts);
      } else {
        // Tomcatv::iterate, phase by phase.
        lane->end();
        lane->begin("residual_phase");
        app.residual_phase(comm);
        lane->end();
        lane->begin("residual_norm");
        norm = app.residual_norm(comm);
        lane->end();
        lane->begin("forward_elimination");
        const WaveReport<2> wr = app.forward_elimination(comm, opts);
        lane->end();
        lane->begin("back_substitution");
        app.back_substitution(comm, opts);
        lane->end();
        lane->begin("update_phase");
        app.update_phase(comm);
        lane->end();
        if (r == 0) {
          out.tiles = wr.tiles;
          out.rank0_cells = wr.local_region.size();
        }
        lane->begin("digest");
      }
      if (ref_blocks) {
        for (std::size_t b = 0; b < ref_blocks->size(); ++b)
          out.digests[b] = digest_of(app, (*ref_blocks)[b]);
      } else {
        out.digests[static_cast<std::size_t>(r)] =
            digest_of(app, app.layout().owned(r).intersect(app.interior()));
      }
      // Freeing the arrays belongs to the body, not to the join after it.
      if (lane) {
        lane->end();
        lane->begin("destroy");
      }
      owner.reset();
      if (lane) {
        lane->end();
        lane->end();
      }
      if (r == 0) out.norm = norm;
    });
    t_ret = now_ns();
    out.total = rr.total;
  }
  out.wall_s = seconds_between(t0, now_ns());
  if (trace) {
    const Trace::RunEdges e = trace->merge_run(lanes, solve_span, t_call, t_ret);
    trace->end();
    out.spawn_s = e.spawn_s;
    out.join_s = e.join_s;
  }
  return out;
}

struct Reference {
  Real norm = 0.0;
  std::vector<std::uint64_t> digests;
  double serial_s = 0.0;
};

bool matches(const Outcome& s, const Reference& ref) {
  return same_bits(s.norm, ref.norm) && s.digests == ref.digests;
}

// Runs one checked solve; a mismatch or exception is a failure, not an
// abort. Returns true when the solve verified.
bool checked(Report& rep, const Reference& ref, const char* what,
             const std::function<Outcome()>& fn, Outcome& out) {
  ++rep.attempted;
  try {
    out = fn();
  } catch (const std::exception& e) {
    ++rep.failed;
    rep.fail(std::string("tomcatv-large ") + what + " threw: " + e.what());
    return false;
  }
  if (!matches(out, ref)) {
    ++rep.failed;
    rep.fail(std::string("tomcatv-large ") + what +
             " differs from the p=1 reference");
    return false;
  }
  return true;
}

// Median over solves of the spread of per-rank end times of a span: the
// pipeline's fill and drain as seen at the end of each wave.
double end_skew_ms(const Trace& trace, int pass, const char* name) {
  std::map<long, std::pair<std::int64_t, std::int64_t>> ends;
  for (const Span& s : trace.spans())
    if (s.pass == pass && s.track >= 0 && std::strcmp(s.name, name) == 0) {
      auto [it, fresh] = ends.try_emplace(s.solve, s.t1, s.t1);
      it->second.first = std::min(it->second.first, s.t1);
      it->second.second = std::max(it->second.second, s.t1);
    }
  std::vector<double> v;
  for (const auto& [id, e] : ends) v.push_back(seconds_between(e.first, e.second));
  return median(v) * 1e3;
}

}  // namespace

void tomcatv_large(const Options& o, bool focus, Report& rep, Trace* trace,
                   int pass, double scan_ns_per_cell) {
  const std::vector<Region<2>> blocks = row_blocks(kN, kP);
  long next_id = 0;

  // Setup: the p=1 reference (also the single-thread baseline) and one
  // untimed, checked warm-up solve. Repeated for a median in timed runs.
  std::unique_ptr<Reference> ref;
  const int setup_reps = o.trace || o.smoke ? 1 : 5;
  const std::vector<double> setup_s = repeat_setup(setup_reps, ref, [&] {
    auto st = std::make_unique<Reference>();
    const Outcome r1 = solve(1, kBlock, &blocks, nullptr, next_id++, pass);
    st->norm = r1.norm;
    st->digests = r1.digests;
    st->serial_s = r1.wall_s;
    Outcome warm;
    checked(rep, *st, "warm-up solve",
            [&] { return solve(kP, kBlock, nullptr, nullptr, next_id++, pass); },
            warm);
    return st;
  });

  if (!trace) {
    Windows loop;
    Budget b = Budget::of(o, o.seconds, 3);
    start_loop_rss(rep);
    loop.start();
    while (b.more()) {
      Outcome s;
      if (checked(rep, *ref, "solve",
                  [&] { return solve(kP, kBlock, nullptr, nullptr, next_id++, pass); },
                  s))
        loop.add(s.wall_s);
    }
    loop.finish();
    put_end_to_end(rep, loop, setup_s, peak_rss_mb());
    return;
  }

  // The layer run: untraced solves and traced ones (Tomcatv::iterate phase
  // by phase inside spans) alternate, so drift in outside load falls on
  // both halves alike.
  std::vector<double> lat, traced_lat, spawn, join;
  Outcome last, traced;
  Budget b = focus ? Budget::of(o, o.seconds * 0.6, 4) : Budget::count(5);
  for (long i = 0; b.more(); ++i) {
    const bool spans = i % 2 == 1;
    Outcome s;
    if (!checked(rep, *ref, spans ? "traced solve" : "solve",
                 [&] {
                   return solve(kP, kBlock, nullptr, spans ? trace : nullptr,
                                next_id++, pass);
                 },
                 s))
      continue;
    if (spans) {
      traced_lat.push_back(s.wall_s);
      spawn.push_back(s.spawn_s);
      join.push_back(s.join_s);
      traced = s;
    } else {
      lat.push_back(s.wall_s);
      last = s;
    }
  }

  // The traced value must be tomcatv_spmd's.
  {
    ++rep.attempted;
    Real spmd = 0.0;
    std::string error;
    try {
      Machine::run(kP, CostModel{}, parallel_engine(), [&](Communicator& comm) {
        TomcatvConfig cfg;
        cfg.n = kN;
        cfg.iterations = 1;
        WaveOptions opts;
        opts.block = kBlock;
        const Real v = tomcatv_spmd(comm, cfg,
                                    ProcGrid<2>::along_dim(comm.size(), 0), opts);
        if (comm.rank() == 0) spmd = v;
      });
    } catch (const std::exception& e) {
      error = std::string(": tomcatv_spmd threw: ") + e.what();
    }
    if (!error.empty() || !same_bits(spmd, traced.norm)) {
      ++rep.failed;
      rep.fail("tomcatv-large traced value differs from tomcatv_spmd's" + error);
    }
    rep.samples["tomcatv.spmd_checked"] = 1;
  }

  std::vector<double> naive;
  for (int i = 0; i < 2; ++i) {
    Outcome s;
    if (checked(rep, *ref, "naive solve",
                [&] { return solve(kP, 0, nullptr, nullptr, next_id++, pass); }, s))
      naive.push_back(s.wall_s);
  }

  const double p50 = median(lat);
  const double forward_ms = trace->worst_rank_ms(pass, "forward_elimination");
  rep.put("apps.construct_ms", trace->worst_rank_ms(pass, "construct"), "ms");
  rep.put("array.residual_phase_ms", trace->worst_rank_ms(pass, "residual_phase"), "ms");
  rep.put("array.update_phase_ms", trace->worst_rank_ms(pass, "update_phase"), "ms");
  rep.put("exec.forward_ms", forward_ms, "ms");
  rep.put("exec.backward_ms", trace->worst_rank_ms(pass, "back_substitution"), "ms");
  rep.put("exec.finish_skew_ms",
          end_skew_ms(*trace, pass, "forward_elimination") +
              end_skew_ms(*trace, pass, "back_substitution"),
          "ms");
  rep.put("exec.tiles_per_wave", static_cast<double>(traced.tiles), "count");
  // Estimate: rank 0's cells at the 1x1 probe's scan cost, over the wave.
  rep.put("exec.wave_kernel_share",
          static_cast<double>(traced.rank0_cells) * scan_ns_per_cell *
              1e-6 / forward_ms,
          "frac");
  rep.put("exec.serial_solve_ms", ref->serial_s * 1e3, "ms");
  rep.put("exec.naive_solve_ms", median(naive) * 1e3, "ms");
  rep.put("exec.speedup_vs_serial", ref->serial_s / p50, "x");
  rep.put("exec.pipeline_gain", median(naive) / p50, "x");
  rep.samples["tomcatv.untraced_solve"] = static_cast<long>(lat.size());
  rep.samples["tomcatv.traced_solve"] = static_cast<long>(traced_lat.size());
  if (focus) {
    rep.put("comm.messages_per_solve",
            static_cast<double>(last.total.messages_sent), "count");
    rep.put("comm.bytes_per_solve", static_cast<double>(last.total.bytes_sent),
            "B");
    rep.put("comm.spawn_us", median(spawn) * 1e6, "us");
    rep.put("comm.join_us", median(join) * 1e6, "us");
    rep.put("trace.overhead_frac", median(traced_lat) / p50 - 1.0, "frac");
  }
}

}  // namespace wpbench

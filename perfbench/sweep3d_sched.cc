// sweep3d-sched: the only workload through sched/ (plan lowering plus
// run_graph). Closed loop of sweep3d_spmd_scheduled at n=48, 2 angles per
// octant, b=6, on one persistent 4-rank machine with the work-stealing
// tasks backend. It tiles the same wavefront exec/pipelined.hh runs as a
// hand loop (tomcatv-large's path), so a merge of the two tile loops, or
// a change to the tasks-backend workers, shows here.
#include <cstring>
#include <memory>
#include <optional>

#include "apps/sweep3d.hh"
#include "common.hh"

namespace wpbench {

using namespace wavepipe;

namespace {

constexpr Coord kN = 48;
constexpr int kAngles = 2;
constexpr Coord kBlock = 6;
constexpr int kP = 4;
constexpr int kSlots = 4;  // sweep_all_scheduled's default

Sweep3dConfig config() {
  Sweep3dConfig cfg;
  cfg.n = kN;
  cfg.angles = kAngles;
  cfg.iterations = 1;
  return cfg;
}

SchedOptions sched_options(SchedBackend backend) {
  SchedOptions so;
  so.backend = backend;
  return so;
}

struct Outcome {
  double wall_s = 0.0;
  Real flux = 0.0;
  CommStats total;
  double spawn_s = 0.0, join_s = 0.0;
};

struct Setup {
  std::unique_ptr<Machine> machine;
  std::vector<Real> ref_field;  // p=1, hand-loop executor
  // The p=4 total, fixed by the first solve whose field matches (the
  // warm-up, normally): the reduction order differs from p=1's.
  std::optional<Real> flux;
  std::vector<Real> field;  // scratch the solves write into
};

// One scheduled solve on the setup's machine: what sweep3d_spmd_scheduled
// does, then each rank copies its owned flux cells into st.field. Traced
// solves call sweep_all_scheduled's four steps one by one.
Outcome solve(Setup& st, SchedBackend backend, Trace* trace, long solve_id,
              int pass) {
  Outcome out;
  std::fill(st.field.begin(), st.field.end(), 0.0);
  std::vector<Trace::Lane> lanes =
      trace ? Trace::rank_lanes(kP, solve_id, pass) : std::vector<Trace::Lane>{};
  const int solve_span = trace ? trace->begin("solve", solve_id, pass) : -1;
  const SchedOptions so = sched_options(backend);
  const std::int64_t t0 = now_ns();
  const RunResult rr = st.machine->run([&](Communicator& comm) {
    const int r = comm.rank();
    Trace::Lane* lane = trace ? &lanes[static_cast<std::size_t>(r)] : nullptr;
    if (lane) {
      lane->begin("rank_body");
      lane->begin("construct");
    }
    auto owner = std::make_unique<Sweep3d>(
        config(), ProcGrid<3>::along_dim(comm.size(), 0), r);
    Sweep3d& app = *owner;
    WaveOptions opts;
    opts.block = kBlock;
    Real flux = 0.0;
    if (!lane) {
      flux = app.sweep_all_scheduled(comm, opts, so, nullptr, kSlots);
    } else {
      lane->end();
      lane->begin("lower");
      const TaskGraph g = app.build_sweep_graph(opts, kSlots);
      lane->end();
      lane->begin("run_graph");
      run_graph(g, comm, so);
      lane->end();
      lane->begin("total_flux");
      app.mirror_last_slot();
      flux = app.total_flux(comm);
      lane->end();
    }
    app.extract_owned_flux(st.field);
    if (lane) lane->begin("destroy");
    owner.reset();
    if (lane) {
      lane->end();
      lane->end();
    }
    if (r == 0) out.flux = flux;
  });
  const std::int64_t t1 = now_ns();
  out.wall_s = seconds_between(t0, t1);
  out.total = rr.total;
  if (trace) {
    const Trace::RunEdges e = trace->merge_run(lanes, solve_span, t0, t1);
    trace->end();
    out.spawn_s = e.spawn_s;
    out.join_s = e.join_s;
  }
  return out;
}

bool checked(Report& rep, Setup& st, SchedBackend backend, Trace* trace,
             long id, int pass, Outcome& out) {
  ++rep.attempted;
  try {
    out = solve(st, backend, trace, id, pass);
  } catch (const std::exception& e) {
    ++rep.failed;
    rep.fail(std::string("sweep3d-sched solve threw: ") + e.what());
    return false;
  }
  const bool ok =
      std::memcmp(st.field.data(), st.ref_field.data(),
                  st.field.size() * sizeof(Real)) == 0 &&
      (!st.flux || same_bits(out.flux, *st.flux));
  if (ok && !st.flux) st.flux = out.flux;
  if (!ok) {
    ++rep.failed;
    rep.fail("sweep3d-sched solve differs from the p=1 reference");
  }
  return ok;
}

std::unique_ptr<Setup> make_setup(Report& rep, long& next_id, int pass) {
  auto st = std::make_unique<Setup>();
  const auto cells = static_cast<std::size_t>(kN * kN * kN);
  st->ref_field.assign(cells, 0.0);
  st->field.assign(cells, 0.0);
  Machine::run(1, CostModel{}, parallel_engine(),
               [&](Communicator& comm) {
                 Sweep3d app(config(), ProcGrid<3>::along_dim(1, 0), 0);
                 app.sweep_all(comm);
                 app.extract_owned_flux(st->ref_field);
               });
  st->machine = std::make_unique<Machine>(kP, CostModel{}, TraceConfig{},
                                          parallel_engine());
  // The warm-up: its field must already match the p=1 reference, and it
  // fixes the p=4 total later solves must reproduce.
  Outcome warm;
  checked(rep, *st, SchedBackend::kTasks, nullptr, next_id++, pass, warm);
  return st;
}

}  // namespace

void sweep3d_sched(const Options& o, bool focus, Report& rep, Trace* trace,
                   int pass) {
  long next_id = 0;
  std::unique_ptr<Setup> st;
  const int setup_reps = o.trace || o.smoke ? 1 : 25;
  const std::vector<double> setup_s = repeat_setup(
      setup_reps, st, [&] { return make_setup(rep, next_id, pass); });

  if (!trace) {
    Windows loop;
    Budget b = Budget::of(o, o.seconds, 5);
    start_loop_rss(rep);
    loop.start();
    while (b.more()) {
      Outcome s;
      if (checked(rep, *st, SchedBackend::kTasks, nullptr, next_id++, pass, s))
        loop.add(s.wall_s);
    }
    loop.finish();
    put_end_to_end(rep, loop, setup_s, peak_rss_mb());
    return;
  }

  // The layer run: untraced, traced and SPMD-backend solves take turns, so
  // drift in outside load falls on all three alike.
  std::vector<double> lat, traced_lat, spmd, spawn, join;
  Outcome last;
  Budget b = focus ? Budget::of(o, o.seconds * 0.6, 6) : Budget::count(30);
  for (long i = 0; b.more(); ++i) {
    const long kind = i % 3;  // 0 untraced, 1 traced, 2 SPMD backend
    Outcome s;
    if (!checked(rep, *st, kind == 2 ? SchedBackend::kSpmd : SchedBackend::kTasks,
                 kind == 1 ? trace : nullptr, next_id++, pass, s))
      continue;
    if (kind == 0) {
      lat.push_back(s.wall_s);
      last = s;
    } else if (kind == 1) {
      traced_lat.push_back(s.wall_s);
      spawn.push_back(s.spawn_s);
      join.push_back(s.join_s);
    } else {
      spmd.push_back(s.wall_s);
    }
  }

  rep.put("sched.spmd_solve_ms", median(spmd) * 1e3, "ms");
  rep.put("sched.tasks_vs_spmd", median(spmd) / median(lat), "x");
  rep.put("sched.lower_ms", trace->worst_rank_ms(pass, "lower"), "ms");
  rep.put("sched.run_graph_ms", trace->worst_rank_ms(pass, "run_graph"), "ms");
  rep.samples["sweep3d.traced_solve"] = static_cast<long>(traced_lat.size());
  if (focus) {
    rep.samples["sweep3d.untraced_solve"] = static_cast<long>(lat.size());
    rep.put("comm.messages_per_solve",
            static_cast<double>(last.total.messages_sent), "count");
    rep.put("comm.bytes_per_solve", static_cast<double>(last.total.bytes_sent),
            "B");
    rep.put("comm.spawn_us", median(spawn) * 1e6, "us");
    rep.put("comm.join_us", median(join) * 1e6, "us");
    rep.put("trace.overhead_frac", median(traced_lat) / median(lat) - 1.0,
            "frac");
  }
}

}  // namespace wpbench

// Layer probes for the traced run. Each one calls only public functions
// and isolates one layer; the comment on each names the end-to-end metric
// and workload it predicts (README.md has the full map).
#include <memory>

#include "apps/tomcatv.hh"
#include "common.hh"
#include "exec/serial.hh"
#include "sched/sched.hh"

namespace wpbench {

using namespace wavepipe;

namespace {

constexpr int kProbeRuns = 7;
constexpr int kTag = 11;

// Median of `runs` per-op times (seconds per op) measured on rank 0 of a
// fresh p-rank machine running `body` `ops` times.
template <typename Body>
double per_op_on_rank0(int p, int ops, Body&& body) {
  Machine m(p, CostModel{}, TraceConfig{}, parallel_engine());
  std::vector<double> per_op;
  for (int run = 0; run < kProbeRuns; ++run) {
    double secs = 0.0;
    m.run([&](Communicator& comm) {
      comm.barrier();
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < ops; ++i) body(comm, i);
      if (comm.rank() == 0) secs = seconds_between(t0, now_ns());
    });
    per_op.push_back(secs / ops);
  }
  return median(per_op);
}

// comm: run setup (Machine construction plus run() of an empty body), and
// within it the spawn (run() call to the last rank entering the body) and
// join (last rank leaving to run() returning). Predicts solves_per_s and
// solve_p50_ms on service-mix, where every round pays it; flat on
// tomcatv-large.
void probe_run_setup(Report& rep) {
  std::vector<double> setup, spawn, join;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::int64_t> in(4), out(4);
    const std::int64_t t0 = now_ns();
    Machine m(4, CostModel{}, TraceConfig{}, parallel_engine());
    const std::int64_t t_call = now_ns();
    m.run([&](Communicator& comm) {
      in[static_cast<std::size_t>(comm.rank())] = now_ns();
      out[static_cast<std::size_t>(comm.rank())] = now_ns();
    });
    const std::int64_t t_ret = now_ns();
    setup.push_back(seconds_between(t0, t_ret));
    spawn.push_back(seconds_between(t_call, *std::max_element(in.begin(), in.end())));
    join.push_back(seconds_between(*std::max_element(out.begin(), out.end()), t_ret));
  }
  rep.put("comm.run_setup_us", median(setup) * 1e6, "us");
  // Overwritten by the traced solves of a workload that owns its
  // Machine::run (tomcatv-large, sweep3d-sched).
  rep.put("comm.spawn_us", median(spawn) * 1e6, "us");
  rep.put("comm.join_us", median(join) * 1e6, "us");
}

// comm: point-to-point and collective latency. Predicts solve_p90_ms on
// service-mix and sweep3d-sched; flat on tomcatv-large.
void probe_messages(Report& rep) {
  constexpr int kOps = 2000;
  rep.put("comm.pingpong_us",
          per_op_on_rank0(2, kOps,
                          [](Communicator& comm, int i) {
                            if (comm.rank() == 0) {
                              comm.send_value(1, static_cast<double>(i), 1);
                              (void)comm.recv_value<double>(1, 2);
                            } else {
                              comm.send_value(0, comm.recv_value<double>(0, 1), 2);
                            }
                          }) * 1e6,
          "us");
  // A Tomcatv b=32 wave face: three primed arrays x 32 cells.
  rep.put("comm.face_send_us",
          per_op_on_rank0(4, kOps,
                          [](Communicator& comm, int i) {
                            std::vector<double> face(96, static_cast<double>(i));
                            const int n = comm.size();
                            const int r = comm.rank();
                            comm.send(( r + 1) % n, std::span<const double>(face), 3);
                            comm.recv((r + n - 1) % n, std::span<double>(face), 3);
                          }) * 1e6,
          "us");
  rep.put("comm.allreduce_us",
          per_op_on_rank0(4, kOps,
                          [](Communicator& comm, int i) {
                            (void)comm.allreduce_max(static_cast<double>(i + comm.rank()));
                          }) * 1e6,
          "us");
}

// lang: the fused scan evaluator against a hand loop of the same
// recurrence (Tomcatv's forward elimination) on one 1x1-grid rank at
// n=1024, and the cost of compiling that scan block. Predicts solves_per_s
// on tomcatv-large; flat on service-mix.
double probe_lang(Report& rep) {
  constexpr Coord n = 1024;
  TomcatvConfig cfg;
  cfg.n = n;
  cfg.iterations = 1;
  Tomcatv app(cfg, ProcGrid<2>::along_dim(1, 0), 0);
  app.parallel_phases_serial();  // makes rx non-zero
  const Region<2> all = app.rx().region();
  const Region<2>& in = app.interior();
  const StorageOrder order = app.rx().order();
  DenseArray<Real, 2> rx0("rx0", all, order);
  rx0.copy_from(app.rx(), all);

  std::vector<double> scan_s;
  for (int rep_i = 0; rep_i < kProbeRuns; ++rep_i) {
    app.rx().copy_from(rx0, all);
    const std::int64_t t0 = now_ns();
    run_serial(app.forward_plan());
    scan_s.push_back(seconds_between(t0, now_ns()));
  }

  // The same recurrence by hand, column-major order (dim 0 inner).
  DenseArray<Real, 2> r("r", all, order), d("d", all, order),
      aa("aa", all, order, -1.0), dd("dd", all, order, 4.0),
      rx("rx", all, order), ry("ry", all, order);
  std::vector<double> hand_s;
  for (int rep_i = 0; rep_i < kProbeRuns; ++rep_i) {
    rx.copy_from(rx0, all);
    ry.copy_from(rx0, all);
    const std::int64_t t0 = now_ns();
    for (Coord j = in.lo(1); j <= in.hi(1); ++j)
      for (Coord i = in.lo(0); i <= in.hi(0); ++i) {
        const Real rr = aa(i, j) * d(i - 1, j);
        r(i, j) = rr;
        d(i, j) = 1.0 / (dd(i, j) - aa(i - 1, j) * rr);
        rx(i, j) = rx(i, j) - rx(i - 1, j) * rr;
        ry(i, j) = ry(i, j) - ry(i - 1, j) * rr;
      }
    hand_s.push_back(seconds_between(t0, now_ns()));
  }
  // Both ran on the same rx input last: their results must agree exactly.
  bool same = true;
  for_each(in, [&](const Idx<2>& i) { same = same && same_bits(rx(i), app.rx()(i)); });
  ++rep.attempted;
  if (!same) {
    ++rep.failed;
    rep.fail("lang probe: hand loop and scan block disagree");
  }

  std::vector<double> compile_s;
  for (int rep_i = 0; rep_i < 50; ++rep_i) {
    const std::int64_t t0 = now_ns();
    const WavefrontPlan<2> plan =
        scan(in, r <<= aa * prime(d, kNorth),
             d <<= 1.0 / (dd - at(aa, kNorth) * r),
             rx <<= rx - prime(rx, kNorth) * r, ry <<= ry - prime(ry, kNorth) * r)
            .compile();
    compile_s.push_back(seconds_between(t0, now_ns()));
  }

  const auto cells = static_cast<double>(in.size());
  const double scan_ns = median(scan_s) / cells * 1e9;
  const double hand_ns = median(hand_s) / cells * 1e9;
  rep.put("lang.scan_ns_per_cell", scan_ns, "ns");
  rep.put("lang.hand_ns_per_cell", hand_ns, "ns");
  rep.put("lang.scan_vs_hand", scan_ns / hand_ns, "x");
  rep.put("lang.compile_us", median(compile_s) * 1e6, "us");
  return scan_ns;
}

// sched: run_graph with the tasks backend on a 4-rank wavefront of empty
// tasks (each rank a chain; task k on rank r waits for task k of rank r-1),
// so the per-task cost is dispatch, release and stealing alone. Predicts
// solves_per_s on sweep3d-sched; flat on tomcatv-large and service-mix.
void probe_sched(Report& rep) {
  constexpr int kTasksPerRank = 500;
  Machine m(4, CostModel{}, TraceConfig{}, parallel_engine());
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  std::vector<double> per_task, steals, waits;
  long bad = 0;
  for (int run = 0; run < kProbeRuns; ++run) {
    std::vector<SchedReport> reports(4);
    std::vector<long> wrong(4, 0);
    const std::int64_t t0 = now_ns();
    m.run([&](Communicator& comm) {
      const int r = comm.rank();
      const int n = comm.size();
      long& my_wrong = wrong[static_cast<std::size_t>(r)];
      TaskGraph g;
      TaskId prev = kNoTask;
      for (int k = 0; k < kTasksPerRank; ++k) {
        TaskGraph::Task t;
        t.label = "t" + std::to_string(k);
        t.diagonal = r + k;
        if (r > 0) t.inflows.push_back({r - 1, kTag, 1});
        t.run = [r, n, k, &my_wrong](TaskContext& ctx) {
          if (r > 0 && (ctx.inflow.size() != 1 || ctx.inflow[0] != k)) ++my_wrong;
          if (r + 1 < n) {
            const double v = k;
            ctx.send(r + 1, std::span<const double>(&v, 1), kTag);
          }
        };
        const TaskId id = g.add(std::move(t));
        g.add_edge_if(prev, id);
        prev = id;
      }
      reports[static_cast<std::size_t>(r)] = run_graph(g, comm, so);
    });
    const double tasks = 4.0 * kTasksPerRank;
    per_task.push_back(seconds_between(t0, now_ns()) / tasks);
    double st = 0, bw = 0;
    for (const SchedReport& sr : reports) {
      st += static_cast<double>(sr.steals);
      bw += static_cast<double>(sr.blocked_waits);
    }
    steals.push_back(st / tasks);
    waits.push_back(bw / tasks);
    for (long w : wrong) bad += w;
  }
  ++rep.attempted;
  if (bad != 0) {
    ++rep.failed;
    rep.fail("sched probe: a task saw the wrong inflow payload");
  }
  rep.put("sched.dispatch_us_per_task", median(per_task) * 1e6, "us");
  rep.put("sched.steals_per_task", median(steals), "count");
  rep.put("sched.blocked_waits_per_task", median(waits), "count");
}

}  // namespace

double run_probes(Report& rep) {
  probe_run_setup(rep);
  probe_messages(rep);
  const double scan_ns_per_cell = probe_lang(rep);
  probe_sched(rep);
  return scan_ns_per_cell;
}

}  // namespace wpbench

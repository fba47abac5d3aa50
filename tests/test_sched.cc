// The tile-task dataflow scheduler (sched/): tag-allocator and task-graph
// units, executor policy/mode semantics, env-var parsing, byte-identity of
// the scheduled applications against their sequential executors, the
// multi-wavefront overlap win the scheduler exists for, and deadlock
// reports that name the stuck task.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/sweep3d.hh"
#include "comm/machine.hh"
#include "model/machines.hh"
#include "sched/sched.hh"

namespace wavepipe {
namespace {

struct EnvGuard {
  std::string name;
  std::string saved;
  bool had = false;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = std::getenv(n)) {
      had = true;
      saved = v;
    }
  }
  ~EnvGuard() {
    if (had)
      ::setenv(name.c_str(), saved.c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

TEST(TagAllocator, RangesAreDisjointAndLabelled) {
  TagAllocator tags(100);
  const TagRange a = tags.alloc(5, "wave A");
  const TagRange b = tags.alloc(3, "wave B");
  EXPECT_EQ(a.base, 100);
  EXPECT_EQ(a.count, 5);
  EXPECT_EQ(a.end(), 105);
  EXPECT_EQ(b.base, 105);
  EXPECT_TRUE(a.contains(104));
  EXPECT_FALSE(a.contains(105));
  EXPECT_TRUE(b.contains(105));
  EXPECT_EQ(tags.next(), 108);
  EXPECT_EQ(tags.owner_of(102), "wave A");
  EXPECT_EQ(tags.owner_of(107), "wave B");
  EXPECT_EQ(tags.owner_of(99), "");
  EXPECT_NE(tags.describe().find("wave A"), std::string::npos);
}

TEST(TagAllocator, NegativeBaseIsAContractViolation) {
  EXPECT_THROW(TagAllocator(-1), Error);
}

TEST(TagAllocator, RejectsNonPositiveCounts) {
  TagAllocator tags;
  EXPECT_THROW(tags.alloc(0), ConfigError);
  EXPECT_THROW(tags.alloc(-3, "bogus"), ConfigError);
  try {
    tags.alloc(0, "empty phase");
    FAIL() << "alloc(0) must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("empty phase"), std::string::npos);
  }
}

TEST(TagAllocator, RecyclesReleasedRangesFirstFit) {
  TagAllocator tags(100);
  const TagRange a = tags.alloc(8, "A");
  const TagRange b = tags.alloc(4, "B");
  tags.release(a);
  // Recycle fills the hole lowest-base first, carving only what it needs.
  const TagRange c = tags.alloc(3, "C");
  EXPECT_EQ(c.base, a.base);
  const TagRange d = tags.alloc(5, "D");
  EXPECT_EQ(d.base, a.base + 3);
  EXPECT_EQ(tags.recycled(), 2u);
  EXPECT_EQ(tags.next(), b.end());  // no fresh space consumed
  EXPECT_EQ(tags.live_ranges(), 3u);
  EXPECT_EQ(tags.owner_of(c.base), "C");
}

TEST(TagAllocator, ReleaseCoalescesAndFoldsTrailingSpace) {
  TagAllocator tags(0);
  const TagRange a = tags.alloc(4, "A");
  const TagRange b = tags.alloc(4, "B");
  const TagRange c = tags.alloc(4, "C");
  tags.release(a);
  tags.release(b);  // coalesces with a's hole
  const TagRange big = tags.alloc(8, "big");
  EXPECT_EQ(big.base, a.base);
  EXPECT_EQ(big.count, 8);
  // Releasing everything folds the space back: a balanced caller never
  // grows next().
  tags.release(big);
  tags.release(c);
  EXPECT_EQ(tags.next(), 0);
  EXPECT_EQ(tags.live_ranges(), 0u);
  EXPECT_EQ(tags.describe(), "");
}

TEST(TagAllocator, ReleaseRequiresExactLiveRange) {
  TagAllocator tags(0);
  const TagRange a = tags.alloc(4, "A");
  EXPECT_THROW(tags.release(TagRange{a.base, 2}), ConfigError);
  EXPECT_THROW(tags.release(TagRange{99, 4}), ConfigError);
  tags.release(a);
  EXPECT_THROW(tags.release(a), ConfigError);  // double release
}

TEST(TagAllocator, ExhaustionNamesTheHoardingPhase) {
  TagAllocator tags(std::numeric_limits<int>::max() - 10);
  tags.alloc(2, "small phase");
  tags.alloc(7, "the hoarding sweep");
  try {
    tags.alloc(5, "latecomer");
    FAIL() << "exhaustion must throw";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tag space exhausted"), std::string::npos);
    EXPECT_NE(msg.find("the hoarding sweep"), std::string::npos);
  }
}

TEST(TagAllocator, DescribeIsDeterministic) {
  const auto drive = [] {
    TagAllocator tags(10);
    tags.alloc(4, "wave A");
    const TagRange b = tags.alloc(2, "wave B");
    tags.alloc(3, "wave C");
    tags.release(b);
    return tags.describe();
  };
  const std::string d = drive();
  EXPECT_EQ(d, drive());  // pure function of the call sequence
  EXPECT_EQ(d,
            "[10, 14) wave A\n"
            "[14, 16) (free)\n"
            "[16, 19) wave C\n");
}

TEST(TaskGraph, TracksEdgesAndDegrees) {
  TaskGraph g;
  const auto named = [](const char* label) {
    TaskGraph::Task t;
    t.label = label;
    return t;
  };
  const TaskId a = g.add(named("a"));
  const TaskId b = g.add(named("b"));
  const TaskId c = g.add(named("c"));
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge_if(kNoTask, c);  // no-op
  g.add_edge_if(b, c);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edges(), 3u);
  EXPECT_EQ(g.predecessors(a), 0);
  EXPECT_EQ(g.predecessors(c), 2);
  EXPECT_EQ(g.successors(a).size(), 2u);
  EXPECT_EQ(g.task(b).label, "b");
  EXPECT_THROW(g.task(static_cast<TaskId>(7)), Error);
}

// Runs `g` (built per rank by `build`) on p ranks under the given options
// and returns vtime_max.
template <typename BuildFn>
double run_on(int p, const SchedOptions& so, BuildFn build,
              const CostModel& cm = {}) {
  return Machine::run(p, cm,
                      [&](Communicator& comm) {
                        TaskGraph g;
                        build(g, comm.rank());
                        run_graph(g, comm, so);
                      })
      .vtime_max;
}

TEST(Executor, FifoRunsInInsertionOrder) {
  std::vector<std::string> order;
  SchedOptions so;
  so.policy = SchedPolicy::kStatic;
  run_on(1, so, [&](TaskGraph& g, int) {
    for (const char* name : {"a", "b", "c"})
      g.add({.label = name,
             .inflows = {},
             .run = [&order, name](TaskContext&) { order.push_back(name); }});
  });
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Executor, DiagonalPolicyOrdersByKey) {
  std::vector<std::string> order;
  SchedOptions so;
  so.policy = SchedPolicy::kDiagonal;
  run_on(1, so, [&](TaskGraph& g, int) {
    const auto body = [&order](const char* name) {
      return [&order, name](TaskContext&) { order.push_back(name); };
    };
    g.add({.label = "late",
           .diagonal = 2,
           .inflows = {},
           .run = body("late")});
    g.add({.label = "early",
           .diagonal = 0,
           .inflows = {},
           .run = body("early")});
    g.add({.label = "mid",
           .diagonal = 1,
           .inflows = {},
           .run = body("mid")});
  });
  EXPECT_EQ(order, (std::vector<std::string>{"early", "mid", "late"}));
}

TEST(Executor, CriticalPathPrefersTheLongChain) {
  // y (cost 1) is runnable alongside the x1 -> x2 chain (cost 10 each);
  // the critical-path policy must start the chain first, FIFO must not.
  const auto build = [](std::vector<std::string>& order) {
    return [&order](TaskGraph& g, int) {
      const auto body = [&order](const char* name) {
        return [&order, name](TaskContext&) { order.push_back(name); };
      };
      const TaskId y = g.add(
          {.label = "y", .cost = 1.0, .inflows = {}, .run = body("y")});
      (void)y;
      const TaskId x1 = g.add({.label = "x1",
                                .cost = 10.0,
                                .inflows = {},
                                .run = body("x1")});
      const TaskId x2 = g.add({.label = "x2",
                                .cost = 10.0,
                                .inflows = {},
                                .run = body("x2")});
      g.add_edge(x1, x2);
    };
  };
  std::vector<std::string> crit, fifo;
  SchedOptions so;
  so.policy = SchedPolicy::kCriticalPath;
  run_on(1, so, build(crit));
  so.policy = SchedPolicy::kFifo;
  run_on(1, so, build(fifo));
  EXPECT_EQ(crit, (std::vector<std::string>{"x1", "x2", "y"}));
  EXPECT_EQ(fifo, (std::vector<std::string>{"y", "x1", "x2"}));
}

TEST(Executor, CycleIsATypedError) {
  Machine::run(1, {}, [&](Communicator& comm) {
    TaskGraph g;
    const auto named = [](const char* label) {
      TaskGraph::Task t;
      t.label = label;
      return t;
    };
    const TaskId a = g.add(named("ouroboros-head"));
    const TaskId b = g.add(named("ouroboros-tail"));
    g.add_edge(a, b);
    g.add_edge(b, a);
    try {
      run_graph(g, comm, {});
      FAIL() << "cycle did not throw";
    } catch (const SchedError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cycle"), std::string::npos) << what;
      EXPECT_NE(what.find("ouroboros"), std::string::npos) << what;
    }
  });
}

TEST(Executor, InflowAndSendsMoveDataBetweenRanks) {
  for (const SchedPolicy pol :
       {SchedPolicy::kStatic, SchedPolicy::kCriticalPath}) {
    SchedOptions so;
    so.policy = pol;
    std::vector<double> got;
    Machine::run(2, {}, [&](Communicator& comm) {
      TaskGraph g;
      if (comm.rank() == 0) {
        g.add({.label = "tx", .inflows = {}, .run = [](TaskContext& ctx) {
                 const double payload[3] = {2.0, 3.0, 5.0};
                 ctx.send(1, std::span<const double>(payload), 7);
               }});
      } else {
        TaskGraph::Task rx;
        rx.label = "rx";
        rx.inflows.push_back({0, 7, 3});
        rx.run = [&got](TaskContext& ctx) {
          got.assign(ctx.inflow.begin(), ctx.inflow.end());
        };
        g.add(std::move(rx));
      }
      const SchedReport rep = run_graph(g, comm, so);
      EXPECT_EQ(rep.tasks, 1u);
      EXPECT_EQ(rep.policy, pol);
      // kStatic receives blocking when the task is picked; the adaptive
      // policies post the receive up front.
      if (comm.rank() == 1) {
        EXPECT_EQ(rep.max_posted, pol == SchedPolicy::kStatic ? 0u : 1u);
      }
    });
    EXPECT_EQ(got, (std::vector<double>{2.0, 3.0, 5.0}))
        << "policy=" << to_string(pol);
  }
}

TEST(SchedOptionsEnv, ParsesPolicyAndMode) {
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  ::unsetenv("WAVEPIPE_SCHED_BACKEND");

  ::unsetenv("WAVEPIPE_SCHED_POLICY");
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kCriticalPath);

  ::setenv("WAVEPIPE_SCHED_POLICY", "static", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kStatic);
  ::setenv("WAVEPIPE_SCHED_POLICY", "fifo", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kFifo);
  ::setenv("WAVEPIPE_SCHED_POLICY", "diagonal", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kDiagonal);
  ::setenv("WAVEPIPE_SCHED_POLICY", "critical", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kCriticalPath);
  ::setenv("WAVEPIPE_SCHED_POLICY", "greedy", 1);
  try {
    SchedOptions::from_env();
    FAIL() << "unknown policy accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'static', 'fifo', 'diagonal' or 'critical'"),
              std::string::npos)
        << what;
  }
}

TEST(SchedOptionsEnv, ParsesBackendSelection) {
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard eng("WAVEPIPE_ENGINE");
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  ::unsetenv("WAVEPIPE_SCHED_BACKEND");
  ::unsetenv("WAVEPIPE_ENGINE");
  ::unsetenv("WAVEPIPE_SCHED_POLICY");
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "threads", 1);
  EXPECT_THROW(SchedOptions::from_env(), ConfigError);
}

TEST(SchedOptionsEnv, TasksBackendCrossValidatesAgainstEngineEnv) {
  // The env-vs-env conflict is caught at configuration time, before any
  // machine exists — and the error spells out the valid combinations.
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard eng("WAVEPIPE_ENGINE");
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  ::unsetenv("WAVEPIPE_SCHED_POLICY");
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  ::setenv("WAVEPIPE_ENGINE", "parallel", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::unsetenv("WAVEPIPE_ENGINE");  // unset engine: resolved at machine time
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::setenv("WAVEPIPE_ENGINE", "fibers", 1);
  try {
    SchedOptions::from_env();
    FAIL() << "tasks backend accepted WAVEPIPE_ENGINE=fibers";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Valid combinations"), std::string::npos) << what;
    EXPECT_NE(what.find("fibers"), std::string::npos) << what;
  }
  // An engine name the comm layer does not know fails with its parser's
  // valid-set message, not the combination message.
  ::setenv("WAVEPIPE_ENGINE", "threads", 1);
  try {
    SchedOptions::from_env();
    FAIL() << "tasks backend accepted WAVEPIPE_ENGINE=threads";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'fibers' or 'parallel'"), std::string::npos) << what;
    EXPECT_NE(what.find("'threads'"), std::string::npos) << what;
  }
  // spmd backend composes with every engine.
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  ::setenv("WAVEPIPE_ENGINE", "fibers", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
}

TEST(SchedOptionsEnv, TasksBackendRefusesStaticPolicy) {
  // The tasks backend runs only the adaptive policies: static + tasks is
  // a configuration-time error whatever the engine, and spmd runs static.
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard eng("WAVEPIPE_ENGINE");
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  ::setenv("WAVEPIPE_SCHED_POLICY", "static", 1);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  for (const char* engine : {"parallel", ""}) {
    ::setenv("WAVEPIPE_ENGINE", engine, 1);
    try {
      SchedOptions::from_env();
      FAIL() << "tasks backend accepted WAVEPIPE_SCHED_POLICY=static";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("WAVEPIPE_SCHED_POLICY=static"), std::string::npos)
          << what;
      EXPECT_NE(what.find("Valid combinations"), std::string::npos) << what;
    }
  }
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kStatic);
  ::setenv("WAVEPIPE_SCHED_POLICY", "fifo", 1);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  EXPECT_EQ(SchedOptions::from_env().policy, SchedPolicy::kFifo);
}

TEST(SchedOptionsEnv, BackendNamesRoundTrip) {
  EXPECT_STREQ(to_string(SchedBackend::kSpmd), "spmd");
  EXPECT_STREQ(to_string(SchedBackend::kTasks), "tasks");
}

TEST(SchedOptionsEnv, PolicyNamesRoundTrip) {
  EXPECT_STREQ(to_string(SchedPolicy::kStatic), "static");
  EXPECT_STREQ(to_string(SchedPolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(SchedPolicy::kDiagonal), "diagonal");
  EXPECT_STREQ(to_string(SchedPolicy::kCriticalPath), "critical");
}

TEST(ScheduledSweep3d, ByteIdenticalAcrossPoliciesAndModes) {
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 1;
  const int p = 4;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  WaveOptions opts;
  opts.block = 2;
  opts.overlap = true;

  Real seq_flux = 0.0, seq_sum = 0.0;
  Machine::run(p, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, grid, comm.rank());
    const Real f = app.sweep_all(comm, opts);
    const Real cs = app.checksum(comm);
    if (comm.rank() == 0) {
      seq_flux = f;
      seq_sum = cs;
    }
  });

  for (const SchedPolicy pol :
       {SchedPolicy::kStatic, SchedPolicy::kFifo, SchedPolicy::kDiagonal,
        SchedPolicy::kCriticalPath}) {
    SchedOptions so;
    so.policy = pol;
    SCOPED_TRACE(std::string("policy=") + to_string(pol));
    Real flux = 0.0, cs = 0.0;
    SchedReport rep;
    Machine::run(p, {}, [&](Communicator& comm) {
      Sweep3d app(cfg, grid, comm.rank());
      // Per-rank report: ranks run concurrently under the parallel engine,
      // so only rank 0 may write the shared locals.
      SchedReport mine;
      const Real f = app.sweep_all_scheduled(comm, opts, so, &mine);
      const Real c = app.checksum(comm);
      if (comm.rank() == 0) {
        flux = f;
        cs = c;
        rep = mine;
      }
    });
    // Bitwise, not approximate: scheduling reorders execution, never
    // arithmetic (accumulation is serialized by explicit edges).
    EXPECT_EQ(flux, seq_flux);
    EXPECT_EQ(cs, seq_sum);
    EXPECT_GT(rep.tasks, 8u);  // at least one task per (octant, angle)
    EXPECT_EQ(rep.policy, pol);
  }
}

TEST(ScheduledSweep3d, OverlapWinsAtLeastTenPercentAtP8) {
  // The acceptance number: 8 octants x 2 angles on 8 ranks under the T3E
  // calibration — overlapping instances must cut >= 10% off the makespan.
  Sweep3dConfig cfg;
  cfg.n = 16;
  cfg.angles = 2;
  const int p = 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  const CostModel cm = t3e_like().costs;
  WaveOptions opts;
  opts.block = 2;
  opts.overlap = true;

  Real seq_flux = 0.0;
  const double seq = Machine::run(p, cm,
                                  [&](Communicator& comm) {
                                    Sweep3d app(cfg, grid, comm.rank());
                                    const Real f = app.sweep_all(comm, opts);
                                    if (comm.rank() == 0) seq_flux = f;
                                  })
                         .vtime_max;

  SchedOptions so;  // adaptive critical-path: the scheduler's default
  Real sched_flux = 0.0;
  SchedReport rep;
  const double sched =
      Machine::run(p, cm,
                   [&](Communicator& comm) {
                     Sweep3d app(cfg, grid, comm.rank());
                     SchedReport mine;  // ranks may run concurrently
                     const Real f = app.sweep_all_scheduled(comm, opts, so,
                                                            &mine);
                     if (comm.rank() == 0) {
                       sched_flux = f;
                       rep = mine;
                     }
                   })
          .vtime_max;

  EXPECT_EQ(sched_flux, seq_flux);
  EXPECT_LE(sched, 0.90 * seq) << "sequential " << seq << " vs scheduled "
                               << sched;
  EXPECT_GT(rep.overtakes, 0u);  // the win came from actual dataflow overlap
}

TEST(ScheduledAltSweep, MatchesPipelinedBitwise) {
  AltSweepConfig cfg;
  cfg.n = 32;
  cfg.iterations = 2;
  for (const int p : {2, 4}) {
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    WaveOptions opts;
    opts.block = 8;
    opts.overlap = true;

    Real seq_res = 0.0, seq_sum = 0.0;
    Machine::run(p, {}, [&](Communicator& comm) {
      AltSweep app(cfg, grid, comm.rank());
      for (int it = 0; it < cfg.iterations; ++it)
        app.iterate(comm, VerticalStrategy::kPipelined, opts);
      const Real r = app.residual_norm(comm);
      const Real cs = app.checksum(comm);
      if (comm.rank() == 0) {
        seq_res = r;
        seq_sum = cs;
      }
    });

    // Adaptive critical-path (the default) and kStatic (the fully
    // schedule-invariant policy).
    for (const SchedPolicy pol :
         {SchedPolicy::kCriticalPath, SchedPolicy::kStatic}) {
      SchedOptions so;
      so.policy = pol;
      SCOPED_TRACE("p=" + std::to_string(p) + " policy=" + to_string(pol));
      Real res = 0.0, cs = 0.0;
      Machine::run(p, {}, [&](Communicator& comm) {
        AltSweep app(cfg, grid, comm.rank());
        app.iterate_scheduled(comm, cfg.iterations, opts, so);
        const Real r = app.residual_norm(comm);
        const Real c = app.checksum(comm);
        if (comm.rank() == 0) {
          res = r;
          cs = c;
        }
      });
      EXPECT_EQ(res, seq_res);
      EXPECT_EQ(cs, seq_sum);
    }
  }
}

TEST(ScheduledAltSweep, IterateDispatchesTheScheduledStrategy) {
  AltSweepConfig cfg;
  cfg.n = 16;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  Real pipelined = 0.0, scheduled = 0.0;
  for (const VerticalStrategy strat :
       {VerticalStrategy::kPipelined, VerticalStrategy::kScheduled}) {
    Machine::run(2, {}, [&](Communicator& comm) {
      AltSweep app(cfg, grid, comm.rank());
      WaveOptions opts;
      opts.block = 4;
      app.iterate(comm, strat, opts);
      const Real r = app.residual_norm(comm);
      if (comm.rank() == 0)
        (strat == VerticalStrategy::kPipelined ? pipelined : scheduled) = r;
    });
  }
  EXPECT_EQ(scheduled, pipelined);
}

TEST(Deadlock, ReportNamesTheStuckTask) {
  // Rank 1 sends three faces; rank 0 consumes them in a chain of kStatic
  // tasks and then waits for a fourth face that is never sent. The fiber
  // engine must detect the all-blocked state and the report must say which
  // *task* is stuck and on which inflow, not just which receive.
  SchedOptions so;
  so.policy = SchedPolicy::kStatic;
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;  // deadlock detection needs the fiber engine
  Machine m(2, t3e_like().costs, TraceConfig{}, eng);
  try {
    m.run([&](Communicator& comm) {
      TaskGraph g;
      TaskId prev = kNoTask;
      for (int k = 0; k < 4; ++k) {
        TaskGraph::Task t;
        if (comm.rank() == 0) {
          t.label = k < 3 ? "rx" + std::to_string(k) : "orphan";
          t.inflows.push_back({1, k < 3 ? k : 99, 1});
        } else if (k < 3) {
          t.label = "tx" + std::to_string(k);
          t.run = [k](TaskContext& ctx) {
            const double v = k;
            ctx.send(0, std::span<const double>(&v, 1), k);
          };
        } else {
          break;
        }
        const TaskId id = g.add(std::move(t));
        g.add_edge_if(prev, id);
        prev = id;
      }
      run_graph(g, comm, so);
    });
    FAIL() << "unmatched kStatic receive did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("task 'orphan'"), std::string::npos)
        << "report should name the stuck task: " << what;
  }
}

}  // namespace
}  // namespace wavepipe

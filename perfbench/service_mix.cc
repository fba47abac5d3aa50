// service-mix: one SweepService on a 4-rank pool, fed by a closed loop that
// keeps 4 jobs outstanding from this (single) generator thread. Jobs are
// drawn uniformly from 45 small keys, every one lowered in setup, so the
// timed loop is all plan-cache hits and each job computes for well under a
// millisecond: what is left is the per-round spawn and join, admission and
// message latency. Auto-b keys run at b=1 under the free cost model, so
// they send many tiny messages; naive keys send a few large faces.
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "common.hh"
#include "service/service.hh"

namespace wpbench {

using namespace wavepipe;

namespace {

constexpr int kPool = 4;
constexpr int kOutstanding = 4;

struct Key {
  const char* app;
  Coord n;
  int p;
  WavePolicy policy;
  Coord b;
};

std::vector<Key> job_keys() {
  struct App {
    const char* name;
    Coord n;
    Coord overlap_b;
  };
  const App apps[] = {{"smith-waterman", 256, 8},
                      {"tomcatv", 128, 8},
                      {"sor", 128, 8},
                      {"sweep3d", 16, 4},
                      {"alt-sweep", 64, 8}};
  std::vector<Key> keys;
  for (const App& a : apps)
    for (int p : {1, 2, 4}) {
      keys.push_back({a.name, a.n, p, WavePolicy::kNaive, 0});
      keys.push_back({a.name, a.n, p, WavePolicy::kBlocking, 0});  // auto b
      keys.push_back({a.name, a.n, p, WavePolicy::kOverlap, a.overlap_b});
    }
  return keys;
}

JobParams params_of(const Key& k) {
  JobParams jp;
  jp.app = k.app;
  jp.n = k.n;
  jp.p = k.p;
  jp.b = k.b;
  jp.iters = 1;
  jp.policy = k.policy;
  return jp;
}

// splitmix64: the job stream is a pure function of the seed.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

struct Setup {
  std::unique_ptr<SweepService> svc;
  std::vector<Key> keys;
  // Per key: the block the service resolved, and the standalone
  // SuiteApp::run value and traffic every job of that key must reproduce.
  std::vector<Coord> block;
  std::vector<Real> value;
  std::vector<CommStats> traffic;
  std::vector<double> cold_submit_s;
};

bool matches(const Setup& st, std::size_t k, const JobBill& bill) {
  return same_bits(bill.value, st.value[k]) && bill.comm_total == st.traffic[k] &&
         bill.block == st.block[k];
}

std::unique_ptr<Setup> make_setup(Report& rep) {
  auto st = std::make_unique<Setup>();
  ServiceConfig cfg;
  cfg.ranks = kPool;
  cfg.engine = parallel_engine();
  st->svc = std::make_unique<SweepService>(cfg);
  st->keys = job_keys();
  const std::size_t nkeys = st->keys.size();
  // A key whose warm-up or standalone run fails keeps a NaN reference, so
  // every later job of that key counts as failed too.
  st->block.assign(nkeys, -1);
  st->value.assign(nkeys, std::numeric_limits<Real>::quiet_NaN());
  st->traffic.assign(nkeys, CommStats{});
  auto failed = [&](std::size_t k, const char* what, const std::exception& e) {
    ++rep.failed;
    rep.fail("service-mix warm-up job of key " + std::to_string(k) + ": " +
             what + " threw: " + e.what());
  };
  // The warm-up: every key once through the service (cold submits).
  std::vector<std::optional<JobId>> ids(nkeys);
  for (std::size_t k = 0; k < nkeys; ++k) {
    ++rep.attempted;
    const std::int64_t t0 = now_ns();
    try {
      ids[k] = st->svc->submit(params_of(st->keys[k]));
      st->cold_submit_s.push_back(seconds_between(t0, now_ns()));
    } catch (const std::exception& e) {
      failed(k, "submit", e);
    }
  }
  std::vector<bool> ran(nkeys, false);
  for (std::size_t k = 0; k < nkeys; ++k) {
    if (!ids[k]) continue;
    try {
      st->block[k] = st->svc->wait(*ids[k]).bill.block;
      ran[k] = true;
    } catch (const std::exception& e) {
      failed(k, "wait", e);
    }
  }
  // The references: each key's standalone SuiteApp::run at the block the
  // service resolved.
  for (std::size_t k = 0; k < nkeys; ++k) {
    if (!ran[k]) continue;
    const Key& key = st->keys[k];
    const SuiteApp* app = nullptr;
    for (const SuiteApp& a : st->svc->registry())
      if (a.name == key.app) app = &a;
    if (!app) throw std::runtime_error(std::string("no app ") + key.app);
    try {
      const RunResult rr = app->run(key.p, CostModel{}, key.n, 1, st->block[k]);
      st->value[k] = *app->last_value;
      st->traffic[k] = rr.total;
    } catch (const std::exception& e) {
      failed(k, "standalone run", e);
      ran[k] = false;
      continue;
    }
    if (!matches(*st, k, st->svc->result(*ids[k]).bill)) {
      ++rep.failed;
      rep.fail("service-mix warm-up job of key " + std::to_string(k) +
               " differs from its standalone run");
    }
  }
  return st;
}

struct LoopStats {
  std::vector<double> latency_s, submit_s, queue_s, auto_block;
  long jobs = 0, rank_sum = 0, rounds = 0;
  double wait_s_in_rounds = 0.0;
  std::uint64_t hits = 0, misses = 0;
  double messages = 0.0, bytes = 0.0;

  void append(const LoopStats& o) {
    for (auto [to, from] : {std::pair{&latency_s, &o.latency_s},
                            std::pair{&submit_s, &o.submit_s},
                            std::pair{&queue_s, &o.queue_s},
                            std::pair{&auto_block, &o.auto_block}})
      to->insert(to->end(), from->begin(), from->end());
    jobs += o.jobs;
    rank_sum += o.rank_sum;
    rounds += o.rounds;
    wait_s_in_rounds += o.wait_s_in_rounds;
    hits += o.hits;
    misses += o.misses;
    messages += o.messages;
    bytes += o.bytes;
  }
};

// The timed run's extras: its windows, and peak RSS read once
// kRssAtJob jobs are done. SweepService keeps every JobResult, so RSS
// grows with jobs served; reading it at a fixed count keeps a faster
// service from reading as a larger one.
constexpr long kRssAtJob = 2000;
struct Timed {
  Windows windows;
  double rss_mb = 0.0;
};

LoopStats closed_loop(Setup& st, Rng& rng, Budget budget, Report& rep,
                      Trace* trace, int pass, Timed* timed = nullptr) {
  struct Out {
    JobId id;
    std::size_t key;
    std::int64_t t_submit;
    int slot;
  };
  LoopStats ls;
  SweepService& svc = *st.svc;
  std::deque<Out> out;
  long next_solve = 0;

  auto submit_one = [&](int slot) {
    const std::size_t k = rng.next() % st.keys.size();
    ++rep.attempted;
    const std::int64_t t0 = now_ns();
    try {
      if (trace) trace->begin("submit", next_solve, pass);
      const JobId id = svc.submit(params_of(st.keys[k]));
      if (trace) trace->end();
      ls.submit_s.push_back(seconds_between(t0, now_ns()));
      out.push_back({id, k, t0, slot});
    } catch (const std::exception& e) {
      if (trace) trace->end();
      ++rep.failed;
      rep.fail(std::string("service-mix submit threw: ") + e.what());
    }
    ++next_solve;
  };

  const int rounds0 = svc.rounds();
  const std::uint64_t hits0 = svc.cache_hits(), misses0 = svc.cache_misses();
  if (timed) timed->windows.start();
  for (int s = 0; s < kOutstanding; ++s) submit_one(s);
  while (!out.empty()) {
    const Out job = out.front();
    out.pop_front();
    const int rounds_before = svc.rounds();
    const std::int64_t t_wait = now_ns();
    try {
      if (trace) trace->begin("wait", static_cast<long>(job.id), pass);
      const JobResult& r = svc.wait(job.id);
      if (trace) trace->end();
      const std::int64_t t_done = now_ns();
      if (svc.rounds() > rounds_before)
        ls.wait_s_in_rounds += seconds_between(t_wait, t_done);
      if (trace) {
        Span s;
        s.name = "job";
        s.t0 = job.t_submit;
        s.t1 = t_done;
        s.track = kJobSlotTrack + job.slot;
        s.solve = static_cast<long>(job.id);
        s.pass = pass;
        trace->add(s);
      }
      if (++ls.jobs == kRssAtJob && timed) timed->rss_mb = peak_rss_mb();
      ls.rank_sum += r.bill.p;
      ls.messages += static_cast<double>(r.bill.comm_total.messages_sent);
      ls.bytes += static_cast<double>(r.bill.comm_total.bytes_sent);
      if (r.bill.block_auto)
        ls.auto_block.push_back(static_cast<double>(r.bill.block));
      if (matches(st, job.key, r.bill)) {
        const double lat = seconds_between(job.t_submit, t_done);
        ls.latency_s.push_back(lat);
        ls.queue_s.push_back(lat - r.bill.wall_seconds);
        if (timed) timed->windows.add(lat);
      } else {
        ++rep.failed;
        rep.fail("service-mix job of key " + std::to_string(job.key) +
                 " differs from its standalone run");
      }
    } catch (const std::exception& e) {
      if (trace) trace->end();
      ++rep.failed;
      rep.fail(std::string("service-mix wait threw: ") + e.what());
    }
    if (budget.more()) submit_one(job.slot);
  }
  if (timed) timed->windows.finish();
  ls.rounds = svc.rounds() - rounds0;
  ls.hits = svc.cache_hits() - hits0;
  ls.misses = svc.cache_misses() - misses0;
  return ls;
}

}  // namespace

void service_mix(const Options& o, bool focus, Report& rep, Trace* trace,
                 int pass) {
  std::unique_ptr<Setup> st;
  const int setup_reps = o.trace || o.smoke ? 1 : 15;
  const std::vector<double> setup_s =
      repeat_setup(setup_reps, st, [&] { return make_setup(rep); });
  Rng rng{o.seed};

  if (!trace) {
    Timed timed;
    start_loop_rss(rep);
    closed_loop(*st, rng, Budget::of(o, o.seconds, 40), rep, nullptr, pass,
                &timed);
    put_end_to_end(rep, timed.windows, setup_s,
                   timed.rss_mb > 0 ? timed.rss_mb : peak_rss_mb());
    return;
  }

  // The layer run: chunks of untraced and traced jobs alternate, so drift
  // in outside load falls on both halves alike.
  constexpr long kChunkJobs = 100;
  LoopStats base, ls;
  Budget chunks = focus ? Budget::of(o, o.seconds * 0.4, 2) : Budget::count(2);
  for (long i = 0; chunks.more(); ++i) {
    const bool spans = i % 2 == 1;
    (spans ? ls : base)
        .append(closed_loop(*st, rng, Budget::count(kChunkJobs), rep,
                            spans ? trace : nullptr, pass));
  }

  const auto jobs = static_cast<double>(ls.jobs);
  const auto rounds = static_cast<double>(ls.rounds);
  rep.put("service.submit_hit_us", median(ls.submit_s) * 1e6, "us");
  rep.put("service.submit_cold_us", median(st->cold_submit_s) * 1e6, "us");
  rep.put("service.round_ms", ls.wait_s_in_rounds / rounds * 1e3, "ms");
  rep.put("service.jobs_per_round", jobs / rounds, "count");
  rep.put("service.rank_occupancy",
          static_cast<double>(ls.rank_sum) / (rounds * kPool), "frac");
  rep.put("service.queue_ms_p50", median(ls.queue_s) * 1e3, "ms");
  rep.put("service.cache_hit_ratio",
          static_cast<double>(ls.hits) / static_cast<double>(ls.hits + ls.misses),
          "frac");
  rep.put("model.auto_block", median(ls.auto_block), "count");
  rep.samples["service.traced_job"] = ls.jobs;
  if (focus) {
    rep.samples["service.untraced_job"] = base.jobs;
    rep.put("comm.messages_per_solve", ls.messages / jobs, "count");
    rep.put("comm.bytes_per_solve", ls.bytes / jobs, "B");
    rep.put("trace.overhead_frac",
            median(ls.latency_s) / median(base.latency_s) - 1.0, "frac");
  }
}

}  // namespace wpbench

// Shared pieces of the wall-clock benchmark binary: the clock, summary
// statistics, the metric sink, the span recorder behind the traced run,
// and the per-workload entry points. Everything here is benchmark code; the
// program under test is reached only through wavepipe's public headers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "comm/machine.hh"

namespace wpbench {

using wavepipe::EngineConfig;
using wavepipe::EngineKind;

/// Monotonic nanoseconds since an arbitrary process-wide origin.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Quantile by linear interpolation between order statistics (q in [0,1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double f = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * f;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// True when two doubles have the same bit pattern (the outputs check).
inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// FNV-1a over the bit patterns of a sequence of doubles, fed one value at
/// a time: an exact, order-fixed digest of a field.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
};

/// The host's CPU accounting, from the aggregate line of /proc/stat. On a
/// VM, `steal` is time the vCPUs were ready to run while the hypervisor ran
/// another guest: wall-clock figures taken while it is high measure the
/// neighbours as much as the program.
struct CpuClock {
  std::uint64_t steal = 0, total = 0;
  /// Zeros when /proc/stat cannot be read (steal then reads as 0).
  static CpuClock now();
};

/// Steal share of all CPU time between two samples (0 when none passed).
inline double steal_share(const CpuClock& a, const CpuClock& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// A timed loop's verified solves, grouped into consecutive windows of at
/// least kWindowSeconds, each with the host's steal share over it. The
/// end-to-end figures come from the quiet windows only (see quiet()), so
/// that bursts of host steal fall out of the figures instead of into them.
class Windows {
 public:
  static constexpr double kWindowSeconds = 0.25;
  /// Steal share up to which a window counts as quiet: none at all. One
  /// 10 ms tick of steal in a 0.25 s window already cost service-mix ~7%
  /// of its throughput on a 4-vCPU VM, since a stalled rank stalls the
  /// wave on every other rank.
  static constexpr double kQuietSteal = 0.0;
  /// When fewer windows than this share are quiet, the quietest this
  /// share of them is kept instead.
  static constexpr double kMinKept = 0.25;

  /// Opens the first window; call right before the loop.
  void start() {
    t0_ = now_ns();
    c0_ = CpuClock::now();
  }
  /// One verified solve of `latency_s`, completed now. Closes the window
  /// once it is kWindowSeconds old.
  void add(double latency_s) {
    cur_.latency_s.push_back(latency_s);
    if (seconds_between(t0_, now_ns()) >= kWindowSeconds) close();
  }
  /// Closes the last window; call right after the loop.
  void finish() {
    if (!cur_.latency_s.empty()) close();
  }

  /// The solves of the kept windows: every quiet one, or the quietest
  /// kMinKept of all when too few are quiet.
  struct Selection {
    std::vector<double> latency_s;
    double seconds = 0.0;
    double steal_all = 0.0, steal_kept = 0.0;  // time-weighted shares
    long windows = 0, kept = 0;
  };
  Selection quiet() const;

 private:
  struct Window {
    std::vector<double> latency_s;
    double seconds = 0.0;
    double steal = 0.0;
  };
  void close() {
    const std::int64_t t = now_ns();
    const CpuClock c = CpuClock::now();
    cur_.seconds = seconds_between(t0_, t);
    cur_.steal = steal_share(c0_, c);
    done_.push_back(std::move(cur_));
    cur_ = Window{};
    t0_ = t;
    c0_ = c;
  }

  std::vector<Window> done_;
  Window cur_;
  std::int64_t t0_ = 0;
  CpuClock c0_;
};

/// The engine every workload runs on: real threads over SPSC mailboxes.
/// Pinning follows WAVEPIPE_PIN like any other parallel-engine user.
inline EngineConfig parallel_engine() {
  EngineConfig ec = EngineConfig::from_env();
  ec.kind = EngineKind::kParallel;
  return ec;
}

/// Everything one invocation reports. Metrics keep insertion order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  /// False when even the kept windows of the timed loop saw more host
  /// steal than Windows::kQuietSteal: the figures are not comparable.
  bool host_quiet = true;
  std::vector<std::string> notes;
  /// Sample counts behind timing metrics, e.g. {"solve", 27}.
  std::map<std::string, long> samples;

  /// Records a metric. A non-finite value (a ratio over an empty loop,
  /// when every solve failed) is reported as 0 with a note, so the output
  /// stays valid JSON.
  void put(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      notes.push_back(name + " is not finite; reported as 0");
      value = 0.0;
    }
    for (Metric& m : metrics)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics.push_back({name, value, unit});
  }
  /// Marks the run incorrect; the first few reasons are kept as notes.
  void fail(const std::string& why) {
    correct = false;
    if (++fail_notes <= 20) notes.push_back("FAIL: " + why);
  }
  int fail_notes = 0;
};

/// Track of service-mix's outstanding-job slot k: kJobSlotTrack + k.
inline constexpr int kJobSlotTrack = 100;

/// One recorded interval. `track` is a rank (>= 0), the main thread
/// (-1) or a job slot; `parent` indexes the enclosing span in the same
/// Trace or Lane (-1: none).
struct Span {
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int track = -1;
  int parent = -1;
  long solve = -1;
  int pass = 0;
};

/// In-memory span store for the traced run. Rank threads append to their
/// own Lane (no sharing while a Machine::run is live); the main thread
/// records into the Trace's own lane (track -1) and merges the rank lanes
/// after each run has joined.
class Trace {
 public:
  /// One thread's span buffer; begin() returns the span's index.
  struct Lane {
    std::vector<Span> spans;
    std::vector<int> open;
    int track = -1;
    long solve = -1;
    int pass = 0;

    int begin(const char* name) {
      Span s;
      s.name = name;
      s.t0 = now_ns();
      s.track = track;
      s.solve = solve;
      s.pass = pass;
      s.parent = open.empty() ? -1 : open.back();
      spans.push_back(s);
      open.push_back(static_cast<int>(spans.size()) - 1);
      return open.back();
    }
    void end() {
      spans[static_cast<std::size_t>(open.back())].t1 = now_ns();
      open.pop_back();
    }
  };

  /// Lanes for the ranks 0..p-1 of one solve.
  static std::vector<Lane> rank_lanes(int p, long solve, int pass) {
    std::vector<Lane> lanes(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      Lane& l = lanes[static_cast<std::size_t>(r)];
      l.track = r;
      l.solve = solve;
      l.pass = pass;
    }
    return lanes;
  }

  /// Span on the main thread (track -1).
  int begin(const char* name, long solve, int pass) {
    main_.solve = solve;
    main_.pass = pass;
    return main_.begin(name);
  }
  void end() { main_.end(); }
  /// Adds a span with explicit times (for intervals measured elsewhere).
  void add(const Span& s) { main_.spans.push_back(s); }

  /// What a traced Machine::run cost around its rank bodies: from the
  /// run() call to the last rank entering its first span (spawn), and
  /// from the last rank leaving it to run() returning (join).
  struct RunEdges {
    double spawn_s = 0.0, join_s = 0.0;
  };

  /// Appends the rank lanes of one Machine::run, called at `t_call` and
  /// returned at `t_ret`; their top-level spans become children of the
  /// main-thread span `parent`.
  RunEdges merge_run(const std::vector<Lane>& lanes, int parent,
                     std::int64_t t_call, std::int64_t t_ret) {
    std::int64_t last_in = t_call, last_out = t_call;
    for (const Lane& lane : lanes) {
      if (lane.spans.empty()) continue;
      last_in = std::max(last_in, lane.spans.front().t0);
      last_out = std::max(last_out, lane.spans.front().t1);
      const int base = static_cast<int>(main_.spans.size());
      for (Span s : lane.spans) {
        s.parent = s.parent < 0 ? parent : s.parent + base;
        main_.spans.push_back(s);
      }
    }
    return {seconds_between(t_call, last_in), seconds_between(last_out, t_ret)};
  }

  const std::vector<Span>& spans() const { return main_.spans; }

  /// Median over the pass's solves of the slowest rank's `name` span (the
  /// rank that blocks the result), in ms.
  double worst_rank_ms(int pass, const char* name) const {
    std::map<long, double> worst;
    for (const Span& s : spans())
      if (s.pass == pass && s.track >= 0 && std::strcmp(s.name, name) == 0) {
        double& w = worst[s.solve];
        w = std::max(w, seconds_between(s.t0, s.t1));
      }
    std::vector<double> v;
    for (const auto& [id, w] : worst) v.push_back(w);
    return median(v) * 1e3;
  }

  /// Self time of span i: its duration minus what its direct children
  /// cover (children on one track never overlap; children on other tracks
  /// are clipped to the parent and merged as intervals).
  double self_seconds(std::size_t i) const;

  /// Chrome trace JSON: one process per pass, one thread per track.
  void write_chrome(const std::string& path,
                    const std::vector<std::string>& pass_names) const;

 private:
  Lane main_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: a handful of solves per loop instead of a time budget.
  bool smoke = false;
  std::string trace_file;
};

/// Common loop control: run while under the time budget; in smoke mode,
/// exactly `smoke_count` iterations.
struct Budget {
  std::int64_t deadline = 0;
  long smoke_count = -1;
  long done = 0;

  static Budget of(const Options& o, double seconds, long smoke_count) {
    Budget b;
    b.deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    b.smoke_count = o.smoke ? smoke_count : -1;
    return b;
  }
  /// Exactly `n` iterations, whatever the mode.
  static Budget count(long n) {
    Budget b;
    b.smoke_count = n;
    return b;
  }
  bool more() {
    const bool go = smoke_count >= 0 ? done < smoke_count : now_ns() < deadline;
    if (go) ++done;
    return go;
  }
};

// ---- entry points (one file each) ----

/// Layer probes: comm, lang and sched, each through public functions only.
/// Returns lang.scan_ns_per_cell, which the tomcatv pass's kernel-share
/// estimate needs.
double run_probes(Report& rep);

/// Workload passes. `focus` is the workload named on the command line:
/// untraced it produces the end-to-end metrics; traced it also produces
/// the overhead and per-solve counts. Non-focus passes (traced run only)
/// produce their workload's own per-layer metrics from a short pass.
void tomcatv_large(const Options& o, bool focus, Report& rep, Trace* trace,
                   int pass, double scan_ns_per_cell);
void service_mix(const Options& o, bool focus, Report& rep, Trace* trace,
                 int pass);
void sweep3d_sched(const Options& o, bool focus, Report& rep, Trace* trace,
                   int pass);

/// Restarts the process's peak-RSS count (Linux clear_refs "5"), so that
/// peak_rss_mb() reads the peak from now on. Returns false where the
/// kernel refuses; the count then runs from process start.
bool reset_peak_rss();

/// Peak resident memory of this process since the last reset_peak_rss()
/// (or since start), in MB.
double peak_rss_mb();

/// Call right before a timed loop: notes the peak RSS of set-up (which
/// holds benchmark scaffolding such as the p=1 reference), then restarts
/// the count so that peak_rss_mb() covers the loop alone.
void start_loop_rss(Report& rep);

/// Shared end-to-end summary of a closed loop: the timing figures over its
/// quiet windows, the median set-up time and `rss_mb`, the peak RSS of
/// the timed loop.
void put_end_to_end(Report& rep, const Windows& loop,
                    const std::vector<double>& setup_s, double rss_mb);

/// Runs `setup` `reps` times (the last result is kept) and returns the
/// per-rep wall seconds.
template <typename State, typename Fn>
std::vector<double> repeat_setup(int reps, State& state, Fn&& setup) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    state = setup();
    secs.push_back(seconds_between(t0, now_ns()));
  }
  return secs;
}

}  // namespace wpbench

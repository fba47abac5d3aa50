// wpbench: the wall-clock benchmark binary. One process runs one workload
// (so peak RSS is per workload) and prints one JSON line; run.py builds
// this binary, adds the host record and checks the metric set.
//
//   wpbench --workload tomcatv-large|service-mix|sweep3d-sched
//           --seed N --seconds S [--trace 0|1] [--trace-file PATH] [--smoke]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is the separate layer run: the layer probes, a traced pass of
// the named workload (untraced and traced halves, for the overhead), and a
// short traced pass of the other two workloads for their own layers.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>

#include "common.hh"

namespace wpbench {

double Trace::self_seconds(std::size_t i) const {
  const Span& p = spans()[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& s : spans())
    if (s.parent == static_cast<int>(i))
      kids.emplace_back(std::max(s.t0, p.t0), std::min(s.t1, p.t1));
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, hi = p.t0;
  for (auto [a, b] : kids) {
    a = std::max(a, hi);
    if (b > a) {
      covered += b - a;
      hi = b;
    }
  }
  return seconds_between(0, p.t1 - p.t0 - covered);
}

void Trace::write_chrome(const std::string& path,
                         const std::vector<std::string>& pass_names) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const std::int64_t origin = spans().empty() ? 0 : spans().front().t0;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::size_t p = 0; p < pass_names.size(); ++p) {
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", p, pass_names[p].c_str());
    first = false;
  }
  std::map<std::pair<int, int>, std::string> tracks;
  for (const Span& s : spans())
    tracks[{s.pass, s.track}] =
        s.track < 0 ? "main thread"
        : s.track >= kJobSlotTrack
            ? "job slot " + std::to_string(s.track - kJobSlotTrack)
            : "rank " + std::to_string(s.track);
  for (const auto& [key, name] : tracks)
    std::fprintf(f,
                 ",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 key.first, key.second + 1, name.c_str());
  for (const Span& s : spans()) {
    std::fprintf(f,
                 ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"solve\":%ld}}",
                 s.name, s.pass, s.track + 1,
                 static_cast<double>(s.t0 - origin) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, s.solve);
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

CpuClock CpuClock::now() {
  CpuClock c;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (!f) return c;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) c.total += x;
    c.steal = v[7];
  }
  std::fclose(f);
  return c;
}

Windows::Selection Windows::quiet() const {
  std::vector<std::size_t> order(done_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return done_[a].steal < done_[b].steal;
  });
  std::size_t keep = 0;
  while (keep < order.size() && done_[order[keep]].steal <= kQuietSteal) ++keep;
  const auto floor = static_cast<std::size_t>(
      std::ceil(kMinKept * static_cast<double>(order.size())));
  keep = std::max(keep, floor);
  Selection sel;
  sel.windows = static_cast<long>(done_.size());
  sel.kept = static_cast<long>(keep);
  double steal_s_all = 0.0, seconds_all = 0.0, steal_s_kept = 0.0;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Window& w = done_[order[k]];
    steal_s_all += w.steal * w.seconds;
    seconds_all += w.seconds;
    if (k >= keep) continue;
    sel.latency_s.insert(sel.latency_s.end(), w.latency_s.begin(), w.latency_s.end());
    sel.seconds += w.seconds;
    steal_s_kept += w.steal * w.seconds;
  }
  sel.steal_all = seconds_all > 0 ? steal_s_all / seconds_all : 0.0;
  sel.steal_kept = sel.seconds > 0 ? steal_s_kept / sel.seconds : 0.0;
  return sel;
}

void start_loop_rss(Report& rep) {
  std::ostringstream os;
  os.precision(4);
  os << "peak RSS through set-up " << peak_rss_mb() << " MB";
  if (!reset_peak_rss()) os << "; the kernel refused a reset, so peak_rss_mb includes set-up";
  rep.notes.push_back(os.str());
}

void put_end_to_end(Report& rep, const Windows& loop,
                    const std::vector<double>& setup_s, double rss_mb) {
  const Windows::Selection q = loop.quiet();
  const auto n = static_cast<long>(q.latency_s.size());
  rep.put("solves_per_s", static_cast<double>(n) / q.seconds, "1/s");
  rep.put("solve_p50_ms", quantile(q.latency_s, 0.5) * 1e3, "ms");
  rep.put("solve_p90_ms", quantile(q.latency_s, 0.9) * 1e3, "ms");
  rep.put("setup_s", median(setup_s), "s");
  rep.put("peak_rss_mb", rss_mb, "MB");
  rep.samples["solve"] = n;
  rep.samples["setup"] = static_cast<long>(setup_s.size());
  rep.samples["window"] = q.windows;
  rep.samples["window_kept"] = q.kept;
  rep.host_quiet = q.steal_kept <= Windows::kQuietSteal;
  std::ostringstream os;
  os.precision(3);
  os << "host steal " << q.steal_all * 100 << "% over the timed loop; figures from "
     << q.kept << " of " << q.windows << " windows of "
     << Windows::kWindowSeconds << " s (those with steal <= "
     << Windows::kQuietSteal * 100 << "%, or else the quietest "
     << Windows::kMinKept * 100 << "%), whose steal is " << q.steal_kept * 100 << "%";
  rep.notes.push_back(os.str());
  if (n < 100)
    rep.notes.push_back("solve_p90_ms rests on " + std::to_string(n) +
                        " solves: fewer than 10 lie beyond it");
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof line, f))
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

void print_report(const Options& o, const Report& rep) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << json_escape(o.workload) << "\",\"seed\":"
     << o.seed << ",\"trace\":" << (o.trace ? 1 : 0)
     << ",\"correct\":" << (rep.correct && rep.failed == 0 ? "true" : "false")
     << ",\"host_quiet\":" << (rep.host_quiet ? "true" : "false")
     << ",\"attempted\":" << rep.attempted << ",\"failed\":" << rep.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& m : rep.metrics) {
    os << (first ? "" : ",") << "\"" << json_escape(m.name)
       << "\":{\"value\":" << m.value << ",\"unit\":\"" << json_escape(m.unit)
       << "\"}";
    first = false;
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [k, v] : rep.samples) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":" << v;
    first = false;
  }
  os << "},\"notes\":[";
  first = true;
  for (const auto& n : rep.notes) {
    os << (first ? "" : ",") << "\"" << json_escape(n) << "\"";
    first = false;
  }
  os << "],\"build_type\":\"" << WPBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << json_escape(WPBENCH_COMPILER) << "\"";
  if (o.trace) os << ",\"trace_file\":\"" << json_escape(o.trace_file) << "\"";
  os << "}";
  std::cout << os.str() << std::endl;
}

int usage(const char* why) {
  std::cerr << "wpbench: " << why
            << "\nusage: wpbench --workload tomcatv-large|service-mix|"
               "sweep3d-sched --seed N --seconds S [--trace 0|1] "
               "[--trace-file PATH] [--smoke]\n";
  return 2;
}

// The summary the traced run prints: per span name, the median total and
// self time over every span of that name in the focus pass.
void note_span_summary(const Trace& trace, Report& rep) {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  const auto& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].pass != 0) continue;
    auto& [tot, self] = by_name[spans[i].name];
    tot.push_back(seconds_between(spans[i].t0, spans[i].t1));
    self.push_back(trace.self_seconds(i));
  }
  for (const auto& [name, v] : by_name) {
    std::ostringstream os;
    os.precision(4);
    os << "span " << name << ": n=" << v.first.size()
       << " median_ms=" << median(v.first) * 1e3
       << " median_self_ms=" << median(v.second) * 1e3;
    rep.notes.push_back(os.str());
  }
}

}  // namespace

}  // namespace wpbench

int main(int argc, char** argv) {
  using namespace wpbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = next();
      else if (a == "--seed") o.seed = std::stoull(next());
      else if (a == "--seconds") o.seconds = std::stod(next());
      else if (a == "--trace") o.trace = next() != "0";
      else if (a == "--trace-file") o.trace_file = next();
      else if (a == "--smoke") o.smoke = true;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (o.workload != "tomcatv-large" && o.workload != "service-mix" &&
      o.workload != "sweep3d-sched")
    return usage("unknown workload");
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (wavepipe::EngineConfig::from_env().kind != EngineKind::kParallel)
    return usage("set WAVEPIPE_ENGINE=parallel (run.py does)");

  Report rep;
  try {
    if (!o.trace) {
      if (o.workload == "tomcatv-large")
        tomcatv_large(o, true, rep, nullptr, 0, 0.0);
      else if (o.workload == "service-mix")
        service_mix(o, true, rep, nullptr, 0);
      else
        sweep3d_sched(o, true, rep, nullptr, 0);
    } else {
      // Pass 0 is the named workload; passes 1-2 the others, briefly.
      Trace trace;
      const double scan_ns = run_probes(rep);
      std::vector<std::string> passes{o.workload};
      for (const char* w : {"tomcatv-large", "service-mix", "sweep3d-sched"})
        if (o.workload != w) passes.push_back(w);
      for (std::size_t p = 0; p < passes.size(); ++p) {
        const bool focus = p == 0;
        const int pass = static_cast<int>(p);
        if (passes[p] == "tomcatv-large")
          tomcatv_large(o, focus, rep, &trace, pass, scan_ns);
        else if (passes[p] == "service-mix")
          service_mix(o, focus, rep, &trace, pass);
        else
          sweep3d_sched(o, focus, rep, &trace, pass);
      }
      note_span_summary(trace, rep);
      if (!o.trace_file.empty()) trace.write_chrome(o.trace_file, passes);
    }
  } catch (const std::exception& e) {
    std::cerr << "wpbench: " << e.what() << "\n";
    return 1;
  }

  if (!o.trace) {
    rep.put("error_rate",
            rep.attempted > 0 ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 1.0,
            "frac");
  }
  print_report(o, rep);
  return 0;
}

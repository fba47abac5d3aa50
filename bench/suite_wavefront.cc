// The wavefront benchmark suite (§6 future work): naive vs pipelined
// execution of all six applications under the calibrated machine model,
// with traffic statistics showing the block-size tradeoff. Wall-clock
// seconds of each run are printed next to the virtual times (they measure
// host simulation effort here; bench/parallel_wallclock measures real
// parallel elapsed time under WAVEPIPE_ENGINE=parallel).
//
// On exit the binary always writes BENCH_suite.json — per-app pipelined
// speedup and the chosen block size, machine-readable for CI and for the
// EXPERIMENTS.md tables. Virtual times are deterministic, so the report
// is exactly reproducible.
#include <array>
#include <fstream>
#include <iostream>
#include <vector>

#include "apps/suite.hh"
#include "bench_util.hh"

using namespace wavepipe;

namespace {

struct SuiteRow {
  std::string app;
  std::array<int, 2> grid{1, 1};
  Coord n = 0;
  Coord block = 0;
  double vtime_naive = 0.0;
  double vtime_pipelined = 0.0;
  double speedup() const { return vtime_naive / vtime_pipelined; }
};

void write_suite_json(const std::string& path, const MachinePreset& machine,
                      int p, int iterations,
                      const std::vector<SuiteRow>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"machine\": \"" << machine.name << "\", \"p\": " << p
     << ", \"iterations\": " << iterations << ",\n  \"apps\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SuiteRow& r = rows[i];
    os << "    {\"app\": \"" << r.app << "\", \"grid\": [" << r.grid[0]
       << ", " << r.grid[1] << "], \"n\": " << r.n
       << ", \"block\": " << r.block << ", \"vtime_naive\": " << r.vtime_naive
       << ", \"vtime_pipelined\": " << r.vtime_pipelined
       << ", \"speedup_pipelined\": " << r.speedup() << "}"
       << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int p = static_cast<int>(opts.get_int("p", 8));
  const int iterations = static_cast<int>(opts.get_int("iterations", 1));
  const MachinePreset machine = t3e_like();

  Table t("Wavefront suite: naive vs pipelined (" + std::string(machine.name) +
          ", p=" + std::to_string(p) + ")");
  t.set_header({"app", "grid", "n", "b", "naive vtime", "pipelined vtime", "speedup",
                "naive s", "pipelined s", "naive msgs", "pipelined msgs",
                "pipelined recv elems", "pipelined recv MB"});

  std::vector<SuiteRow> rows;
  const auto suite = wavefront_suite();
  for (const auto& app : suite) {
    const Coord n = app.default_n;
    const std::array<int, 2> grid =
        app.grid_shape ? app.grid_shape(p) : std::array<int, 2>{p, 1};
    Coord block;
    if (app.name == "sweep3d") {
      block = 6;
    } else if (grid[1] > 1) {
      // 2D frontier: the closed-form block model covers the 1D chain only,
      // so sweep a few candidates under the (deterministic) machine model
      // and keep the best. Candidates bracket the local tile extents.
      block = 0;
      double best = 0.0;
      for (const Coord b : {Coord{8}, Coord{12}, Coord{16}, Coord{23},
                            Coord{32}, Coord{48}, Coord{64}}) {
        const auto r = app.run(p, machine.costs, n, 1, b);
        if (block == 0 || r.vtime_max < best) {
          best = r.vtime_max;
          block = b;
        }
      }
    } else {
      block = select_block_static(machine.costs, n - 2, p);
    }
    const auto naive = app.run(p, machine.costs, n, iterations, 0);
    const double naive_value = *app.last_value;
    const auto pipe = app.run(p, machine.costs, n, iterations, block);
    if (std::abs(*app.last_value - naive_value) >
        1e-9 * (std::abs(naive_value) + 1.0)) {
      std::cerr << "value mismatch for " << app.name << "\n";
      return 1;
    }
    rows.push_back(
        {app.name, grid, n, block, naive.vtime_max, pipe.vtime_max});
    t.add_row({app.name,
               std::to_string(grid[0]) + "x" + std::to_string(grid[1]),
               std::to_string(n), std::to_string(block),
               fmt(naive.vtime_max, 6), fmt(pipe.vtime_max, 6),
               fmt_speedup(naive.vtime_max / pipe.vtime_max),
               fmt(naive.wall_seconds, 4), fmt(pipe.wall_seconds, 4),
               std::to_string(naive.total.messages_sent),
               std::to_string(pipe.total.messages_sent),
               std::to_string(pipe.total.elements_received),
               fmt(static_cast<double>(pipe.total.bytes_received) / 1e6, 2)});
  }
  for (const auto& app : suite)
    t.add_note(app.name + ": " + app.wavefront_note);
  t.print(std::cout);
  write_suite_json("BENCH_suite.json", machine, p, iterations, rows);
  return 0;
}

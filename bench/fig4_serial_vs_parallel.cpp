// Figure 4: time to run the mixer search serially vs in parallel as the
// QAOA depth p grows from 1 to 4.
//
// Paper setup: 10-node Erdős–Rényi graphs of varying connectivity, the
// 5-gate rotation alphabet, gate sequences of length k = 1..4, each
// candidate trained 200 COBYLA steps; results averaged over 5 runs. The
// parallel search fans candidates out over a process pool.
// Expected shape: serial time grows superlinearly with p; parallel cuts it
// by well over 50% at the larger depths.
//
// Both series submit the same candidate batch to a fresh search::EvalService
// on the compiled statevector path: serial is 1 x 1 (outer workers x inner
// simulator threads), parallel is the two-level split (hw / --inner) x
// --inner. `speedup` is serial ÷ parallel. The series land in section "fig4"
// of BENCH_search.json.
//
// Flags: bench_util standards plus --pmax (4) --inner (2)
#include <thread>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 4", "serial vs parallel search time vs depth p", cfg);

  const std::size_t combos = cfg.combos_or(/*quick=*/16, /*full=*/780);
  const std::size_t runs = cfg.runs_or(/*quick=*/2, /*full=*/5);
  const std::size_t p_max = static_cast<std::size_t>(cli.get_int("pmax", 4));
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("inner", 2)));
  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());

  SessionConfig serial;
  serial.backend = cfg.backend();
  serial.training_evals = 200;
  SessionConfig parallel = serial;
  parallel.workers = std::max<std::size_t>(1, hw / inner);
  parallel.inner_workers = inner;

  const auto candidates = bench::candidate_subsample(
      search::GateAlphabet::standard(), 4, combos, cfg.seed);
  std::printf("candidates/depth=%zu runs=%zu parallel=%zux%zu "
              "(outer x inner)\n\n",
              candidates.size(), runs, parallel.workers, inner);

  Rng rng(cfg.seed);
  std::vector<std::vector<double>> csv_rows;
  Series serial_series{"serial", {}, {}};
  Series parallel_series{"parallel", {}, {}};
  json::Value points = json::Value::array();

  std::printf("%-4s %-12s %-12s %-10s\n", "p", "serial (s)", "parallel (s)",
              "speedup");
  for (std::size_t p = 1; p <= p_max; ++p) {
    std::vector<double> serial_times, parallel_times;
    for (std::size_t run = 0; run < runs; ++run) {
      const graph::Graph g = graph::erdos_renyi_connected(
          10, rng.uniform(0.3, 0.7), rng);
      serial_times.push_back(
          bench::timed_service_sweep(serial, g, candidates, p));
      parallel_times.push_back(
          bench::timed_service_sweep(parallel, g, candidates, p));
    }
    const double s = mean(serial_times), q = mean(parallel_times);
    std::printf("%-4zu %-12.3f %-12.3f %.2fx\n", p, s, q, s / q);
    serial_series.x.push_back(static_cast<double>(p));
    serial_series.y.push_back(s);
    parallel_series.x.push_back(static_cast<double>(p));
    parallel_series.y.push_back(q);
    csv_rows.push_back({static_cast<double>(p), s, q});

    json::Value point = json::Value::object();
    point.set("p", p);
    point.set("serial", bench::search_point(serial, candidates.size(), s));
    point.set("parallel", bench::search_point(parallel, candidates.size(), q));
    point.set("speedup", s / q);
    points.push_back(std::move(point));
  }

  AsciiPlot plot("Fig 4: time to simulate vs p", "p", "seconds");
  plot.add(serial_series);
  plot.add(parallel_series);
  std::printf("\n%s\n", plot.render().c_str());
  bench::maybe_csv(cfg.csv_path, {"p", "serial_s", "parallel_s"}, csv_rows);

  json::Value workload = json::Value::object();
  workload.set("graph", "erdos_renyi_connected(10, U(0.3, 0.7)), one per run");
  workload.set("engine", backend_name(cfg.backend()));
  workload.set("candidates", candidates.size());
  workload.set("training_evals", serial.training_evals);
  workload.set("runs", runs);
  json::Value section = json::Value::object();
  section.set("workload", std::move(workload));
  section.set("points", std::move(points));
  bench::update_bench_json(bench::kSearchBenchJson, "fig4", std::move(section));
  return 0;
}

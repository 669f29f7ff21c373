// Figure 5: time to run the p=2 search for one graph as the worker count
// sweeps 8..64 in steps of 8, against the serial baseline (dashed line in
// the paper).
//
// Expected shape: parallel time is below the serial line everywhere and
// decreases with the worker count until it saturates (beyond the physical
// core count extra workers stop helping — our host has fewer than 64 cores,
// which the output records, mirroring the paper's flattening tail).
//
// Every point submits the same candidate batch to a fresh
// search::EvalService on the compiled statevector path. The serial baseline
// is 1 x 1 (outer workers x inner simulator threads); each sweep point
// splits its core budget two-level as (cores / --inner) x --inner. The
// series land in section "fig5" of BENCH_search.json.
//
// Flags: bench_util standards plus --p (2) --inner (2)
#include <thread>

#include "bench_util.hpp"
#include "common/ascii_plot.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 5", "search time at p=2 vs available workers", cfg);

  const std::size_t combos = cfg.combos_or(/*quick=*/32, /*full=*/780);
  const std::size_t p = static_cast<std::size_t>(cli.get_int("p", 2));
  const std::size_t inner =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("inner", 2)));
  const auto candidates = bench::candidate_subsample(
      search::GateAlphabet::standard(), 4, combos, cfg.seed);

  Rng rng(cfg.seed);
  const graph::Graph g = graph::erdos_renyi_connected(10, 0.5, rng);
  std::printf("graph=%s candidates=%zu p=%zu physical cores=%u inner=%zu\n\n",
              g.to_string().c_str(), candidates.size(), p,
              std::thread::hardware_concurrency(), inner);

  SessionConfig serial;
  serial.backend = cfg.backend();
  serial.training_evals = 200;
  const double t_serial = bench::timed_service_sweep(serial, g, candidates, p);
  std::printf("serial baseline: %.3fs (dashed line)\n\n", t_serial);
  std::printf("%-8s %-14s %-16s %-12s\n", "cores", "outer x inner",
              "two-level (s)", "vs serial");

  Series two_level_series{"two-level", {}, {}};
  Series serial_series{"serial (baseline)", {}, {}};
  std::vector<std::vector<double>> csv_rows;
  json::Value points = json::Value::array();
  for (std::size_t cores = 8; cores <= 64; cores += 8) {
    // Same core budget split two-level: candidates x simulator threads.
    SessionConfig split = serial;
    split.workers = std::max<std::size_t>(1, cores / inner);
    split.inner_workers = inner;
    const double t = bench::timed_service_sweep(split, g, candidates, p);
    std::printf("%-8zu %3zu x %-8zu %-16.3f %.2fx\n", cores, split.workers,
                inner, t, t_serial / t);
    two_level_series.x.push_back(static_cast<double>(cores));
    two_level_series.y.push_back(t);
    serial_series.x.push_back(static_cast<double>(cores));
    serial_series.y.push_back(t_serial);
    csv_rows.push_back({static_cast<double>(cores), t, t_serial});

    json::Value point = bench::search_point(split, candidates.size(), t);
    point.set("cores", cores);
    points.push_back(std::move(point));
  }

  AsciiPlot plot("Fig 5: time to simulate vs cores (p=2)", "cores", "seconds");
  plot.add(two_level_series);
  plot.add(serial_series);
  std::printf("\n%s\n", plot.render().c_str());
  bench::maybe_csv(cfg.csv_path, {"cores", "two_level_s", "serial_s"},
                   csv_rows);

  json::Value workload = json::Value::object();
  workload.set("graph", g.to_string());
  workload.set("engine", backend_name(cfg.backend()));
  workload.set("candidates", candidates.size());
  workload.set("p", p);
  workload.set("training_evals", serial.training_evals);
  workload.set("physical_cores",
               static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json::Value section = json::Value::object();
  section.set("workload", std::move(workload));
  section.set("serial",
              bench::search_point(serial, candidates.size(), t_serial));
  section.set("points", std::move(points));
  bench::update_bench_json(bench::kSearchBenchJson, "fig5", std::move(section));
  return 0;
}

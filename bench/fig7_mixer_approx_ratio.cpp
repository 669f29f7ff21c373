// Figure 7: approximation ratios of the four finalist mixers at p=1 on
// 10-node random 4-regular graphs: ('ry','p'), ('rx','h'), ('h','p'),
// ('rx','ry').
//
// Expected shape: all four reach high ratios, with ('rx','ry') best.
// r is the Eq. 3 sampled-best-cut ratio (the quantity the paper plots).
// Every (graph, mixer) evaluation is one submission to a shared
// search::EvalService.
#include "bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "common/stats.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 7", "finalist mixer approximation ratios at p=1", cfg);

  const std::size_t num_graphs = cfg.graphs_or(/*quick=*/10, /*full=*/20);
  Rng rng(cfg.seed);
  const auto graphs = graph::regular_dataset(num_graphs, 10, 4, rng);

  const std::vector<qaoa::MixerSpec> finalists = {
      qaoa::MixerSpec::parse("ry,p"), qaoa::MixerSpec::parse("rx,h"),
      qaoa::MixerSpec::parse("h,p"), qaoa::MixerSpec::parse("rx,ry")};

  SessionConfig session;
  session.backend = cfg.backend();
  session.training_evals = 200;
  session.workers = 0;  // all cores
  session.evaluator_cache = num_graphs;  // one shared evaluator per graph
  search::EvalService service(session);

  std::vector<std::pair<std::string, double>> bars;
  std::vector<std::vector<double>> csv_rows;
  std::printf("graphs=%zu, p=1, 200 COBYLA steps each\n\n", num_graphs);
  std::printf("%-14s %-12s %-12s %-12s\n", "mixer", "mean r", "std r",
              "mean r_energy");
  for (std::size_t m = 0; m < finalists.size(); ++m) {
    std::vector<search::EvalTicket> tickets;
    for (const auto& g : graphs)
      tickets.push_back(service.submit(g, finalists[m], 1));
    const auto results = service.collect(tickets);
    std::vector<double> sampled, energy_ratio;
    for (const auto& r : results) {
      sampled.push_back(r.sampled_ratio);
      energy_ratio.push_back(r.ratio);
    }
    std::printf("%-14s %-12.4f %-12.4f %-12.4f\n",
                finalists[m].to_string().c_str(), mean(sampled),
                stddev(sampled), mean(energy_ratio));
    bars.emplace_back(finalists[m].to_string(), mean(sampled));
    csv_rows.push_back({static_cast<double>(m), mean(sampled),
                        stddev(sampled), mean(energy_ratio)});
  }

  std::printf("\n%s\n",
              ascii_barh("Fig 7: approx ratio, p=1 (4-regular graphs)", bars,
                         48, 0.0, 1.0)
                  .c_str());
  bench::maybe_csv(cfg.csv_path,
                   {"mixer_index", "mean_r", "std_r", "mean_r_energy"},
                   csv_rows);
  return 0;
}

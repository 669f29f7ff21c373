// Figure 6: the best-performing searched mixer circuit for max-cut QAOA.
//
// Protocol (paper §3.2): run the search on the Erdős–Rényi profiling
// workload, then evaluate the discovered mixer-layer combinations on a
// SEPARATE dataset of 10-node random 4-regular graphs; the best performer is
// drawn as the figure. The paper's winner is (rx, ry) — RX(2β)·RY(2β) with
// one shared β. Our output prints the full head of the ranking so the
// position of (rx, ry) is visible even when an RX-family variant ties or
// edges it.
//
// Both stages run on one shared search::EvalService: stage 1 as
// run_exhaustive on it, stage 2 as one submission per evaluation graph.
#include <algorithm>
#include <set>

#include "bench_util.hpp"
#include "common/stats.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto cfg = bench::BenchConfig::from_cli(cli);
  bench::banner("Figure 6", "best discovered mixer circuit", cfg);

  const std::size_t k_max = cfg.full ? 4 : 2;
  const std::size_t num_eval_graphs = cfg.graphs_or(/*quick=*/8, /*full=*/20);

  SessionConfig session;
  session.backend = cfg.backend();
  session.training_evals = 200;
  session.workers = 0;  // all cores
  // One shared evaluator per graph: the search graph plus the eval dataset.
  session.evaluator_cache = num_eval_graphs + 1;
  search::EvalService service(session);

  // Stage 1 — search on the ER profiling workload.
  Rng rng(cfg.seed);
  const graph::Graph search_graph = graph::erdos_renyi_connected(10, 0.5, rng);
  search::SearchConfig scfg;
  scfg.p_max = 1;
  const auto report = search::SearchEngine(scfg).run_exhaustive(
      service, search_graph, k_max);
  std::printf("stage 1: searched %zu candidates on %s in %.1fs\n",
              report.num_candidates, search_graph.to_string().c_str(),
              report.seconds);

  // Stage 2 — shortlist the strongest distinct mixers (plus the paper's
  // winner for reference) and score them on the 4-regular eval dataset.
  auto ranked = report.evaluated;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.energy > b.energy; });
  std::vector<qaoa::MixerSpec> finalists;
  std::set<std::string> seen;
  for (const auto& c : ranked) {
    if (finalists.size() >= 6) break;
    if (seen.insert(c.mixer.to_string()).second) finalists.push_back(c.mixer);
  }
  if (seen.insert(qaoa::MixerSpec::qnas().to_string()).second)
    finalists.push_back(qaoa::MixerSpec::qnas());

  const auto eval_graphs = graph::regular_dataset(num_eval_graphs, 10, 4, rng);
  struct Scored {
    qaoa::MixerSpec mixer;
    double mean_sampled = 0.0;
    double mean_energy_ratio = 0.0;
  };
  std::vector<Scored> scored;
  for (const auto& mixer : finalists) {
    std::vector<search::EvalTicket> tickets;
    for (const auto& g : eval_graphs)
      tickets.push_back(service.submit(g, mixer, 1));
    const auto results = service.collect(tickets);
    std::vector<double> sampled, energy;
    for (const auto& r : results) {
      sampled.push_back(r.sampled_ratio);
      energy.push_back(r.ratio);
    }
    scored.push_back({mixer, mean(sampled), mean(energy)});
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.mean_sampled != b.mean_sampled) return a.mean_sampled > b.mean_sampled;
    return a.mean_energy_ratio > b.mean_energy_ratio;
  });

  std::printf("\nstage 2: finalists on %zu random 4-regular graphs (p=1):\n\n",
              eval_graphs.size());
  std::printf("%-24s %-14s %-14s\n", "mixer", "mean r (Eq.3)", "mean r_energy");
  for (const auto& s : scored)
    std::printf("%-24s %-14.4f %-14.4f\n", s.mixer.to_string().c_str(),
                s.mean_sampled, s.mean_energy_ratio);

  const auto& winner = scored.front().mixer;
  std::printf("\nbest mixer layer %s (paper Fig. 6 reports ('rx', 'ry')):\n\n%s\n",
              winner.to_string().c_str(),
              circuit::draw(qaoa::build_mixer_circuit(10, winner)).c_str());
  if (!(winner == qaoa::MixerSpec::qnas()))
    std::printf("note: ('rx', 'ry') placed in the leading group.\n");
  return 0;
}

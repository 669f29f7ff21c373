// Ablation: discovered vs baseline mixer under NISQ-style noise.
//
// The paper's motivation is the NISQ setting; a mixer that wins noiselessly
// should hold its edge under depolarizing-style gate errors (its RX·RY tower
// adds only single-qubit gates, which carry the lower error rate). Trains
// both mixers noiselessly, then rescoring the trained circuits across noise
// strengths with trajectory averaging.
#include <cstdio>
#include <numeric>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "optim/cobyla.hpp"
#include "parallel/parallel_for.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/train.hpp"
#include "sim/noise.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto num_graphs = static_cast<std::size_t>(cli.get_int("graphs", 5));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 1));
  const auto trajectories =
      static_cast<std::size_t>(cli.get_int("trajectories", 64));

  Rng rng(29);
  const auto graphs = graph::regular_dataset(num_graphs, 10, 4, rng);

  const std::vector<std::pair<std::string, qaoa::MixerSpec>> mixers = {
      {"baseline", qaoa::MixerSpec::baseline()},
      {"qnas", qaoa::MixerSpec::qnas()}};
  const double noise_levels[] = {0.0, 0.001, 0.005, 0.02};

  std::printf("noise ablation: %zu graphs, p=%zu, %zu trajectories\n",
              num_graphs, p, trajectories);
  std::printf("(two-qubit error rate = 5x the listed single-qubit rate)\n\n");
  std::printf("%-10s %-10s %-12s\n", "p1 rate", "mixer", "mean r");

  std::vector<std::size_t> idx(graphs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (const double p1 : noise_levels) {
    for (const auto& [name, mixer] : mixers) {
      const auto ratios = parallel::parallel_map(
          idx, [&, &mixer = mixer](std::size_t i) {
            const auto& g = graphs[i];
            const auto ansatz = qaoa::build_qaoa_circuit(g, p, mixer);
            const qaoa::EnergyEvaluator ev(g, {});
            optim::CobylaConfig cc;
            cc.max_evals = 200;
            const auto trained = qaoa::train_qaoa(ansatz, ev, optim::Cobyla(cc));
            sim::NoiseModel noise;
            noise.p1 = p1;
            noise.p2 = 5.0 * p1;
            Rng nrng(1000 + i);
            const double noisy = sim::noisy_cut_expectation(
                ansatz, trained.theta, g, noise, trajectories, nrng);
            return noisy / graph::maxcut_exact(g).value;
          });
      std::printf("%-10.3f %-10s %-12.4f\n", p1, name.c_str(), mean(ratios));
    }
  }
  return 0;
}

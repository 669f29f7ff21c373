// Ablation: classical optimizer choice at a fixed 200-evaluation budget.
//
// The paper trains every candidate with COBYLA x200. This bench trains the
// same (graph, mixer, p) candidates with COBYLA, Nelder–Mead, SPSA, and a
// p=1-only grid search, and reports the mean trained energy ratio.
// Expected: COBYLA and Nelder–Mead are comparable and ahead of SPSA at this
// budget; the 2-D grid upper-bounds what p=1 training can reach.
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "optim/cobyla.hpp"
#include "optim/grid_search.hpp"
#include "optim/nelder_mead.hpp"
#include "optim/spsa.hpp"
#include "parallel/parallel_for.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/train.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto num_graphs = static_cast<std::size_t>(cli.get_int("graphs", 6));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 1));
  const std::size_t budget = 200;

  Rng rng(17);
  const auto graphs = graph::regular_dataset(num_graphs, 10, 4, rng);

  struct Entry {
    std::string name;
    std::unique_ptr<optim::Optimizer> optimizer;
  };
  std::vector<Entry> optimizers;
  {
    optim::CobylaConfig c;
    c.max_evals = budget;
    optimizers.push_back({"cobyla", std::make_unique<optim::Cobyla>(c)});
    optim::NelderMeadConfig nm;
    nm.max_evals = budget;
    optimizers.push_back(
        {"nelder-mead", std::make_unique<optim::NelderMead>(nm)});
    optim::SpsaConfig sp;
    sp.max_evals = budget;
    optimizers.push_back({"spsa", std::make_unique<optim::Spsa>(sp)});
    if (p == 1) {
      optim::GridSearchConfig gs;
      gs.points_per_axis = 14;  // 196 evals ≈ the same budget
      optimizers.push_back({"grid(p1)", std::make_unique<optim::GridSearch>(gs)});
    }
  }

  std::printf("optimizer ablation: %zu graphs, p=%zu, %zu-eval budget\n\n",
              num_graphs, p, budget);
  std::printf("%-12s %-10s %-10s %-10s\n", "optimizer", "mean r", "std r",
              "mean evals");

  std::vector<std::size_t> idx(graphs.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (const auto& entry : optimizers) {
    struct Row { double ratio; double evals; };
    const auto rows = parallel::parallel_map(
        idx, [&](std::size_t i) {
          const auto& g = graphs[i];
          const auto ansatz =
              qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
          const qaoa::EnergyEvaluator ev(g, {});
          const auto r = qaoa::train_qaoa(ansatz, ev, *entry.optimizer);
          const double cmax = graph::maxcut_exact(g).value;
          return Row{r.energy / cmax, static_cast<double>(r.evaluations)};
        });
    std::vector<double> ratios, evals;
    for (const auto& r : rows) {
      ratios.push_back(r.ratio);
      evals.push_back(r.evals);
    }
    std::printf("%-12s %-10.4f %-10.4f %-10.0f\n", entry.name.c_str(),
                mean(ratios), stddev(ratios), mean(evals));
  }
  return 0;
}

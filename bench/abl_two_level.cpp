// Ablation: two-level parallelism split (Fig. 2's scheme on one node).
//
// With a fixed core budget C, split it as outer (concurrent candidates) x
// inner (threads per candidate's per-edge TN contractions) and time the same
// candidate batch under every split. Each split is one search::EvalService
// session (workers = outer, inner_workers = C / outer). Expected:
// outer-heavy splits win when candidates outnumber cores (the paper's
// process-pool regime); inner parallelism only pays once outer width
// saturates the candidate count. The rows land in section "two_level" of
// BENCH_search.json.
//
// Flags: --budget C (min(24, cores)) --candidates N (16) --p P (1)
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench_util.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto budget = static_cast<std::size_t>(cli.get_int(
      "budget", std::min<std::size_t>(24, std::thread::hardware_concurrency())));
  const auto num_candidates =
      static_cast<std::size_t>(cli.get_int("candidates", 16));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 1));

  Rng rng(13);
  const auto g = graph::random_regular(10, 4, rng);
  const auto space = search::all_combinations(
      search::GateAlphabet::standard(), 2, search::CombinationMode::Product);
  std::vector<qaoa::MixerSpec> candidates;
  for (std::size_t i = 0; i < num_candidates; ++i)
    candidates.push_back(space[i % space.size()]);

  std::printf("two-level split ablation: %zu candidates, core budget %zu, "
              "p=%zu, TN engine\n\n",
              num_candidates, budget, p);
  std::printf("%-14s %-12s\n", "outer x inner", "time (s)");

  SessionConfig session;
  session.backend = BackendChoice::TensorNetwork;
  session.training_evals = 100;
  json::Value points = json::Value::array();
  std::vector<std::size_t> visited;
  for (std::size_t outer : {budget, budget / 2, budget / 4, budget / 8,
                            std::size_t{1}}) {
    if (outer == 0 || budget / outer == 0) continue;
    // Small budgets map several sweep entries to one split; time it once.
    if (std::find(visited.begin(), visited.end(), outer) != visited.end())
      continue;
    visited.push_back(outer);
    session.workers = outer;
    session.inner_workers = budget / outer;
    const double t = bench::timed_service_sweep(session, g, candidates, p);
    std::printf("%3zu x %-8zu %-12.3f\n", outer, session.inner_workers, t);
    points.push_back(bench::search_point(session, candidates.size(), t));
  }

  json::Value workload = json::Value::object();
  workload.set("graph", g.to_string());
  workload.set("engine", backend_name(session.backend));
  workload.set("candidates", candidates.size());
  workload.set("p", p);
  workload.set("training_evals", session.training_evals);
  workload.set("budget", budget);
  json::Value section = json::Value::object();
  section.set("workload", std::move(workload));
  section.set("points", std::move(points));
  bench::update_bench_json(bench::kSearchBenchJson, "two_level",
                           std::move(section));
  return 0;
}

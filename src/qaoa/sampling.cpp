#include "qaoa/sampling.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "sim/sim_program.hpp"
#include "sim/state_utils.hpp"

namespace qarch::qaoa {

namespace {

/// Mean over `trials` consecutive chunks of `shots` samples of the best
/// value in each chunk. Each chunk's best starts from its first sample, so
/// all-negative values (e.g. negative edge weights) are not clipped to 0.
template <class Value>
double mean_best_of_trials(const std::vector<std::size_t>& samples,
                           std::size_t shots, std::size_t trials,
                           const Value& value) {
  double total = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::size_t* batch = samples.data() + t * shots;
    double best = value(batch[0]);
    for (std::size_t s = 1; s < shots; ++s)
      best = std::max(best, value(batch[s]));
    total += best;
  }
  return total / static_cast<double>(trials);
}

}  // namespace

double cut_of_basis_state(const graph::Graph& g, std::size_t basis_index) {
  double cut = 0.0;
  for (const auto& e : g.edges()) {
    const bool bu = (basis_index >> e.u) & 1ULL;
    const bool bv = (basis_index >> e.v) & 1ULL;
    if (bu != bv) cut += e.weight;
  }
  return cut;
}

double expected_best_cut(const sim::State& state, const graph::Graph& g,
                         std::size_t shots, std::size_t trials, Rng& rng) {
  QARCH_REQUIRE(shots >= 1, "need at least one shot");
  QARCH_REQUIRE(trials >= 1, "need at least one trial");
  QARCH_REQUIRE(sim::state_qubits(state) == g.num_vertices(),
                "state/graph size mismatch");
  std::vector<double> uniforms(shots * trials);
  for (double& r : uniforms) r = rng.uniform();
  return mean_best_of_trials(
      sim::sample_basis_states(state, uniforms), shots, trials,
      [&g](std::size_t basis) { return cut_of_basis_state(g, basis); });
}

double expected_best_cut(const circuit::Circuit& ansatz,
                         std::span<const double> theta, const graph::Graph& g,
                         std::size_t shots, std::size_t trials, Rng& rng) {
  sim::PlanOptions one_shot;
  one_shot.phase_tables = false;
  const sim::State state =
      sim::SimProgram(ansatz, one_shot).run_from_plus(theta);
  return expected_best_cut(state, g, shots, trials, rng);
}

double expected_best_value(const query::Sampler& sampler,
                           std::span<const double> theta,
                           const Hamiltonian& ham, std::size_t shots,
                           std::size_t trials, Rng& rng) {
  QARCH_REQUIRE(shots >= 1, "need at least one shot");
  QARCH_REQUIRE(trials >= 1, "need at least one trial");
  QARCH_REQUIRE(sampler.num_qubits() == ham.num_qubits(),
                "sampler/Hamiltonian size mismatch");
  return mean_best_of_trials(
      sampler.sample(theta, shots * trials, rng), shots, trials,
      [&ham](std::size_t basis) { return ham.classical_value_bits(basis); });
}

}  // namespace qarch::qaoa

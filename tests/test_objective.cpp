// Generalized Hamiltonians and training objectives: randomized classical
// cross-checks for the MaxCut / MIS / Ising constructions, <C> from the
// compiled plans (both engines, including Z field terms) against the exact
// distribution average, CVaR / best-of-shots aggregation properties, spec
// tag round-trips, and end-to-end CVaR training through the Evaluator on
// either engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qaoa/mixer.hpp"
#include "qaoa/objective.hpp"
#include "qaoa/sampling.hpp"
#include "search/evaluator.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;

std::vector<double> random_theta(std::size_t params, Rng& rng) {
  std::vector<double> theta(params);
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  return theta;
}

// ---------------------------------------------------------------------------
// Classical values: each named construction against its direct formula.
// ---------------------------------------------------------------------------

TEST(Hamiltonian, ClassicalValuesMatchDirectFormulas) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.uniform_int(4);
    graph::Graph g = graph::erdos_renyi_connected(n, 0.5, rng);
    if (rng.bernoulli(0.5)) g = graph::with_random_weights(g, 0.2, 2.0, rng);

    const double penalty = 1.5 + rng.uniform(0.0, 2.0);
    const double coupling = rng.uniform(-1.5, 1.5);
    const double field = rng.uniform(-1.0, 1.0);
    const qaoa::Hamiltonian maxcut = qaoa::Hamiltonian::maxcut(g);
    const qaoa::Hamiltonian mis = qaoa::Hamiltonian::mis(g, penalty);
    const qaoa::Hamiltonian ising =
        qaoa::Hamiltonian::ising(g, coupling, field);

    for (std::size_t basis = 0; basis < (std::size_t{1} << n); ++basis) {
      // Direct formulas over bits x (x=1 means in-set, z = 1-2x).
      double cut = 0.0, mis_val = 0.0, ising_val = 0.0;
      for (const graph::Edge& e : g.edges()) {
        const int xu = (basis >> e.u) & 1, xv = (basis >> e.v) & 1;
        if (xu != xv) cut += e.weight;
        if (xu == 1 && xv == 1) mis_val -= penalty * e.weight;
        const int zu = 1 - 2 * xu, zv = 1 - 2 * xv;
        ising_val -= coupling * e.weight * zu * zv;
      }
      for (std::size_t q = 0; q < n; ++q) {
        const int x = (basis >> q) & 1;
        mis_val += x;
        ising_val -= field * (1 - 2 * x);
      }
      EXPECT_NEAR(maxcut.classical_value_bits(basis), cut, 1e-10);
      EXPECT_NEAR(mis.classical_value_bits(basis), mis_val, 1e-10);
      EXPECT_NEAR(ising.classical_value_bits(basis), ising_val, 1e-10);
      EXPECT_NEAR(maxcut.classical_value_bits(basis),
                  qaoa::cut_of_basis_state(g, basis), 1e-10);
    }

    // classical_maximum agrees with the brute force over classical_value_bits
    // and, when penalty * min-edge-weight > 1 (so violating any edge never
    // pays), with the maximum independent set size. Its value is some
    // assignment's term-order sum to the bit; tied maximizers may round
    // differently, so against the brute-force maximum it is checked to
    // within rounding.
    double min_weight = 1e300;
    for (const graph::Edge& e : g.edges())
      min_weight = std::min(min_weight, e.weight);
    const qaoa::Hamiltonian strict =
        qaoa::Hamiltonian::mis(g, 1.5 / min_weight);
    const qaoa::Hamiltonian* solved[] = {&maxcut, &mis, &strict, &ising};
    double solver[4], brute[4];
    bool attained[4] = {false, false, false, false};
    for (std::size_t k = 0; k < 4; ++k) {
      solver[k] = qaoa::classical_maximum(*solved[k]);
      brute[k] = -1e300;
    }
    double best = -1e300, strict_best = -1e300;
    std::size_t best_independent = 0;
    for (std::size_t basis = 0; basis < (std::size_t{1} << n); ++basis) {
      best = std::max(best, mis.classical_value_bits(basis));
      strict_best = std::max(strict_best, strict.classical_value_bits(basis));
      for (std::size_t k = 0; k < 4; ++k) {
        const double value = solved[k]->classical_value_bits(basis);
        brute[k] = std::max(brute[k], value);
        attained[k] = attained[k] || value == solver[k];
      }
      bool independent = true;
      for (const graph::Edge& e : g.edges())
        if (((basis >> e.u) & 1) && ((basis >> e.v) & 1)) independent = false;
      if (independent) {
        std::size_t size = 0;
        for (std::size_t q = 0; q < n; ++q) size += (basis >> q) & 1;
        best_independent = std::max(best_independent, size);
      }
    }
    EXPECT_NEAR(qaoa::classical_maximum(mis), best, 1e-10);
    EXPECT_NEAR(strict_best, static_cast<double>(best_independent), 1e-10);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(solver[k], brute[k], 1e-12 * std::abs(brute[k]) + 1e-12)
          << "hamiltonian " << k << " trial " << trial;
      EXPECT_TRUE(attained[k]) << "hamiltonian " << k << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// <C> from the compiled plans == the exact distribution average, on both
// engines, for a Hamiltonian WITH field terms (exercises z_expectations).
// ---------------------------------------------------------------------------

TEST(Hamiltonian, PlanEnergyMatchesDistributionAverage) {
  Rng rng(23);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const qaoa::Hamiltonian ham = qaoa::Hamiltonian::ising(g, 0.8, 0.4);
  ASSERT_FALSE(ham.z_terms().empty());

  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const sim::StatevectorSimulator sv;

  for (const qaoa::EngineKind engine :
       {qaoa::EngineKind::Statevector, qaoa::EngineKind::TensorNetwork}) {
    qaoa::EnergyOptions options;
    options.engine = engine;
    const qaoa::EnergyEvaluator evaluator(ham, options);
    const auto plan = evaluator.plan_for(ansatz);
    for (int step = 0; step < 3; ++step) {
      const auto theta = random_theta(ansatz.num_params(), rng);
      const sim::State psi = sv.run_from_plus(ansatz, theta);
      double expect = 0.0;
      for (std::size_t basis = 0; basis < psi.size(); ++basis)
        expect += std::norm(psi[basis]) * ham.classical_value_bits(basis);
      EXPECT_NEAR(plan->energy(theta), expect, 1e-8);
    }
  }
}

// ---------------------------------------------------------------------------
// Aggregation: CVaR / best-of-shots properties.
// ---------------------------------------------------------------------------

TEST(Objective, CvarAndBestAggregation) {
  const std::vector<double> values = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const double mean =
      std::accumulate(values.begin(), values.end(), 0.0) / values.size();

  // alpha = 1 recovers the mean; alpha = 1/n keeps only the best value.
  EXPECT_NEAR(qaoa::cvar_value(values, 1.0), mean, 1e-12);
  EXPECT_NEAR(qaoa::cvar_value(values, 1.0 / values.size()), 9.0, 1e-12);
  // ceil(0.25 * 8) = 2 best values: (9 + 6) / 2.
  EXPECT_NEAR(qaoa::cvar_value(values, 0.25), 7.5, 1e-12);
  EXPECT_NEAR(qaoa::best_of_value(values), 9.0, 1e-12);

  // Under maximization CVaR is monotone non-increasing in alpha.
  double prev = 1e300;
  for (const double alpha : {0.125, 0.25, 0.5, 0.75, 1.0}) {
    const double v = qaoa::cvar_value(values, alpha);
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }

  qaoa::ObjectiveSpec spec;
  spec.kind = qaoa::ObjectiveKind::CVaR;
  spec.alpha = 0.25;
  EXPECT_NEAR(qaoa::objective_value(spec, values), 7.5, 1e-12);
  spec.kind = qaoa::ObjectiveKind::BestOfShots;
  EXPECT_NEAR(qaoa::objective_value(spec, values), 9.0, 1e-12);
  spec.kind = qaoa::ObjectiveKind::Expectation;
  EXPECT_NEAR(qaoa::objective_value(spec, values), mean, 1e-12);
}

// ---------------------------------------------------------------------------
// Spec tags: stable round-trips (the cache-key / wire format).
// ---------------------------------------------------------------------------

TEST(Objective, SpecTagsRoundTrip) {
  qaoa::ObjectiveSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_EQ(qaoa::ObjectiveSpec::parse_tag(spec.tag()), spec);

  // Fresh specs per kind: tags only encode the fields the kind uses, so a
  // round-trip restores defaults for the irrelevant ones.
  qaoa::ObjectiveSpec cvar;
  cvar.kind = qaoa::ObjectiveKind::CVaR;
  cvar.alpha = 0.125;
  cvar.shots = 64;
  EXPECT_FALSE(cvar.is_default());
  EXPECT_EQ(qaoa::ObjectiveSpec::parse_tag(cvar.tag()), cvar);

  qaoa::ObjectiveSpec best;
  best.kind = qaoa::ObjectiveKind::BestOfShots;
  best.shots = 32;
  EXPECT_EQ(qaoa::ObjectiveSpec::parse_tag(best.tag()), best);

  EXPECT_EQ(qaoa::objective_kind_from_name("cvar"), qaoa::ObjectiveKind::CVaR);
  EXPECT_EQ(qaoa::objective_kind_from_name("best-of-shots"),
            qaoa::ObjectiveKind::BestOfShots);
  EXPECT_THROW(qaoa::objective_kind_from_name("nope"), InvalidArgument);

  qaoa::HamiltonianSpec ham;
  EXPECT_TRUE(ham.is_default());
  EXPECT_EQ(qaoa::HamiltonianSpec::parse_tag(ham.tag()), ham);
  qaoa::HamiltonianSpec mis;
  mis.kind = qaoa::HamiltonianKind::MIS;
  mis.penalty = 3.5;
  EXPECT_EQ(qaoa::HamiltonianSpec::parse_tag(mis.tag()), mis);
  qaoa::HamiltonianSpec ising;
  ising.kind = qaoa::HamiltonianKind::Ising;
  ising.coupling = -0.75;
  ising.field = 0.25;
  EXPECT_EQ(qaoa::HamiltonianSpec::parse_tag(ising.tag()), ising);
  EXPECT_THROW(qaoa::hamiltonian_kind_from_name("nope"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// End to end: CVaR training through the Evaluator on both engines, and the
// generalized ratio denominator for a non-MaxCut Hamiltonian.
// ---------------------------------------------------------------------------

TEST(Objective, EvaluatorTrainsCvarOnBothEngines) {
  Rng rng(37);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const qaoa::MixerSpec mixer = qaoa::MixerSpec::parse("rx");

  for (const qaoa::EngineKind engine :
       {qaoa::EngineKind::Statevector, qaoa::EngineKind::TensorNetwork}) {
    search::EvaluatorOptions options;
    options.energy.engine = engine;
    options.cobyla.max_evals = 30;
    options.objective.kind = qaoa::ObjectiveKind::CVaR;
    options.objective.alpha = 0.5;
    options.objective.shots = 48;
    const search::Evaluator evaluator(g, options);
    const search::CandidateResult result = evaluator.evaluate(mixer, 1);
    // A trained CVaR candidate on a 3-regular graph must beat random
    // guessing (ratio 1/2 of the cut) and stay a valid ratio.
    EXPECT_GT(result.ratio, 0.4);
    EXPECT_LE(result.ratio, 1.0 + 1e-9);
    EXPECT_GT(result.sampled_ratio, 0.5);
    EXPECT_LE(result.sampled_ratio, 1.0 + 1e-9);
    EXPECT_EQ(result.theta.size(), 2U);

    // Same evaluation twice is deterministic (the sampled objective re-seeds
    // from the candidate seed every evaluation).
    const search::CandidateResult again = evaluator.evaluate(mixer, 1);
    EXPECT_DOUBLE_EQ(result.energy, again.energy);
    EXPECT_DOUBLE_EQ(result.sampled_ratio, again.sampled_ratio);
  }
}

TEST(Objective, EvaluatorScoresMisAgainstBruteForceOptimum) {
  Rng rng(41);
  const graph::Graph g = graph::erdos_renyi_connected(6, 0.45, rng);

  search::EvaluatorOptions options;
  options.energy.engine = qaoa::EngineKind::Statevector;
  options.cobyla.max_evals = 40;
  options.hamiltonian.kind = qaoa::HamiltonianKind::MIS;
  const search::Evaluator evaluator(g, options);
  EXPECT_NEAR(evaluator.classical_optimum(),
              qaoa::classical_maximum(evaluator.hamiltonian()), 1e-10);

  const search::CandidateResult result =
      evaluator.evaluate(qaoa::MixerSpec::parse("rx"), 1);
  EXPECT_GT(result.sampled_ratio, 0.5);
  EXPECT_LE(result.sampled_ratio, 1.0 + 1e-9);
}

}  // namespace

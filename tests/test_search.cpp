// Search package tests: alphabet, combinations, QBuilder, evaluator,
// predictors, and the Algorithm-1 engine (serial == parallel, best found).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "search/combinations.hpp"
#include "search/engine.hpp"
#include "search/evaluator.hpp"
#include "search/predictor.hpp"
#include "search/qbuilder.hpp"

namespace {

using namespace qarch;
using circuit::GateKind;
using search::CombinationMode;
using search::Encoding;
using search::GateAlphabet;

search::EvaluatorOptions fast_options() {
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::Statevector;
  opt.cobyla.max_evals = 40;
  opt.shots = 32;
  opt.sample_trials = 2;
  return opt;
}

SessionConfig fast_session() {
  SessionConfig s;
  s.backend = BackendChoice::Statevector;
  s.training_evals = 40;
  s.shots = 32;
  s.sample_trials = 2;
  return s;
}

TEST(Alphabet, StandardHasFiveSingleQubitGates) {
  const GateAlphabet a = GateAlphabet::standard();
  EXPECT_EQ(a.size(), 5u);  // |A_R| = 5 in the paper
  for (GateKind k : a.gates) EXPECT_FALSE(circuit::is_two_qubit(k));
  EXPECT_EQ(a.to_string(), "rx,ry,rz,h,p");
}

TEST(Alphabet, ParseValidation) {
  EXPECT_EQ(GateAlphabet::parse("rx,h").size(), 2u);
  EXPECT_THROW(GateAlphabet::parse(""), Error);
  EXPECT_THROW(GateAlphabet::parse("cx"), Error);  // two-qubit rejected
}

TEST(Combinations, CountsMatchTheory) {
  // Product: 5^k; Permutation: 5!/(5-k)!.
  EXPECT_EQ(search::combination_count(5, 1, CombinationMode::Product), 5u);
  EXPECT_EQ(search::combination_count(5, 4, CombinationMode::Product), 625u);
  EXPECT_EQ(search::combination_count(5, 2, CombinationMode::Permutation), 20u);
  EXPECT_EQ(search::combination_count(5, 4, CombinationMode::Permutation), 120u);
}

TEST(Combinations, PaperScale2500Circuits) {
  // The paper's profiling space: 4 depths x 5^4 combinations = 2500.
  const std::size_t per_depth =
      search::combination_count(5, 4, CombinationMode::Product);
  EXPECT_EQ(4 * per_depth, 2500u);
}

TEST(Combinations, EnumerationIsExactAndDistinct) {
  const GateAlphabet a = GateAlphabet::standard();
  const auto combos = search::get_combinations(a, 2, CombinationMode::Product);
  EXPECT_EQ(combos.size(), 25u);
  std::set<std::string> rendered;
  for (const auto& c : combos) rendered.insert(c.to_string());
  EXPECT_EQ(rendered.size(), 25u);  // all distinct

  const auto perms =
      search::get_combinations(a, 2, CombinationMode::Permutation);
  EXPECT_EQ(perms.size(), 20u);
  for (const auto& s : perms)
    EXPECT_NE(s.gates[0], s.gates[1]);  // no repeats within a permutation
}

TEST(Combinations, AllCombinationsConcatenatesLengths) {
  const GateAlphabet a = GateAlphabet::standard();
  const auto all = search::all_combinations(a, 3, CombinationMode::Product);
  EXPECT_EQ(all.size(), 5u + 25u + 125u);
  EXPECT_EQ(all[0].gates.size(), 1u);
  EXPECT_EQ(all.back().gates.size(), 3u);
}

TEST(Combinations, RandomCombinationRespectsBounds) {
  const GateAlphabet a = GateAlphabet::standard();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto s =
        search::random_combination(a, 4, CombinationMode::Product, rng);
    EXPECT_GE(s.gates.size(), 1u);
    EXPECT_LE(s.gates.size(), 4u);
  }
  for (int i = 0; i < 50; ++i) {
    const auto s =
        search::random_combination(a, 4, CombinationMode::Permutation, rng);
    std::set<GateKind> uniq(s.gates.begin(), s.gates.end());
    EXPECT_EQ(uniq.size(), s.gates.size());
  }
}

TEST(QBuilder, EncodeDecodeRoundTrip) {
  const search::QBuilder b(GateAlphabet::standard());
  const Encoding enc{0, 1, 3};
  const auto spec = b.decode(enc);
  EXPECT_EQ(spec.gates,
            (std::vector<GateKind>{GateKind::RX, GateKind::RY, GateKind::H}));
  EXPECT_EQ(b.encode(spec), enc);
  EXPECT_THROW(b.decode({9}), Error);
  EXPECT_THROW(b.decode({}), Error);
}

TEST(QBuilder, BuildsMixerAndAnsatz) {
  const search::QBuilder b(GateAlphabet::standard());
  Rng rng(5);
  const auto g = graph::random_regular(6, 3, rng);
  const auto mixer = b.build_mixer({0, 1}, 6);
  EXPECT_EQ(mixer.num_qubits(), 6u);
  EXPECT_EQ(mixer.num_gates(), 12u);
  const auto ansatz = b.build_qaoa({0, 1}, g, 2);
  EXPECT_EQ(ansatz.num_params(), 4u);
  EXPECT_EQ(ansatz.two_qubit_gate_count(), 2 * g.num_edges());
}

TEST(Evaluator, ProducesConsistentScores) {
  Rng rng(7);
  const auto g = graph::random_regular(8, 3, rng);
  const search::Evaluator ev(g, fast_options());
  const auto r = ev.evaluate(qaoa::MixerSpec::qnas(), 1);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GT(r.ratio, 0.0);
  EXPECT_LE(r.ratio, 1.0 + 1e-9);
  EXPECT_GT(r.sampled_ratio, r.ratio - 1e-9);  // best-of-shots >= mean
  EXPECT_LE(r.sampled_ratio, 1.0 + 1e-9);
  EXPECT_EQ(r.p, 1u);
  // Deterministic re-evaluation.
  const auto r2 = ev.evaluate(qaoa::MixerSpec::qnas(), 1);
  EXPECT_EQ(r.energy, r2.energy);
  EXPECT_EQ(r.sampled_ratio, r2.sampled_ratio);
}

TEST(Evaluator, ClassicalOptimumIsEngineIndependentOnWeightedGraphs) {
  // Both engines take the optimum from classical_maximum, so weighted
  // ratios divide by the same bits on either engine. Weighted MIS is the
  // hard case: all maximum independent sets tie in exact arithmetic, but
  // their term-order sums round differently.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const std::size_t n = 8 + 2 * static_cast<std::size_t>(seed);
    const graph::Graph g = graph::with_random_weights(
        graph::random_regular(n, 3, rng), 0.1, 2.0, rng);
    for (const auto kind :
         {qaoa::HamiltonianKind::MaxCut, qaoa::HamiltonianKind::MIS}) {
      search::EvaluatorOptions sv, tn;
      sv.energy.engine = qaoa::EngineKind::Statevector;
      tn.energy.engine = qaoa::EngineKind::TensorNetwork;
      sv.hamiltonian.kind = tn.hamiltonian.kind = kind;
      const double optimum = search::Evaluator(g, sv).classical_optimum();
      EXPECT_EQ(search::Evaluator(g, tn).classical_optimum(), optimum)
          << qaoa::hamiltonian_kind_name(kind) << " seed " << seed
          << " n=" << n;
      if (kind == qaoa::HamiltonianKind::MaxCut)
        EXPECT_NEAR(optimum, graph::maxcut_exact(g).value, 1e-12 * optimum);
    }
  }
}

TEST(Evaluator, RefusesOnlyWhereAStatevectorStillRuns) {
  // A tensor-network MIS evaluator scores through the TN walk, so nothing
  // of size 2^n runs at n = 40.
  search::EvaluatorOptions mis;
  mis.energy.engine = qaoa::EngineKind::TensorNetwork;
  mis.hamiltonian.kind = qaoa::HamiltonianKind::MIS;
  EXPECT_EQ(search::Evaluator(graph::cycle(40), mis).classical_optimum(),
            20.0);
  // The default MaxCut spec scores Eq. 3 on a 2^n statevector on either
  // engine, and the statevector engine trains on one.
  for (const qaoa::EngineKind engine :
       {qaoa::EngineKind::Statevector, qaoa::EngineKind::TensorNetwork}) {
    search::EvaluatorOptions maxcut;
    maxcut.energy.engine = engine;
    EXPECT_THROW(search::Evaluator(graph::cycle(27), maxcut), InvalidArgument);
  }
  mis.energy.engine = qaoa::EngineKind::Statevector;
  EXPECT_THROW(search::Evaluator(graph::cycle(31), mis), InvalidArgument);
}

TEST(Evaluator, StatevectorResultIsBitIdenticalAcrossInnerWorkers) {
  // inner_workers is not part of the result-cache or checkpoint key, so a
  // candidate must train and score to the same bits at every inner count.
  // n = 16 is above parallel_threshold_qubits (14): inner 2 really splits
  // the replay kernels.
  Rng rng(83);
  const auto g = graph::random_regular(16, 3, rng);
  search::EvaluatorOptions serial = fast_options();
  search::EvaluatorOptions inner2 = serial;
  inner2.energy.inner_workers = 2;
  const search::Evaluator a(g, serial);
  const search::Evaluator b(g, inner2);
  EXPECT_EQ(a.classical_optimum(), b.classical_optimum());
  EXPECT_EQ(a.classical_optimum(), graph::maxcut_exact(g).value);
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}}) {
    const auto ra = a.evaluate(qaoa::MixerSpec::qnas(), p);
    const auto rb = b.evaluate(qaoa::MixerSpec::qnas(), p);
    EXPECT_EQ(ra.energy, rb.energy) << "p=" << p;
    EXPECT_EQ(ra.theta, rb.theta) << "p=" << p;
    EXPECT_EQ(ra.sampled_ratio, rb.sampled_ratio) << "p=" << p;
    EXPECT_EQ(ra.evaluations, rb.evaluations) << "p=" << p;
  }
}

TEST(Predictors, ExhaustiveCoversSpaceOncePerRound) {
  search::ExhaustivePredictor pred(GateAlphabet::standard(), 2);
  EXPECT_EQ(pred.space_size(), 30u);
  std::size_t total = 0;
  while (!pred.exhausted()) total += pred.propose(7).size();
  EXPECT_EQ(total, 30u);
  EXPECT_TRUE(pred.propose(7).empty());
  pred.reset();
  EXPECT_FALSE(pred.exhausted());
  EXPECT_EQ(pred.propose(100).size(), 30u);
}

TEST(Predictors, RandomHonoursBudget) {
  search::RandomPredictor pred(GateAlphabet::standard(), 4, 17, /*seed=*/1);
  std::size_t total = 0;
  while (!pred.exhausted()) total += pred.propose(5).size();
  EXPECT_EQ(total, 17u);
}

TEST(Engine, SerialAndParallelFindTheSameBest) {
  Rng rng(11);
  const auto g = graph::random_regular(6, 3, rng);

  search::SearchConfig serial_cfg;
  serial_cfg.p_max = 1;
  serial_cfg.session = fast_session();
  serial_cfg.session.workers = 1;
  const auto serial =
      search::SearchEngine(serial_cfg).run_exhaustive(g, 2);

  search::SearchConfig par_cfg = serial_cfg;
  par_cfg.session.workers = 6;
  const auto parallel =
      search::SearchEngine(par_cfg).run_exhaustive(g, 2);

  EXPECT_EQ(serial.num_candidates, 30u);
  EXPECT_EQ(parallel.num_candidates, 30u);
  EXPECT_EQ(serial.best.mixer, parallel.best.mixer);
  EXPECT_DOUBLE_EQ(serial.best.energy, parallel.best.energy);
  // The same candidate set was evaluated (order may differ within batches).
  auto names = [](const search::SearchReport& r) {
    std::vector<std::string> v;
    for (const auto& c : r.evaluated) v.push_back(c.mixer.to_string());
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(names(serial), names(parallel));
}

TEST(Engine, BestIsArgmaxOfEvaluated) {
  Rng rng(13);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session = fast_session();
  const auto report = search::SearchEngine(cfg).run_exhaustive(g, 2);
  double best = -1.0;
  for (const auto& c : report.evaluated) best = std::max(best, c.energy);
  EXPECT_DOUBLE_EQ(report.best.energy, best);
  EXPECT_GT(report.seconds, 0.0);
}

TEST(Engine, DeeperSearchNeverHurtsBestEnergy) {
  Rng rng(17);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg1;
  cfg1.p_max = 1;
  cfg1.session = fast_session();
  search::SearchConfig cfg2 = cfg1;
  cfg2.p_max = 2;
  const auto r1 = search::SearchEngine(cfg1).run_exhaustive(g, 1);
  const auto r2 = search::SearchEngine(cfg2).run_exhaustive(g, 1);
  // SELECT_BEST keeps the best across depths, so more depths can only help.
  EXPECT_GE(r2.best.energy, r1.best.energy - 1e-12);
}

TEST(Engine, BestAtDepthFiltersCorrectly) {
  Rng rng(19);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg;
  cfg.p_max = 2;
  cfg.session = fast_session();
  const auto report = search::SearchEngine(cfg).run_exhaustive(g, 1);
  const auto& b1 = report.best_at_depth(1);
  const auto& b2 = report.best_at_depth(2);
  EXPECT_EQ(b1.p, 1u);
  EXPECT_EQ(b2.p, 2u);
  EXPECT_THROW((void)report.best_at_depth(9), Error);
}

TEST(Engine, RandomPredictorIntegrates) {
  Rng rng(23);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session = fast_session();
  search::RandomPredictor pred(cfg.alphabet, 3, 12, /*seed=*/9);
  const auto report = search::SearchEngine(cfg).run(g, pred);
  EXPECT_EQ(report.num_candidates, 12u);
  EXPECT_GT(report.best.energy, 0.0);
}

}  // namespace

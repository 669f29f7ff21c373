// Compiled simulation plans: randomized equivalence of the specialized
// kernels (diagonal streaming, single-qubit fusion, cached/rebindable
// matrices, batched ZZ sweep) against the naive per-gate reference path,
// across qubit counts 2..12 and worker counts 1 and 4.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "search/evaluator.hpp"
#include "sim/sim_program.hpp"
#include "sim/state_utils.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamExpr;

/// Random circuit over `n` qubits with `num_params` shared symbolic
/// parameters, drawing gates from `pool` with a mix of constant and
/// symbolic angles.
Circuit random_circuit(Rng& rng, std::size_t n, std::size_t gates,
                       std::size_t num_params,
                       std::span<const GateKind> pool) {
  Circuit c(n, num_params);
  for (std::size_t i = 0; i < gates; ++i) {
    const GateKind k = pool[rng.uniform_int(pool.size())];
    ParamExpr param = ParamExpr::none();
    if (circuit::is_parameterized(k)) {
      if (num_params > 0 && rng.bernoulli(0.5))
        param = ParamExpr::symbol(rng.uniform_int(num_params),
                                  rng.uniform(-2.0, 2.0));
      else
        param = ParamExpr::constant_angle(rng.uniform(-3.0, 3.0));
    }
    if (circuit::is_two_qubit(k)) {
      std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
      while (b == a) b = rng.uniform_int(n);
      c.append({k, a, b, param});
    } else {
      c.append({k, rng.uniform_int(n), 0, param});
    }
  }
  return c;
}

constexpr GateKind kFullPool[] = {
    GateKind::I,  GateKind::X,   GateKind::Y,   GateKind::Z,   GateKind::H,
    GateKind::S,  GateKind::Sdg, GateKind::T,   GateKind::Tdg, GateKind::RX,
    GateKind::RY, GateKind::RZ,  GateKind::P,   GateKind::CX,  GateKind::CZ,
    GateKind::SWAP, GateKind::RZZ};

constexpr GateKind kDiagonalPool[] = {
    GateKind::Z,  GateKind::S, GateKind::Sdg, GateKind::T, GateKind::Tdg,
    GateKind::RZ, GateKind::P, GateKind::CZ,  GateKind::RZZ};

void expect_states_close(const sim::State& a, const sim::State& b,
                         double tol, const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, tol)
        << context << " amplitude " << i;
}

TEST(SimProgram, CompiledPlanMatchesNaivePerGateApply) {
  Rng rng(101);
  const sim::StatevectorSimulator naive;
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);  // 2..12
    const std::size_t num_params = 3;
    const auto c = random_circuit(rng, n, 30, num_params, kFullPool);
    std::vector<double> theta(num_params);
    for (auto& t : theta) t = rng.uniform(-3.0, 3.0);

    const auto expected = naive.run_from_plus(c, theta);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      sim::PlanOptions opt;  // all specializations on
      opt.parallel_threshold_qubits = 2;  // force the parallel kernels
      const sim::SimProgram program(c, opt);
      const auto got = program.run_from_plus(theta, workers);
      expect_states_close(got, expected, 1e-10,
                          "trial " + std::to_string(trial) + " workers " +
                              std::to_string(workers));
    }
    // The fully de-specialized plan configuration replays the same circuit
    // through per-gate dense scalar kernels — identical unitary.
    const sim::SimProgram plain(c, sim::PlanOptions::generic());
    EXPECT_EQ(plain.stats().diag1_ops + plain.stats().diag2_ops +
                  plain.stats().diag_table_ops,
              0u);
    expect_states_close(plain.run_from_plus(theta), expected, 1e-10,
                        "generic trial " + std::to_string(trial));
  }
}

TEST(SimProgram, DiagonalKernelsMatchGenericKernels) {
  Rng rng(202);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);  // 2..12
    const auto c = random_circuit(rng, n, 25, 2, kDiagonalPool);
    const std::vector<double> theta = {rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0)};

    sim::PlanOptions diag;
    diag.diagonal_kernels = true;
    diag.fuse_single_qubit = false;
    diag.presimplify = false;
    diag.phase_tables = false;  // compare the per-gate streaming kernels
    diag.parallel_threshold_qubits = 2;
    sim::PlanOptions generic = diag;
    generic.diagonal_kernels = false;

    const sim::SimProgram with_diag(c, diag);
    const sim::SimProgram without_diag(c, generic);
    // The diagonal program streams phases; the generic one runs the full
    // pair/quad gather kernels. Identical unitaries either way.
    EXPECT_GT(with_diag.stats().diag1_ops + with_diag.stats().diag2_ops, 0u);
    EXPECT_EQ(without_diag.stats().diag1_ops, 0u);
    EXPECT_EQ(without_diag.stats().diag2_ops, 0u);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      expect_states_close(with_diag.run_from_plus(theta, workers),
                          without_diag.run_from_plus(theta, workers), 1e-10,
                          "trial " + std::to_string(trial));
    }
  }
}

TEST(SimProgram, FusionTogglesPreserveTheState) {
  Rng rng(303);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);
    const auto c = random_circuit(rng, n, 40, 2, kFullPool);
    const std::vector<double> theta = {0.3, -1.1};

    sim::PlanOptions fused;
    fused.parallel_threshold_qubits = 2;
    sim::PlanOptions unfused = fused;
    unfused.fuse_single_qubit = false;
    unfused.presimplify = false;

    const sim::SimProgram a(c, fused);
    const sim::SimProgram b(c, unfused);
    EXPECT_LE(a.stats().ops, b.stats().ops);
    expect_states_close(a.run_from_plus(theta, 1), b.run_from_plus(theta, 4),
                        1e-10, "trial " + std::to_string(trial));
  }
}

TEST(SimProgram, RebindsParameterizedOpsAcrossThetas) {
  Rng rng(404);
  const auto c = random_circuit(rng, 6, 30, 4, kFullPool);
  const sim::SimProgram program(c);
  const sim::StatevectorSimulator naive;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<double> theta(4);
    for (auto& t : theta) t = rng.uniform(-3.0, 3.0);
    expect_states_close(program.run_from_plus(theta),
                        naive.run_from_plus(c, theta), 1e-10,
                        "rebind rep " + std::to_string(rep));
  }
}

TEST(SimProgram, QaoaAnsatzCompilesToStreamingCostLayer) {
  Rng rng(7);
  const auto g = graph::random_regular(10, 4, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());
  const sim::SimProgram program(c);
  const auto& stats = program.stats();
  // Nothing in the QAOA ansatz needs the dense 4x4 kernel, and each cost
  // layer (one shared γ_l across its RZZ gates) folds into ONE phase-table
  // pass per layer.
  EXPECT_EQ(stats.two_ops, 0u);
  EXPECT_EQ(stats.diag_table_ops, 2u);
  // The rx·ry mixer runs fuse into one 2x2 per qubit per layer.
  EXPECT_GT(stats.fused_gates, 0u);
  EXPECT_LT(stats.ops, c.num_gates());

  // The folded program still matches the naive reference path.
  const sim::StatevectorSimulator naive;
  const std::vector<double> theta = {0.7, -0.4, 1.2, 0.3};
  expect_states_close(program.run_from_plus(theta),
                      naive.run_from_plus(c, theta), 1e-10, "qaoa ansatz");
}

TEST(SimProgram, PhaseTablesMatchPerGateDiagonalKernels) {
  Rng rng(909);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);
    // One shared symbol keeps every diagonal run table-eligible.
    const auto c = random_circuit(rng, n, 30, 1, kDiagonalPool);
    const std::vector<double> theta = {rng.uniform(-3.0, 3.0)};

    sim::PlanOptions tables;
    tables.parallel_threshold_qubits = 2;
    sim::PlanOptions no_tables = tables;
    no_tables.phase_tables = false;

    const sim::SimProgram folded(c, tables);
    const sim::SimProgram unfolded(c, no_tables);
    EXPECT_GT(folded.stats().diag_table_ops, 0u) << "trial " << trial;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}})
      expect_states_close(folded.run_from_plus(theta, workers),
                          unfolded.run_from_plus(theta, workers), 1e-10,
                          "trial " + std::to_string(trial));
  }
}

TEST(BatchedZZ, MatchesPerEdgeExpectationOnRandomStates) {
  Rng rng(505);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);  // 2..12
    const auto c = random_circuit(rng, n, 25, 0, kFullPool);
    const sim::StatevectorSimulator sv;
    const auto state = sv.run_from_plus(c, {});

    std::vector<sim::ZZPair> pairs;
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t v = u + 1; v < n; ++v) pairs.push_back({u, v});

    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const auto batched =
          sim::batched_expectation_zz(state, pairs, workers,
                                      /*parallel_threshold_qubits=*/2);
      ASSERT_EQ(batched.size(), pairs.size());
      for (std::size_t k = 0; k < pairs.size(); ++k)
        EXPECT_NEAR(batched[k],
                    sim::expectation_zz(state, pairs[k].u, pairs[k].v), 1e-10)
            << "trial " << trial << " pair " << k << " workers " << workers;
    }
  }
}

TEST(BatchedZZ, OneSweepTotalVersusOnePerEdge) {
  const auto state = sim::plus_state(6);
  const std::vector<sim::ZZPair> pairs = {{0, 1}, {1, 2}, {2, 3}, {4, 5}};

  sim::reset_expectation_sweep_count();
  for (const auto& p : pairs) sim::expectation_zz(state, p.u, p.v);
  EXPECT_EQ(sim::expectation_sweep_count(), pairs.size());

  sim::reset_expectation_sweep_count();
  const auto zz = sim::batched_expectation_zz(state, pairs);
  EXPECT_EQ(sim::expectation_sweep_count(), 1u);
  EXPECT_EQ(zz.size(), pairs.size());
}

TEST(EnergyPlan, CompiledStatevectorPlanMatchesLegacyPath) {
  Rng rng(606);
  const auto g = graph::random_regular(8, 3, rng);

  qaoa::EnergyOptions compiled;
  compiled.engine = qaoa::EngineKind::Statevector;
  compiled.inner_workers = 4;
  compiled.sv_plan.parallel_threshold_qubits = 2;  // exercise threading

  const qaoa::EnergyEvaluator fast(g, compiled);
  const auto& ham = fast.hamiltonian();
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}}) {
    const auto ansatz = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
    const auto fast_plan = fast.make_plan(ansatz);
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> theta(ansatz.num_params());
      for (auto& t : theta) t = rng.uniform(-2.0, 2.0);
      // The per-gate oracle: serial dense kernels, one pass per term.
      const auto state =
          sim::StatevectorSimulator().run_from_plus(ansatz, theta);
      std::vector<double> sz;
      for (const auto& t : ham.terms())
        sz.push_back(sim::expectation_zz(state, t.u, t.v));
      EXPECT_NEAR(fast_plan->energy(theta), ham.energy(sz), 1e-10);
      const auto fz = fast_plan->zz_expectations(theta);
      ASSERT_EQ(fz.size(), sz.size());
      for (std::size_t k = 0; k < fz.size(); ++k)
        EXPECT_NEAR(fz[k], sz[k], 1e-10) << "term " << k;
    }
  }
}

TEST(SimProgram, CacheBlockedReplayMatchesUnblocked) {
  // Tiny block_qubits force real multi-block replay on small states; every
  // op class (diagonal tables, streaming diagonals, fused singles, dense
  // twos) must land in the right slice with the right global base.
  Rng rng(808);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = 4 + rng.uniform_int(7);  // 4..10
    const auto c = random_circuit(rng, n, 35, 2, kFullPool);
    const std::vector<double> theta = {rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0)};

    sim::PlanOptions blocked;
    blocked.block_qubits = 2 + rng.uniform_int(3);  // 2..4
    blocked.parallel_threshold_qubits = 2;
    sim::PlanOptions unblocked = blocked;
    unblocked.cache_blocking = false;

    const sim::SimProgram a(c, blocked);
    const sim::SimProgram b(c, unblocked);
    EXPECT_GE(a.stats().memory_passes, 1u);
    EXPECT_LE(a.stats().memory_passes, b.stats().memory_passes);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}})
      expect_states_close(a.run_from_plus(theta, workers),
                          b.run_from_plus(theta, 1), 1e-10,
                          "trial " + std::to_string(trial) + " workers " +
                              std::to_string(workers));
  }
}

TEST(SimProgram, SimdToggleLeavesReplayEquivalent) {
  // The scalar and AVX2 multiplicative bodies share operation order, so a
  // whole compiled replay agrees across the toggle to compiler-contraction
  // noise (bit-for-bit on builds where the scalar bodies are not
  // FMA-contracted, e.g. the default no -mfma build).
  Rng rng(909);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(9);
    const auto c = random_circuit(rng, n, 30, 2, kFullPool);
    const std::vector<double> theta = {0.9, -0.2};
    sim::PlanOptions simd_on;
    sim::PlanOptions simd_off = simd_on;
    simd_off.simd = false;
    const sim::SimProgram a(c, simd_on);
    const sim::SimProgram b(c, simd_off);
    expect_states_close(a.run_from_plus(theta), b.run_from_plus(theta), 1e-12,
                        "simd toggle trial " + std::to_string(trial));
  }
}

TEST(PlanReuse, EvaluatorCachesOneCompilationPerStructure) {
  Rng rng(111);
  const auto g = graph::random_regular(8, 3, rng);
  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::Statevector;
  const qaoa::EnergyEvaluator ev(g, opt);
  const auto ansatz = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());

  sim::reset_program_compile_count();
  const auto p1 = ev.plan_for(ansatz);
  const auto p2 = ev.plan_for(ansatz);
  EXPECT_EQ(p1.get(), p2.get());  // same shared plan, not a copy
  EXPECT_EQ(sim::program_compile_count(), 1u);

  // A structurally different ansatz compiles separately...
  const auto other = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::baseline());
  const auto p3 = ev.plan_for(other);
  EXPECT_NE(p3.get(), p1.get());
  EXPECT_EQ(sim::program_compile_count(), 2u);
  // ...and re-requesting the first structure still hits the cache.
  (void)ev.plan_for(ansatz);
  EXPECT_EQ(sim::program_compile_count(), 2u);

  // One-shot energies run through the cache too (landscape-scan pattern).
  const std::vector<double> theta(ansatz.num_params(), 0.4);
  (void)ev.energy(ansatz, theta);
  (void)ev.energy(ansatz, theta);
  EXPECT_EQ(sim::program_compile_count(), 2u);
}

TEST(PlanReuse, MultistartRestartsShareOnePlanAndStayDeterministic) {
  Rng rng(222);
  const auto g = graph::random_regular(8, 3, rng);
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::Statevector;
  opt.cobyla.max_evals = 40;
  opt.restarts = 3;
  const search::Evaluator evaluator(g, opt);

  sim::reset_program_compile_count();
  const auto r1 = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(sim::program_compile_count(), 1u)
      << "all multistart restarts must share one compilation";

  // Bit-identical energies on re-evaluation: the cached plan plus the seeded
  // restart stream make the whole training run deterministic.
  const auto r2 = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(r1.energy, r2.energy);
  ASSERT_EQ(r1.theta.size(), r2.theta.size());
  for (std::size_t i = 0; i < r1.theta.size(); ++i)
    EXPECT_EQ(r1.theta[i], r2.theta[i]) << "theta " << i;
  // The shared budget was respected (restarts may converge a step early).
  EXPECT_GT(r1.evaluations, 0u);
  EXPECT_LE(r1.evaluations, 40u);
}

TEST(PlanReuse, UncachedEvaluatorStillCompilesOncePerEvaluate) {
  // With plan caching off, training and the Eq. 3 scoring pass still share
  // the one plan evaluate() fetched: scoring replays it at the trained theta.
  Rng rng(223);
  const auto g = graph::random_regular(8, 3, rng);
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::Statevector;
  opt.energy.plan_cache_capacity = 0;
  opt.cobyla.max_evals = 40;
  opt.restarts = 3;
  const search::Evaluator evaluator(g, opt);

  sim::reset_program_compile_count();
  const auto r1 = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(sim::program_compile_count(), 1u)
      << "training and scoring must share one compilation";
  const auto r2 = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(sim::program_compile_count(), 2u) << "no cache: one per evaluate";
  EXPECT_EQ(r1.energy, r2.energy);
  EXPECT_EQ(r1.sampled_ratio, r2.sampled_ratio);
  EXPECT_GT(r1.sampled_ratio, 0.0);
}

TEST(PlanReuse, EvaluatorOptionsRoundTripThroughEffectiveEnergy) {
  search::EvaluatorOptions opt;
  opt.energy.inner_workers = 3;
  opt.energy.sv_plan.block_qubits = 12;
  opt.energy.sv_plan.simd = false;
  opt.energy.plan_cache_capacity = 5;

  // The ONE reconciliation: evaluator-level presimplify wins...
  opt.simplify_circuit = true;
  const auto eff = opt.effective_energy();
  EXPECT_FALSE(eff.sv_plan.presimplify);
  // ...everything else passes through untouched.
  EXPECT_EQ(eff.inner_workers, 3u);
  EXPECT_EQ(eff.sv_plan.block_qubits, 12u);
  EXPECT_FALSE(eff.sv_plan.simd);
  EXPECT_EQ(eff.plan_cache_capacity, 5u);

  // Without evaluator pre-simplification the plan toggle survives as set.
  opt.simplify_circuit = false;
  opt.energy.sv_plan.presimplify = true;
  EXPECT_TRUE(opt.effective_energy().sv_plan.presimplify);

  // And the stored options are what the caller set, not a normalized copy.
  Rng rng(333);
  const auto g = graph::random_regular(6, 3, rng);
  opt.simplify_circuit = true;
  const search::Evaluator evaluator(g, opt);
  EXPECT_TRUE(evaluator.options().energy.sv_plan.presimplify);
  EXPECT_EQ(evaluator.options().energy.inner_workers, 3u);
}

TEST(EnergyPlan, EmptyEdgeCasesAreHandled) {
  // A gateless circuit compiles to an empty program that leaves |+> alone.
  const Circuit empty(3);
  const sim::SimProgram program(empty);
  EXPECT_EQ(program.stats().ops, 0u);
  const auto state = program.run_from_plus({});
  for (const auto& a : state)
    EXPECT_NEAR(std::abs(a), 1.0 / std::sqrt(8.0), 1e-12);
  // Batched sweep with no pairs returns an empty vector.
  EXPECT_TRUE(sim::batched_expectation_zz(state, {}).empty());
}

}  // namespace

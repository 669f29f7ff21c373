// Compiled simulation plans: randomized equivalence of the specialized
// kernels (diagonal streaming, single-qubit fusion, cached/rebindable
// matrices, batched ZZ sweep) against the naive per-gate reference path,
// across qubit counts 2..12 and worker counts 1 and 4.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "search/evaluator.hpp"
#include "sim/sim_program.hpp"
#include "sim/simd.hpp"
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
  }
}

TEST(SimProgram, DiagonalKernelsMatchPerGateOracle) {
  Rng rng(202);
  const sim::StatevectorSimulator naive;
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);  // 2..12
    const auto c = random_circuit(rng, n, 25, 2, kDiagonalPool);
    const std::vector<double> theta = {rng.uniform(-3.0, 3.0),
                                       rng.uniform(-3.0, 3.0)};

    sim::PlanOptions diag;
    diag.presimplify = false;
    diag.phase_tables = false;  // compare the per-gate streaming kernels
    diag.parallel_threshold_qubits = 2;

    const sim::SimProgram with_diag(c, diag);
    // The program streams phases; the oracle runs the dense pair/quad
    // gather kernels gate by gate. Identical unitaries either way.
    EXPECT_GT(with_diag.stats().diag1_ops + with_diag.stats().diag2_ops, 0u);
    const auto expected = naive.run_from_plus(c, theta);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      expect_states_close(with_diag.run_from_plus(theta, workers), expected,
                          1e-10, "trial " + std::to_string(trial));
    }
  }
}

TEST(SimProgram, FusedPlanMatchesPerGateOracle) {
  Rng rng(303);
  const sim::StatevectorSimulator naive;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);
    const auto c = random_circuit(rng, n, 40, 2, kFullPool);
    const std::vector<double> theta = {0.3, -1.1};

    sim::PlanOptions fused;
    fused.parallel_threshold_qubits = 2;

    const sim::SimProgram a(c, fused);
    EXPECT_LE(a.stats().ops, c.num_gates());
    const auto expected = naive.run_from_plus(c, theta);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}})
      expect_states_close(a.run_from_plus(theta, workers), expected, 1e-10,
                          "trial " + std::to_string(trial) + " workers " +
                              std::to_string(workers));
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

  // An all-diagonal ansatz is one commuting run whatever its parameters:
  // rz and p mixers carry γ_l and β_l in every layer, and h·h cancels in
  // the presimplify pass, leaving the γ layers. Each compiles to a single
  // phase-table pass.
  for (const char* mixer : {"rz", "p", "h,h"}) {
    for (const std::size_t p : {std::size_t{1}, std::size_t{2}}) {
      const auto ansatz =
          qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::parse(mixer));
      const sim::SimProgram diagonal(ansatz);
      const std::string context =
          std::string(mixer) + " p=" + std::to_string(p);
      EXPECT_EQ(diagonal.stats().ops, 1u) << context;
      EXPECT_EQ(diagonal.stats().diag_table_ops, 1u) << context;
      expect_states_close(diagonal.run_from_plus(theta),
                          naive.run_from_plus(ansatz, theta), 1e-10, context);
    }
  }
}

TEST(SimProgram, PhaseTablesMatchPerGateDiagonalKernels) {
  Rng rng(909);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(11);
    // The first half shares one symbol, the second carries 2-4: a table
    // takes any number, so the whole all-diagonal circuit folds either way.
    const std::size_t num_params = trial < 12 ? 1 : 2 + rng.uniform_int(3);
    const auto c = random_circuit(rng, n, 30, num_params, kDiagonalPool);
    std::vector<double> theta(num_params);
    for (auto& t : theta) t = rng.uniform(-3.0, 3.0);

    sim::PlanOptions tables;
    tables.parallel_threshold_qubits = 2;
    sim::PlanOptions no_tables = tables;
    no_tables.phase_tables = false;

    const sim::SimProgram folded(c, tables);
    const sim::SimProgram unfolded(c, no_tables);
    EXPECT_GT(folded.stats().diag_table_ops, 0u) << "trial " << trial;
    EXPECT_EQ(folded.stats().diag1_ops + folded.stats().diag2_ops, 0u)
        << "trial " << trial;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}})
      expect_states_close(folded.run_from_plus(theta, workers),
                          unfolded.run_from_plus(theta, workers), 1e-10,
                          "trial " + std::to_string(trial));
  }
}

/// The phase tables of a program's DiagTable ops, in op order.
std::vector<const sim::PhaseTable*> tables_of(const sim::SimProgram& program) {
  std::vector<const sim::PhaseTable*> out;
  for (const auto& op : program.ops())
    if (op.kind == sim::CompiledOp::Kind::DiagTable)
      out.push_back(op.table.get());
  return out;
}

TEST(PhaseTableCache, CandidatesAndLayersShareOneCostLayerTable) {
  Rng rng(606);
  const auto g = graph::random_regular(10, 3, rng);
  sim::PhaseTableCache cache;
  const auto qnas1 = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const auto rx1 = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::baseline());
  const auto qnas2 = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());
  const std::uint64_t before = sim::phase_table_build_count();
  const sim::SimProgram a(qnas1, {}, &cache);
  const sim::SimProgram b(rx1, {}, &cache);
  const sim::SimProgram c(qnas2, {}, &cache);

  // Two candidates on one graph share one cost-layer table object, and so
  // do both cost layers of a p = 2 program, whose ops keep their own γ.
  ASSERT_EQ(tables_of(a).size(), 1u);
  ASSERT_EQ(tables_of(b).size(), 1u);
  ASSERT_EQ(tables_of(c).size(), 2u);
  EXPECT_EQ(tables_of(a)[0], tables_of(b)[0]);
  EXPECT_EQ(tables_of(c)[0], tables_of(a)[0]);
  EXPECT_EQ(tables_of(c)[1], tables_of(a)[0]);
  EXPECT_EQ(sim::phase_table_build_count() - before, 1u);
  std::vector<std::vector<std::size_t>> gammas;
  for (const auto& op : c.ops())
    if (op.kind == sim::CompiledOp::Kind::DiagTable)
      gammas.push_back(op.symbols);
  EXPECT_EQ(gammas, (std::vector<std::vector<std::size_t>>{{0}, {2}}));

  // Replays through the shared table equal a cache-free compile bit for bit.
  const std::vector<double> theta = {0.7, -0.4, 1.2, 0.3};
  for (const auto* circuit : {&qnas1, &rx1, &qnas2}) {
    const std::uint64_t mark = sim::phase_table_build_count();
    const sim::SimProgram shared(*circuit, {}, &cache);
    EXPECT_EQ(sim::phase_table_build_count(), mark);
    const sim::SimProgram fresh(*circuit);
    expect_states_close(shared.run_from_plus(theta),
                        fresh.run_from_plus(theta), 0.0,
                        "p=" + std::to_string(circuit->num_params() / 2));
  }

  // An all-diagonal candidate's one table spans its mixer's angle too: each
  // compile builds its own and the cache keeps only the cost layer's.
  const auto rz1 = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rz"));
  const std::uint64_t mark = sim::phase_table_build_count();
  const sim::SimProgram d(rz1, {}, &cache);
  const sim::SimProgram e(rz1, {}, &cache);
  ASSERT_EQ(tables_of(d).size(), 1u);
  ASSERT_EQ(tables_of(e).size(), 1u);
  EXPECT_NE(tables_of(d)[0], tables_of(e)[0]);
  const sim::SimProgram f(rx1, {}, &cache);
  EXPECT_EQ(tables_of(f)[0], tables_of(a)[0]);
  EXPECT_EQ(sim::phase_table_build_count() - mark, 2u);

  // A statevector energy evaluator compiles every plan through its cache.
  qaoa::EnergyOptions sv;
  sv.engine = qaoa::EngineKind::Statevector;
  const qaoa::EnergyEvaluator ev(g, sv);
  ASSERT_NE(ev.phase_tables(), nullptr);
  const std::uint64_t plans = sim::phase_table_build_count();
  (void)ev.plan_for(qnas1);
  (void)ev.plan_for(rx1);
  (void)ev.plan_for(qnas2);
  EXPECT_EQ(sim::phase_table_build_count() - plans, 1u);
}

TEST(PhaseTableCache, CachelessCompileBuildsOneTableForEveryLayer) {
  // Without a caller's cache, the compile's own cache still gives the p
  // cost layers of one ansatz one table, bit-identical to a cached compile.
  Rng rng(606);
  const auto g = graph::random_regular(10, 3, rng);
  const auto qnas3 = qaoa::build_qaoa_circuit(g, 3, qaoa::MixerSpec::qnas());
  const std::uint64_t before = sim::phase_table_build_count();
  const sim::SimProgram alone(qnas3);
  EXPECT_EQ(sim::phase_table_build_count() - before, 1u);
  const auto tables = tables_of(alone);
  ASSERT_EQ(tables.size(), 3u);
  EXPECT_EQ(tables[1], tables[0]);
  EXPECT_EQ(tables[2], tables[0]);

  sim::PhaseTableCache cache;
  const sim::SimProgram cached(qnas3, {}, &cache);
  std::vector<double> theta(qnas3.num_params());
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  expect_states_close(alone.run_from_plus(theta), cached.run_from_plus(theta),
                      0.0, "p=3");
}

TEST(PhaseTableCache, KeepsTheMostRecentlyUsedTables) {
  sim::PhaseTableCache cache;
  std::size_t built = 0;
  const auto build = [&] {
    ++built;
    return std::make_shared<const sim::PhaseTable>();
  };
  const auto first = cache.get("k0", build);
  for (std::size_t k = 1; k < sim::PhaseTableCache::kCapacity; ++k)
    (void)cache.get("k" + std::to_string(k), build);
  EXPECT_EQ(cache.get("k0", build), first);  // a hit moves k0 to the front
  (void)cache.get("new", build);             // evicts k1, the oldest
  EXPECT_EQ(cache.get("k0", build), first);
  EXPECT_EQ(built, sim::PhaseTableCache::kCapacity + 1);
  (void)cache.get("k1", build);
  EXPECT_EQ(built, sim::PhaseTableCache::kCapacity + 2);

  // A run whose classes overflow caches its null table like any other.
  const auto overflow = [&] {
    ++built;
    return std::shared_ptr<const sim::PhaseTable>();
  };
  EXPECT_EQ(cache.get("overflow", overflow), nullptr);
  EXPECT_EQ(cache.get("overflow", overflow), nullptr);
  EXPECT_EQ(built, sim::PhaseTableCache::kCapacity + 3);
}

TEST(PhaseTableCache, ConcurrentCompilesShareOneTable) {
  Rng rng(707);
  const auto g = graph::random_regular(12, 3, rng);
  const auto ansatz = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());
  const std::vector<double> theta = {0.3, 0.9, -0.6, 0.2};
  const sim::State want = sim::SimProgram(ansatz).run_from_plus(theta);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    sim::PhaseTableCache cache;
    std::vector<std::unique_ptr<sim::SimProgram>> programs(2 * threads);
    const std::uint64_t before = sim::phase_table_build_count();
    parallel::parallel_for(
        0, programs.size(),
        [&](std::size_t i) {
          programs[i] =
              std::make_unique<sim::SimProgram>(ansatz, sim::PlanOptions{},
                                                &cache);
        },
        threads, 1);
    // Racing misses may each build, but every program keeps the table the
    // cache held first.
    const std::uint64_t builds = sim::phase_table_build_count() - before;
    EXPECT_GE(builds, 1u);
    EXPECT_LE(builds, threads);
    const auto* table = tables_of(*programs[0]).at(0);
    for (const auto& program : programs) {
      const auto tables = tables_of(*program);
      ASSERT_EQ(tables.size(), 2u);
      EXPECT_EQ(tables[0], table);
      EXPECT_EQ(tables[1], table);
      expect_states_close(program->run_from_plus(theta), want, 0.0,
                          std::to_string(threads) + " threads");
    }
  }
}

TEST(PhaseTableCache, TensorNetworkScorerBuildsTheCostLayerOnce) {
  // The TN engine's Eq. 3 scoring pass replays a one-shot statevector
  // program per candidate; its cost-layer table comes from the energy
  // evaluator's cache, built for the first candidate only.
  Rng rng(808);
  const auto g = graph::random_regular(8, 3, rng);
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::TensorNetwork;
  opt.cobyla.max_evals = 20;
  const search::Evaluator evaluator(g, opt);
  const std::uint64_t before = sim::phase_table_build_count();
  const auto a = evaluator.evaluate(qaoa::MixerSpec::baseline(), 1);
  const auto b = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(sim::phase_table_build_count() - before, 1u);
  EXPECT_GT(a.sampled_ratio, 0.0);
  EXPECT_GT(b.sampled_ratio, 0.0);
}

TEST(PhaseTableCache, SampledObjectiveBuildsTheCostLayerOnce) {
  // A sampled objective trains each candidate on a query::Sampler, and the
  // Eq. 3 scorer after it replays a one-shot program. Both compile through
  // the energy evaluator's cache, so two p = 2 candidates, with two cost
  // layers each, build one cost-layer table between them.
  Rng rng(809);
  const auto g = graph::random_regular(8, 3, rng);
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::Statevector;
  opt.objective.kind = qaoa::ObjectiveKind::CVaR;
  opt.objective.shots = 32;
  opt.cobyla.max_evals = 20;
  const search::Evaluator evaluator(g, opt);
  const std::uint64_t before = sim::phase_table_build_count();
  const auto a = evaluator.evaluate(qaoa::MixerSpec::baseline(), 2);
  const auto b = evaluator.evaluate(qaoa::MixerSpec::qnas(), 2);
  EXPECT_EQ(sim::phase_table_build_count() - before, 1u);
  EXPECT_GT(a.sampled_ratio, 0.0);
  EXPECT_GT(b.sampled_ratio, 0.0);
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
  // whole compiled replay agrees across the process-wide switch to
  // compiler-contraction noise (bit-for-bit on builds where the scalar
  // bodies are not FMA-contracted, e.g. the default no -mfma build).
  Rng rng(909);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(9);
    const auto c = random_circuit(rng, n, 30, 2, kFullPool);
    const std::vector<double> theta = {0.9, -0.2};
    const sim::SimProgram program(c);
    const sim::State simd_on = program.run_from_plus(theta);
    sim::State simd_off;
    {
      const sim::simd::ScopedRuntime scalar(false);
      simd_off = program.run_from_plus(theta);
    }
    expect_states_close(simd_on, simd_off, 1e-12,
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
  opt.energy.sv_plan.phase_tables = false;
  opt.energy.plan_cache_capacity = 5;

  // The ONE reconciliation: evaluator-level presimplify wins...
  opt.simplify_circuit = true;
  const auto eff = opt.effective_energy();
  EXPECT_FALSE(eff.sv_plan.presimplify);
  // ...everything else passes through untouched.
  EXPECT_EQ(eff.inner_workers, 3u);
  EXPECT_EQ(eff.sv_plan.block_qubits, 12u);
  EXPECT_FALSE(eff.sv_plan.phase_tables);
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

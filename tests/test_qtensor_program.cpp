// Compiled contraction plans (qtensor::ContractionProgram): randomized
// statevector-vs-qtensor energy equivalence across mixers, graph families,
// and depths — on the compiled path — plus the rebind-per-theta contract,
// the slicing decision, concurrent replays, and the network_build_count
// plan-reuse probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/circuit.hpp"
#include "circuit/optimizer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/train.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/network.hpp"
#include "qtensor/program.hpp"
#include "query/program.hpp"
#include "search/evaluator.hpp"
#include "sim/sim_program.hpp"
#include "sim/simd.hpp"

namespace {

using namespace qarch;
using circuit::GateKind;
using linalg::cplx;
using qtensor::Tensor;
using qtensor::VarId;

/// Random circuit with SYMBOL-parameterized gates so the program's
/// rebind-per-theta path is exercised (constant-angle circuits would bake
/// every tensor and rebind nothing).
circuit::Circuit random_symbolic_circuit(std::size_t n, std::size_t gates,
                                         std::size_t params, Rng& rng) {
  circuit::Circuit c(n);
  for (std::size_t i = 0; i < params; ++i) c.add_param();
  const GateKind one_q[] = {GateKind::H,  GateKind::X,  GateKind::RX,
                            GateKind::RY, GateKind::RZ, GateKind::P,
                            GateKind::S,  GateKind::T};
  const GateKind two_q[] = {GateKind::CX, GateKind::CZ, GateKind::RZZ};
  auto param_for = [&](GateKind k) {
    if (!circuit::is_parameterized(k)) return circuit::ParamExpr::none();
    if (rng.bernoulli(0.7))
      return circuit::ParamExpr::symbol(rng.uniform_int(params),
                                        rng.uniform(-2.0, 2.0));
    return circuit::ParamExpr::constant_angle(rng.uniform(-3.0, 3.0));
  };
  for (std::size_t i = 0; i < gates; ++i) {
    if (n >= 2 && rng.bernoulli(0.35)) {
      const GateKind k = two_q[rng.uniform_int(3)];
      std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
      while (b == a) b = rng.uniform_int(n);
      c.append({k, a, b, param_for(k)});
    } else {
      const GateKind k = one_q[rng.uniform_int(8)];
      c.append({k, rng.uniform_int(n), 0, param_for(k)});
    }
  }
  return c;
}

std::vector<double> random_theta(std::size_t params, Rng& rng) {
  std::vector<double> theta(params);
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  return theta;
}

// ---------------------------------------------------------------------------
// Program vs the rebuild-per-call simulator, across thetas (rebind contract).
// ---------------------------------------------------------------------------

TEST(ContractionProgram, MatchesSimulatorAcrossThetas) {
  Rng rng(19);
  const qtensor::QTensorSimulator reference;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 3 + rng.uniform_int(3);
    const circuit::Circuit c = random_symbolic_circuit(n, 14, 3, rng);
    const std::size_t u = rng.uniform_int(n);
    std::size_t v = rng.uniform_int(n);
    while (v == u) v = rng.uniform_int(n);

    const qtensor::ContractionProgram program(c, u, v);
    // One compilation, many thetas: every replay must match a from-scratch
    // network build + contraction at the same parameters.
    for (int step = 0; step < 4; ++step) {
      const auto theta = random_theta(3, rng);
      const double compiled = program.expectation_zz(theta);
      const double rebuilt = reference.expectation_zz(c, theta, u, v);
      EXPECT_NEAR(compiled, rebuilt, 1e-9)
          << "trial " << trial << " step " << step;
    }
  }
}

TEST(ContractionProgram, RepeatedReplaySameThetaIsStable) {
  // Scratch buffers are reused across replays; stale state would show up as
  // a drifting value.
  Rng rng(23);
  const circuit::Circuit c = random_symbolic_circuit(4, 12, 2, rng);
  const qtensor::ContractionProgram program(c, 0, 2);
  const std::vector<double> theta{0.3, -1.1};
  const double first = program.expectation_zz(theta);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(program.expectation_zz(theta), first);
}

TEST(ContractionProgram, ConcurrentReplaysAgree) {
  Rng rng(29);
  const circuit::Circuit c = random_symbolic_circuit(5, 16, 2, rng);
  const qtensor::ContractionProgram program(c, 1, 3);
  const std::vector<double> theta{0.7, 0.2};
  const double expected = program.expectation_zz(theta);
  std::vector<double> got(16, 0.0);
  parallel::parallel_for(
      0, got.size(),
      [&](std::size_t i) { got[i] = program.expectation_zz(theta); },
      4);
  for (double g : got) EXPECT_EQ(g, expected);
}

TEST(ContractionProgram, ConcurrentOpenLabelReplaysAgree) {
  // Open-label replays lay their output out in the leased scratch; four
  // threads replaying one program must match its serial replay bit for bit.
  Rng rng(37);
  const auto g = graph::random_regular(8, 3, rng);
  const auto ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::vector<std::size_t> open = {0, 3, 6};
  const query::BatchedAmplitudeProgram program(ansatz, open);
  const auto theta = random_theta(ansatz.num_params(), rng);
  std::vector<std::vector<int>> fixed(16, std::vector<int>(5));
  for (auto& bits : fixed)
    for (int& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  std::vector<std::vector<cplx>> expected;
  for (const auto& bits : fixed)
    expected.push_back(program.amplitudes(theta, bits));
  std::vector<std::vector<cplx>> got(fixed.size());
  parallel::parallel_for(
      0, fixed.size(),
      [&](std::size_t i) { got[i] = program.amplitudes(theta, fixed[i]); },
      4);
  EXPECT_EQ(got, expected);
}

TEST(ContractionProgram, SlicedScheduleMatchesUnsliced) {
  Rng rng(31);
  for (int trial = 0; trial < 4; ++trial) {
    const circuit::Circuit c = random_symbolic_circuit(5, 16, 2, rng);
    qtensor::ProgramOptions sliced;
    sliced.slice_above_width = 2;  // force the slicing decision
    sliced.max_slice_vars = 3;
    const qtensor::ContractionProgram with(c, 0, 3, sliced);
    const qtensor::ContractionProgram without(c, 0, 3);
    EXPECT_GE(with.stats().slice_vars, 1u);
    EXPECT_EQ(without.stats().slice_vars, 0u);
    for (int step = 0; step < 3; ++step) {
      const auto theta = random_theta(2, rng);
      EXPECT_NEAR(with.expectation_zz(theta),
                  without.expectation_zz(theta), 1e-9)
          << "trial " << trial;
    }
  }
}

TEST(ContractionProgram, StatsReflectCompilation) {
  Rng rng(3);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const auto& e = g.edges()[0];
  const qtensor::ContractionProgram program(c, e.u, e.v);
  const auto& st = program.stats();
  EXPECT_GT(st.tensors, 0u);
  EXPECT_GT(st.bound_tensors, 0u);  // QAOA gates are symbol-parameterized
  EXPECT_GT(st.steps, 0u);
  EXPECT_GT(st.width, 0u);
  EXPECT_GT(st.est_flops, 0.0);
  EXPECT_FALSE(st.heuristic.empty());
}

// <C> of two tensor-network plans, recorded in hex before the bucket steps
// replayed compile-time index maps: a rewrite of the step kernel must keep
// these bits (the energy-level twin of SamplerStream.IsPinned in
// test_query.cpp). The SIMD and scalar step bodies multiply in the same
// factor order without FMA, so both must hit the pins.
TEST(ContractionProgram, TensorNetworkEnergiesArePinned) {
  Rng grng(4242);
  const graph::Graph g = graph::random_regular(12, 3, grng);
  qaoa::EnergyOptions tn;
  tn.engine = qaoa::EngineKind::TensorNetwork;
  struct Case {
    const char* name;
    qaoa::Hamiltonian ham;
    std::size_t p;
    double pinned;
  };
  const Case cases[] = {
      {"maxcut p=2", qaoa::Hamiltonian(g), 2, 0x1.eb8408de4bb89p+2},
      {"ising with fields p=1", qaoa::Hamiltonian::ising(g, 0.8, 0.3), 1,
       -0x1.1884e80cfcc83p+2}};
  for (const Case& c : cases) {
    const auto ansatz =
        qaoa::build_qaoa_circuit(g, c.p, qaoa::MixerSpec::parse("rx,ry"));
    Rng trng(7);
    std::vector<double> theta(ansatz.num_params());
    for (double& t : theta) t = trng.uniform(-2.0, 2.0);
    const qaoa::EnergyEvaluator ev(c.ham, tn);
    const auto plan = ev.make_plan(ansatz);
    EXPECT_EQ(plan->energy(theta), c.pinned) << c.name;
    const sim::simd::ScopedRuntime scalar(false);
    EXPECT_EQ(plan->energy(theta), c.pinned) << c.name << " (scalar)";
  }
}

// ---------------------------------------------------------------------------
// The broadcast product kernel (product_walk) that the reference contractor
// and a query's open-label layout share.
// ---------------------------------------------------------------------------

TEST(BucketProduct, MatchesEntrywiseDefinition) {
  // Permuted output labels, a shared label and a rank-0 factor: every entry
  // is the product of the factor entries its assignment selects, in factor
  // order.
  Rng rng(41);
  auto random_tensor = [&](std::vector<VarId> labels) {
    std::vector<cplx> data(std::size_t{1} << labels.size());
    for (auto& x : data) x = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
    return Tensor(std::move(labels), std::move(data));
  };
  const Tensor t1 = random_tensor({0, 1, 2});
  const Tensor t2 = random_tensor({2, 3});
  const Tensor t3 = random_tensor({});
  const std::vector<VarId> out_labels = {3, 0, 1, 2};
  const Tensor p = qtensor::product({&t1, &t2, &t3}, out_labels);
  ASSERT_EQ(p.labels(), out_labels);
  for (std::size_t i = 0; i < p.size(); ++i) {
    auto bit = [&](VarId v) {  // the value of label v at output index i
      const auto pos = static_cast<std::size_t>(
          std::find(out_labels.begin(), out_labels.end(), v) -
          out_labels.begin());
      return static_cast<int>((i >> (out_labels.size() - 1 - pos)) & 1);
    };
    const std::vector<int> b1{bit(0), bit(1), bit(2)}, b2{bit(2), bit(3)};
    const cplx expect = t1.at(b1) * t2.at(b2) * t3.scalar_value();
    EXPECT_LT(std::abs(p.data()[i] - expect), 1e-15) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Randomized statevector-vs-qtensor ENERGY equivalence across mixers, graph
// families, and p on the compiled tensor-network path.
// ---------------------------------------------------------------------------

struct EnergyCase {
  const char* name;
  qaoa::MixerSpec mixer;
};

class EnergyEquivalence : public ::testing::TestWithParam<EnergyCase> {};

TEST_P(EnergyEquivalence, AllEnginesAgreeAcrossGraphFamiliesAndDepth) {
  const qaoa::MixerSpec mixer = GetParam().mixer;
  Rng rng(57);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::random_regular(8, 3, rng));
  graphs.push_back(graph::erdos_renyi_connected(7, 0.4, rng));
  graphs.push_back(graph::complete(5));

  for (const auto& g : graphs) {
    for (std::size_t p : {std::size_t{1}, std::size_t{2}}) {
      const auto ansatz = qaoa::build_qaoa_circuit(g, p, mixer);
      const auto theta = random_theta(ansatz.num_params(), rng);

      qaoa::EnergyOptions sv;
      sv.engine = qaoa::EngineKind::Statevector;
      qaoa::EnergyOptions tn_compiled;
      tn_compiled.engine = qaoa::EngineKind::TensorNetwork;

      const qaoa::EnergyEvaluator ev_sv(g, sv);
      const qaoa::EnergyEvaluator ev_c(g, tn_compiled);

      const double e_sv = ev_sv.energy(ansatz, theta);
      const double e_c = ev_c.energy(ansatz, theta);
      EXPECT_NEAR(e_c, e_sv, 1e-8)
          << GetParam().name << " n=" << g.num_vertices() << " p=" << p;

      // Per-term expectations must agree index-by-index too.
      const auto zz_sv = ev_sv.zz_expectations(ansatz, theta);
      const auto zz_c = ev_c.zz_expectations(ansatz, theta);
      ASSERT_EQ(zz_sv.size(), zz_c.size());
      for (std::size_t k = 0; k < zz_sv.size(); ++k)
        EXPECT_NEAR(zz_c[k], zz_sv[k], 1e-8) << "term " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixers, EnergyEquivalence,
    ::testing::Values(
        EnergyCase{"baseline_rx", qaoa::MixerSpec::baseline()},
        EnergyCase{"qnas_rx_ry", qaoa::MixerSpec::qnas()},
        EnergyCase{"entangling_rx_rzz",
                   qaoa::MixerSpec{{GateKind::RX, GateKind::RZZ}}},
        EnergyCase{"entangling_ry_cx",
                   qaoa::MixerSpec{{GateKind::RY, GateKind::CX}}}),
    [](const ::testing::TestParamInfo<EnergyCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Plan-reuse contract on backend=qtensor: one network build per edge per
// candidate, zero rebuilds across thetas / plan_for hits / restarts.
// ---------------------------------------------------------------------------

TEST(PlanReuse, EnergyCallsNeverRebuildNetworks) {
  Rng rng(71);
  const auto g = graph::random_regular(8, 3, rng);
  const auto ansatz = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());

  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::TensorNetwork;
  const qaoa::EnergyEvaluator evaluator(g, opt);

  qtensor::reset_network_build_count();
  const auto plan = evaluator.plan_for(ansatz);
  const std::uint64_t after_compile = qtensor::network_build_count();
  // Exactly one build per compiled program: shape dedup compiles one
  // representative per distinct lightcone shape, never more than one per
  // edge and at least one overall.
  const auto info = plan->info();
  EXPECT_EQ(after_compile, info.compiled_programs);
  EXPECT_EQ(info.compiled_programs, info.distinct_shapes);
  EXPECT_LE(info.compiled_programs, g.num_edges());
  EXPECT_GE(info.compiled_programs, 1u);

  for (int i = 0; i < 5; ++i) {
    std::vector<double> theta(ansatz.num_params(), 0.1 * (i + 1));
    (void)plan->energy(theta);
  }
  EXPECT_EQ(qtensor::network_build_count(), after_compile);

  // Cache hit: the same structure never compiles twice.
  (void)evaluator.plan_for(ansatz);
  std::vector<double> theta(ansatz.num_params(), 0.5);
  (void)evaluator.energy(ansatz, theta);
  EXPECT_EQ(qtensor::network_build_count(), after_compile);
}

// ---------------------------------------------------------------------------
// Lightcone-shape dedup: symmetric edges share one compiled program.
// ---------------------------------------------------------------------------

TEST(ShapeDedup, RingGraphCompilesOneProgram) {
  // On a cycle every edge lightcone is a rotation of every other: one
  // compiled program must serve all 10 terms — and still match statevector.
  const graph::Graph g = graph::ring(10);
  const auto ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::baseline());

  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::TensorNetwork;
  const qaoa::EnergyEvaluator ev(g, opt);
  const auto plan = ev.plan_for(ansatz);
  const auto info = plan->info();
  EXPECT_EQ(info.terms, g.num_edges());
  EXPECT_EQ(info.distinct_shapes, 1u);
  EXPECT_EQ(info.compiled_programs, 1u);

  qaoa::EnergyOptions sv;
  sv.engine = qaoa::EngineKind::Statevector;
  const qaoa::EnergyEvaluator ev_sv(g, sv);
  const std::vector<double> theta(ansatz.num_params(), 0.4);
  EXPECT_NEAR(plan->energy(theta), ev_sv.energy(ansatz, theta), 1e-8);
}

TEST(ShapeDedup, RegularGraphSharesPrograms) {
  Rng rng(83);
  const auto g = graph::random_regular(10, 3, rng);
  const auto ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::baseline());

  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::TensorNetwork;
  const qaoa::EnergyEvaluator ev(g, opt);
  const auto info = ev.plan_for(ansatz)->info();
  EXPECT_EQ(info.terms, g.num_edges());
  EXPECT_EQ(info.compiled_programs, info.distinct_shapes);
  // Degree-regular p=1 cones differ only by local cycle structure: far
  // fewer classes than edges.
  EXPECT_LT(info.compiled_programs, g.num_edges());
  EXPECT_GE(info.compiled_programs, 1u);
}

TEST(ShapeDedup, DedupedTermsMatchPerEdgeOracle) {
  Rng rng(89);
  const auto g = graph::random_regular(8, 3, rng);
  const auto ansatz = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const std::vector<double> theta(ansatz.num_params(), -0.7);

  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::TensorNetwork;
  const qaoa::EnergyEvaluator ev(g, opt);
  const auto plan = ev.plan_for(ansatz);

  // Dedup compiles one program per shape class and broadcasts its value to
  // every member edge; each broadcast value must be that edge's own
  // <Z_u Z_v>, as the one-shot facade contracts it edge by edge.
  EXPECT_LE(plan->info().compiled_programs, g.num_edges());
  const auto zz = plan->zz_expectations(theta);
  const auto& terms = ev.hamiltonian().terms();
  ASSERT_EQ(zz.size(), terms.size());
  const qtensor::QTensorSimulator oracle;
  for (std::size_t k = 0; k < zz.size(); ++k)
    EXPECT_NEAR(zz[k], oracle.expectation_zz(ansatz, theta, terms[k].u,
                                             terms[k].v),
                1e-9)
        << "term " << k;
}

TEST(PlanReuse, MultistartRestartsShareOneCompilation) {
  Rng rng(73);
  const auto g = graph::random_regular(6, 3, rng);

  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::TensorNetwork;
  opt.cobyla.max_evals = 12;
  opt.restarts = 3;
  opt.shots = 8;
  opt.sample_trials = 1;
  const search::Evaluator evaluator(g, opt);

  qtensor::reset_network_build_count();
  const auto result = evaluator.evaluate(qaoa::MixerSpec::baseline(), 1);
  // The whole candidate — every COBYLA step of every restart, plus the
  // sampling pass (statevector-based) — builds at most one network per edge
  // (one per distinct lightcone shape, with dedup typically far fewer).
  EXPECT_LE(qtensor::network_build_count(), g.num_edges());
  EXPECT_GE(qtensor::network_build_count(), 1u);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(PlanReuse, TensorNetworkEvaluateCompilesOnlyTheScoringProgram) {
  // The Eq. 3 scoring pass replays ONE one-shot SimProgram; training builds
  // exactly the networks a fresh plan for the candidate builds.
  Rng rng(79);
  const auto g = graph::random_regular(8, 3, rng);
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::TensorNetwork;
  opt.cobyla.max_evals = 12;
  opt.shots = 16;
  opt.sample_trials = 2;
  const auto mixer = qaoa::MixerSpec::qnas();
  const auto ansatz = circuit::optimize(qaoa::build_qaoa_circuit(g, 2, mixer));

  qtensor::reset_network_build_count();
  (void)qaoa::EnergyEvaluator(g, opt.effective_energy()).make_plan(ansatz);
  const std::uint64_t training_builds = qtensor::network_build_count();
  ASSERT_GE(training_builds, 1u);

  const search::Evaluator evaluator(g, opt);
  qtensor::reset_network_build_count();
  sim::reset_program_compile_count();
  const auto result = evaluator.evaluate(mixer, 2);
  EXPECT_EQ(sim::program_compile_count(), 1u);
  EXPECT_EQ(qtensor::network_build_count(), training_builds);
  EXPECT_GT(result.sampled_ratio, 0.0);
}

}  // namespace

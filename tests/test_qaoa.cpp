// QAOA library tests: Hamiltonian, ansatz structure, engine agreement,
// plans, training behaviour, and the approximation ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "optim/cobyla.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qaoa/mixer.hpp"
#include "qaoa/sampling.hpp"
#include "qaoa/train.hpp"
#include "sim/simd.hpp"

namespace {

using namespace qarch;
using circuit::GateKind;
using qaoa::MixerSpec;

graph::Graph square() {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  return g;
}

TEST(Hamiltonian, TermsMirrorEdges) {
  graph::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 4.0);
  const qaoa::MaxCutHamiltonian h(g);
  EXPECT_DOUBLE_EQ(h.constant(), 3.0);
  ASSERT_EQ(h.terms().size(), 2u);
  EXPECT_DOUBLE_EQ(h.terms()[0].coefficient, -1.0);
  EXPECT_DOUBLE_EQ(h.terms()[1].coefficient, -2.0);
}

TEST(Hamiltonian, ClassicalValueEqualsCutWeight) {
  const graph::Graph g = square();
  const qaoa::MaxCutHamiltonian h(g);
  EXPECT_DOUBLE_EQ(h.classical_value({1, -1, 1, -1}), 4.0);
  EXPECT_DOUBLE_EQ(h.classical_value({1, 1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(h.classical_value({1, 1, -1, -1}), 2.0);
  EXPECT_THROW((void)h.classical_value({2, 0, 0, 0}), Error);
}

TEST(Hamiltonian, EnergyAtZeroZZEqualsHalfTotalWeight) {
  const graph::Graph g = square();
  const qaoa::MaxCutHamiltonian h(g);
  EXPECT_DOUBLE_EQ(h.energy({0, 0, 0, 0}), 2.0);  // m/2 at <ZZ>=0
}

TEST(MixerSpec, ParseAndPrintRoundTrip) {
  const MixerSpec s = MixerSpec::parse("('rx', 'ry')");
  EXPECT_EQ(s.gates, (std::vector<GateKind>{GateKind::RX, GateKind::RY}));
  EXPECT_EQ(s.to_string(), "('rx', 'ry')");
  EXPECT_EQ(MixerSpec::parse("h,p").gates,
            (std::vector<GateKind>{GateKind::H, GateKind::P}));
  EXPECT_THROW(MixerSpec::parse(""), Error);
  EXPECT_THROW(MixerSpec::parse("nope"), Error);
}

TEST(MixerLayer, SharedParameterAndTwoBetaConvention) {
  const auto c = qaoa::build_mixer_circuit(3, MixerSpec::qnas());
  EXPECT_EQ(c.num_params(), 1u);           // one shared β
  EXPECT_EQ(c.num_gates(), 6u);            // (rx, ry) on each of 3 qubits
  for (const auto& g : c.gates()) {
    ASSERT_EQ(g.param.kind, circuit::ParamExpr::Kind::Symbol);
    EXPECT_EQ(g.param.index, 0u);
    EXPECT_DOUBLE_EQ(g.param.scale, 2.0);  // RX(2β), RY(2β) — Fig. 6
  }
}

TEST(MixerLayer, FixedGatesCarryNoParameter) {
  const auto c = qaoa::build_mixer_circuit(2, MixerSpec::parse("h,p"));
  EXPECT_EQ(c.gates()[0].kind, GateKind::H);
  EXPECT_EQ(c.gates()[0].param.kind, circuit::ParamExpr::Kind::None);
  EXPECT_EQ(c.gates()[2].kind, GateKind::P);
  EXPECT_EQ(c.gates()[2].param.kind, circuit::ParamExpr::Kind::Symbol);
}

TEST(MixerLayer, TwoQubitGatesApplyAsRing) {
  // Extension: two-qubit kinds in a mixer spec are applied as an entangling
  // ring (see test_entangling_mixer.cpp for the full coverage).
  MixerSpec ring;
  ring.gates = {GateKind::CZ};
  const auto layer = qaoa::build_mixer_circuit(4, ring);
  EXPECT_EQ(layer.num_gates(), 4u);
  EXPECT_EQ(layer.two_qubit_gate_count(), 4u);
  // A single-qubit register cannot host an entangling ring.
  EXPECT_THROW(qaoa::build_mixer_circuit(1, ring), Error);
}

TEST(Ansatz, LayerStructureAndParameterCount) {
  const graph::Graph g = square();
  for (std::size_t p : {1u, 2u, 3u}) {
    const auto c = qaoa::build_qaoa_circuit(g, p, MixerSpec::baseline());
    EXPECT_EQ(c.num_params(), 2 * p);
    // Per layer: |E| RZZ gates + n RX gates.
    EXPECT_EQ(c.num_gates(), p * (g.num_edges() + g.num_vertices()));
    EXPECT_EQ(c.two_qubit_gate_count(), p * g.num_edges());
  }
  EXPECT_THROW(qaoa::build_qaoa_circuit(g, 0, MixerSpec::baseline()), Error);
}

TEST(Ansatz, KnownP1EnergyOnSquareGraph) {
  // For a triangle-free graph at p=1 with the standard RX mixer
  // (Wang et al. 2018): <C_uv> = 1/2 + (1/4) sin(4β) sin(γ)
  // (cos^{d_u - 1}γ + cos^{d_v - 1}γ). On the 4-cycle (all degrees 2) this
  // sums to <C> = 2 + 2 sin(4β) sin(γ) cos(γ) under our RZZ(-γ w) sign
  // convention. Check the simulated energy against the closed form.
  const graph::Graph g = square();
  const qaoa::EnergyEvaluator ev(g, {});
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::baseline());
  for (double gamma : {0.2, 0.7, 1.1}) {
    for (double beta : {0.15, 0.4}) {
      const double analytic = 2.0 + 2.0 * std::sin(4 * beta) *
                                        std::sin(gamma) * std::cos(gamma);
      const double got = ev.energy(c, std::vector<double>{gamma, beta});
      EXPECT_NEAR(got, analytic, 1e-9) << "γ=" << gamma << " β=" << beta;
    }
  }
}

TEST(Energy, EnginesAgreeOnRandomGraphs) {
  Rng rng(19);
  for (int t = 0; t < 3; ++t) {
    const auto g = graph::erdos_renyi_connected(7, 0.45, rng);
    const auto c = qaoa::build_qaoa_circuit(g, 2, MixerSpec::qnas());
    std::vector<double> theta(c.num_params());
    for (auto& x : theta) x = rng.uniform(-1.5, 1.5);

    qaoa::EnergyOptions sv_opt;
    sv_opt.engine = qaoa::EngineKind::Statevector;
    qaoa::EnergyOptions tn_opt;
    tn_opt.engine = qaoa::EngineKind::TensorNetwork;

    const double e_sv = qaoa::EnergyEvaluator(g, sv_opt).energy(c, theta);
    const double e_tn = qaoa::EnergyEvaluator(g, tn_opt).energy(c, theta);
    EXPECT_NEAR(e_sv, e_tn, 1e-8);
  }
}

TEST(Energy, TensorNetworkPlanReuseIsConsistent) {
  Rng rng(23);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::qnas());
  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::TensorNetwork;
  const qaoa::EnergyEvaluator ev(g, opt);
  const auto plan = ev.make_plan(c);
  for (int i = 0; i < 4; ++i) {
    std::vector<double> theta(c.num_params());
    for (auto& x : theta) x = rng.uniform(-2, 2);
    EXPECT_NEAR(plan->energy(theta), ev.energy(c, theta), 1e-9);
  }
}

TEST(Energy, InnerWorkersDoNotChangeResult) {
  Rng rng(29);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::baseline());
  const std::vector<double> theta{0.5, 0.3};
  qaoa::EnergyOptions serial_opt;
  serial_opt.engine = qaoa::EngineKind::TensorNetwork;
  serial_opt.inner_workers = 1;
  qaoa::EnergyOptions par_opt = serial_opt;
  par_opt.inner_workers = 6;
  const double a = qaoa::EnergyEvaluator(g, serial_opt).energy(c, theta);
  const double b = qaoa::EnergyEvaluator(g, par_opt).energy(c, theta);
  EXPECT_NEAR(a, b, 1e-12);
}

qaoa::EnergyOptions statevector_options() {
  qaoa::EnergyOptions opt;
  opt.engine = qaoa::EngineKind::Statevector;
  return opt;
}

/// Unweighted MaxCut, weighted MaxCut, MIS and Ising with a field on one
/// graph: the four diagonal cost families the evaluator serves.
std::vector<std::pair<std::string, qaoa::Hamiltonian>> cost_families(
    const graph::Graph& g, Rng& rng) {
  const graph::Graph weighted = graph::with_random_weights(g, 0.1, 2.0, rng);
  return {{"maxcut", qaoa::Hamiltonian(g)},
          {"weighted maxcut", qaoa::Hamiltonian(weighted)},
          {"mis", qaoa::Hamiltonian::mis(g, 1.75)},
          {"ising+field", qaoa::Hamiltonian::ising(weighted, 0.8, 0.3)}};
}

/// |constant| + sum of |coefficients|: bounds |<C>|, the scale for
/// relative comparisons of energies that may sit near zero.
double cost_scale(const qaoa::Hamiltonian& ham) {
  double s = std::abs(ham.constant());
  for (const auto& t : ham.terms()) s += std::abs(t.coefficient);
  for (const auto& t : ham.z_terms()) s += std::abs(t.coefficient);
  return s;
}

TEST(CostDiagonal, EqualsClassicalValueBitsOnEveryFamily) {
  Rng rng(53);
  const auto g = graph::random_regular(12, 3, rng);
  for (const auto& [name, ham] : cost_families(g, rng)) {
    const qaoa::EnergyEvaluator ev(ham, statevector_options());
    const auto diag = ev.cost_diagonal();
    ASSERT_EQ(diag.size(), std::size_t{1} << 12) << name;
    std::size_t mismatches = 0;
    for (std::size_t x = 0; x < diag.size(); ++x)
      if (diag[x] != ham.classical_value_bits(x)) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << name;
    EXPECT_EQ(*std::max_element(diag.begin(), diag.end()),
              qaoa::classical_maximum(ham))
        << name;
  }
  // Unweighted cuts are sums of halves, so the table's maximum is the exact
  // solver's value to the bit.
  const qaoa::EnergyEvaluator ev(g, statevector_options());
  EXPECT_EQ(*std::max_element(ev.cost_diagonal().begin(),
                              ev.cost_diagonal().end()),
            graph::maxcut_exact(g).value);
}

TEST(ClassicalMaximum, ClosedFormsPastEnumeration) {
  // Bucket elimination's cost follows the interaction graph's elimination
  // width, not n: rings and grids at n = 40 and 64 solve in well under a
  // second. Each maximum is an exact small integer, so equality is exact.
  const graph::Graph ring40 = graph::cycle(40), ring64 = graph::cycle(64);
  const graph::Graph grid40 = graph::grid(5, 8), grid64 = graph::grid(8, 8);
  const graph::Graph k12 = graph::complete(12);
  const struct {
    const char* name;
    qaoa::Hamiltonian ham;
    double expected;
  } cases[] = {
      // Bipartite graphs cut every edge, and antiferromagnetic Ising
      // (maximizing -sum z_u z_v) anti-aligns every edge.
      {"maxcut C40", qaoa::Hamiltonian(ring40), 40.0},
      {"maxcut C64", qaoa::Hamiltonian(ring64), 64.0},
      {"maxcut grid 5x8", qaoa::Hamiltonian(grid40),
       static_cast<double>(grid40.num_edges())},
      {"maxcut grid 8x8", qaoa::Hamiltonian(grid64),
       static_cast<double>(grid64.num_edges())},
      {"mis C40", qaoa::Hamiltonian::mis(ring40), 20.0},
      {"ising C64", qaoa::Hamiltonian::ising(ring64), 64.0},
      {"ising grid 8x8", qaoa::Hamiltonian::ising(grid64),
       static_cast<double>(grid64.num_edges())},
      // K_12 is one bucket of all 12 variables: the enumeration's value.
      {"maxcut K12", qaoa::Hamiltonian(k12), graph::maxcut_exact(k12).value},
  };
  for (const auto& c : cases)
    EXPECT_EQ(qaoa::classical_maximum(c.ham), c.expected) << c.name;

  // K_28's first bucket holds all 28 variables: refused on width before
  // its 2^27-entry message is allocated.
  EXPECT_THROW((void)qaoa::classical_maximum(
                   qaoa::Hamiltonian(graph::complete(28))),
               InvalidArgument);
}

TEST(Energy, CostDiagonalAgreesWithSweepAcrossFamiliesMixersAndDepth) {
  Rng rng(61);
  const std::vector<graph::Graph> graphs = {
      graph::random_regular(10, 3, rng),
      graph::erdos_renyi_connected(9, 0.4, rng)};
  const std::vector<MixerSpec> mixers = {
      MixerSpec::baseline(), MixerSpec::qnas(), MixerSpec::parse("ry,rz,rx")};
  for (const auto& g : graphs) {
    for (const auto& [name, ham] : cost_families(g, rng)) {
      const qaoa::EnergyEvaluator ev(ham, statevector_options());
      ASSERT_FALSE(ev.cost_diagonal().empty());
      const double tol = 1e-12 * cost_scale(ham);
      for (const auto& mixer : mixers) {
        for (std::size_t p = 1; p <= 3; ++p) {
          const auto c = qaoa::build_qaoa_circuit(g, p, mixer);
          const auto plan = ev.make_plan(c);
          std::vector<double> theta(c.num_params());
          for (auto& x : theta) x = rng.uniform(-2.0, 2.0);
          const double sweep = ham.energy(plan->zz_expectations(theta),
                                          plan->z_expectations(theta));
          EXPECT_NEAR(plan->energy(theta), sweep, tol)
              << name << " " << mixer.to_string() << " p=" << p;
        }
      }
    }
  }
}

TEST(Energy, AboveTheTableGuardEnergyIsTheSweep) {
  Rng rng(67);
  const auto g = graph::random_regular(10, 3, rng);
  // The tensor-network engine never builds the table.
  EXPECT_TRUE(qaoa::EnergyEvaluator(g, {}).cost_diagonal().empty());
  for (const auto& [name, ham] : cost_families(g, rng)) {
    qaoa::EnergyOptions opt = statevector_options();
    opt.sv_plan.phase_table_max_qubits = 9;
    const qaoa::EnergyEvaluator ev(ham, opt);
    ASSERT_TRUE(ev.cost_diagonal().empty());
    const auto c = qaoa::build_qaoa_circuit(g, 2, MixerSpec::qnas());
    const auto plan = ev.make_plan(c);
    std::vector<double> theta(c.num_params());
    for (auto& x : theta) x = rng.uniform(-2.0, 2.0);
    EXPECT_EQ(plan->energy(theta), ham.energy(plan->zz_expectations(theta),
                                              plan->z_expectations(theta)))
        << name;
  }
}

TEST(Energy, StatevectorEnergyIsBitIdenticalAcrossInnerWorkersAndSimd) {
  // n = 16 is above parallel_threshold_qubits (14), so inner > 1 really
  // splits the replay kernels. Neither setting is part of a result-cache or
  // checkpoint key, so neither may move a bit of <C>.
  Rng rng(71);
  const auto g = graph::random_regular(16, 3, rng);
  struct Config {
    std::size_t inner;
    bool simd;
  };
  const Config configs[] = {{1, true}, {2, true},  {4, true},
                            {1, false}, {2, false}, {4, false}};
  // rz makes the ansatz all-diagonal: one multi-symbol phase-table pass.
  for (const auto& mixer : {MixerSpec::baseline(), MixerSpec::qnas(),
                            MixerSpec{{GateKind::RZ}}}) {
    for (std::size_t p = 1; p <= 2; ++p) {
      const auto c = qaoa::build_qaoa_circuit(g, p, mixer);
      std::vector<std::vector<double>> thetas(3);
      for (auto& theta : thetas) {
        theta.resize(c.num_params());
        for (auto& x : theta) x = rng.uniform(-2.0, 2.0);
      }
      std::vector<double> reference;  // inner 1, simd on
      for (const Config& cfg : configs) {
        // simd = false holds the process-wide switch off; true leaves it
        // as the environment set it.
        const sim::simd::ScopedRuntime simd(cfg.simd &&
                                            sim::simd::runtime_enabled());
        qaoa::EnergyOptions opt = statevector_options();
        opt.inner_workers = cfg.inner;
        const qaoa::EnergyEvaluator ev(g, opt);
        const auto plan = ev.make_plan(c);
        std::vector<double> energies;
        for (const auto& theta : thetas)
          energies.push_back(plan->energy(theta));
        if (reference.empty()) reference = energies;
        EXPECT_EQ(energies, reference) << mixer.to_string() << " p=" << p
                                       << " inner=" << cfg.inner
                                       << " simd=" << cfg.simd;
      }
    }
  }
}

// <C> of statevector plans, recorded in hex before the Single pass took
// structured bodies for real and rx-form matrices: the statevector twin of
// ContractionProgram.TensorNetworkEnergiesArePinned (same graph and theta).
// rx, ry and h fuse into structured 2x2s, rx,ry into general ones. Every
// setting below must hit the pins: the SIMD switch, the inner worker count
// and the block size never move a bit of <C>.
TEST(Energy, StatevectorEnergiesArePinned) {
  Rng grng(4242);
  const graph::Graph g = graph::random_regular(12, 3, grng);
  struct Case {
    const char* mixer;
    std::size_t p;
    double pinned;
  };
  const Case cases[] = {
      {"rx", 1, 0x1.2fc563d908fd8p+3},    {"rx", 2, 0x1.48df928a43e0fp+3},
      {"ry", 1, 0x1.bed609bb04e9p+2},     {"ry", 2, 0x1.d1f14bdce00cdp+2},
      {"h", 1, 0x1.b99289ec9f8e5p+2},     {"h", 2, 0x1.1f2c993a6a697p+3},
      {"rx,ry", 1, 0x1.c01237279fcc6p+2}, {"rx,ry", 2, 0x1.eb8408de4bb8fp+2}};
  struct Config {
    std::size_t inner;
    std::size_t block_qubits;
  };
  // Threshold 2 lets inner 2 take the parallel branches at n = 12, and
  // 8-qubit blocks give the replay 16 blocked slices to split between the
  // two workers.
  const Config configs[] = {{1, 15}, {2, 15}, {2, 8}};
  for (const Case& c : cases) {
    const auto ansatz =
        qaoa::build_qaoa_circuit(g, c.p, MixerSpec::parse(c.mixer));
    Rng trng(7);
    std::vector<double> theta(ansatz.num_params());
    for (double& t : theta) t = trng.uniform(-2.0, 2.0);
    for (const bool simd : {true, false}) {
      // false holds the process-wide switch off; true leaves it as the
      // environment set it.
      const sim::simd::ScopedRuntime scope(simd &&
                                           sim::simd::runtime_enabled());
      for (const Config& cfg : configs) {
        qaoa::EnergyOptions opt = statevector_options();
        opt.inner_workers = cfg.inner;
        opt.sv_plan.parallel_threshold_qubits = 2;
        opt.sv_plan.block_qubits = cfg.block_qubits;
        const qaoa::EnergyEvaluator ev(g, opt);
        EXPECT_EQ(ev.make_plan(ansatz)->energy(theta), c.pinned)
            << c.mixer << " p=" << c.p << " simd=" << simd
            << " inner=" << cfg.inner << " block=" << cfg.block_qubits;
      }
    }
  }
}

TEST(Energy, BoundedByMaxCut) {
  Rng rng(37);
  const auto g = graph::random_regular(8, 3, rng);
  const double cmax = graph::maxcut_exact(g).value;
  const auto c = qaoa::build_qaoa_circuit(g, 2, MixerSpec::qnas());
  const qaoa::EnergyEvaluator ev(g, {});
  for (int t = 0; t < 5; ++t) {
    std::vector<double> theta(c.num_params());
    for (auto& x : theta) x = rng.uniform(-3, 3);
    const double e = ev.energy(c, theta);
    EXPECT_LE(e, cmax + 1e-9);
    EXPECT_GE(e, -1e-9);  // <C> is a mean of nonnegative cut values
  }
}

TEST(Train, ImprovesOverInitialEnergy) {
  Rng rng(41);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::baseline());
  const qaoa::EnergyEvaluator ev(g, {});
  qaoa::TrainOptions topt;
  const double initial =
      ev.energy(c, std::vector<double>(c.num_params(), topt.initial_value));
  optim::CobylaConfig cc;
  cc.max_evals = 150;
  const auto r = qaoa::train_qaoa(c, ev, optim::Cobyla(cc), topt);
  EXPECT_GT(r.energy, initial);
  EXPECT_GT(r.energy, 0.6 * graph::maxcut_exact(g).value);
  EXPECT_EQ(r.theta.size(), c.num_params());
}

TEST(Train, DeterministicAcrossRuns) {
  Rng rng(43);
  const auto g = graph::random_regular(6, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::qnas());
  const qaoa::EnergyEvaluator ev(g, {});
  optim::CobylaConfig cc;
  cc.max_evals = 80;
  const auto a = qaoa::train_qaoa(c, ev, optim::Cobyla(cc));
  const auto b = qaoa::train_qaoa(c, ev, optim::Cobyla(cc));
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.theta, b.theta);
}

TEST(ApproximationRatio, DefinitionAndValidation) {
  EXPECT_DOUBLE_EQ(qaoa::approximation_ratio(9.0, 10.0), 0.9);
  EXPECT_THROW(qaoa::approximation_ratio(1.0, 0.0), Error);
}

TEST(Sampling, TrainedCircuitBeatsUniformSampling) {
  // On 10-node 4-regular graphs a trained p=1 circuit concentrates mass on
  // good cuts: its expected best-of-64 sampled cut should reach the optimum
  // region (this is why the paper's Fig. 7/9 ratios sit near 1.0).
  Rng rng(47);
  const auto g = graph::random_regular(10, 4, rng);
  const double cmax = graph::maxcut_exact(g).value;
  const auto c = qaoa::build_qaoa_circuit(g, 1, MixerSpec::qnas());
  const qaoa::EnergyEvaluator ev(g, {});
  optim::CobylaConfig cc;
  cc.max_evals = 200;
  const auto trained = qaoa::train_qaoa(c, ev, optim::Cobyla(cc));
  Rng srng(3);
  const double best =
      qaoa::expected_best_cut(c, trained.theta, g, 64, 8, srng);
  EXPECT_GE(best / cmax, 0.9);
  EXPECT_LE(best / cmax, 1.0 + 1e-12);
}

}  // namespace

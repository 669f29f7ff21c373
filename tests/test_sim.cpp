// Statevector simulator tests: kernels vs dense-matrix oracle, expectations,
// sampling (batched inverse-CDF draws vs the scalar scan), and multithreaded
// kernel agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "linalg/matrix.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/sampling.hpp"
#include "sim/sim_program.hpp"
#include "sim/state_utils.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using circuit::Circuit;
using circuit::GateKind;
using circuit::ParamExpr;
using linalg::cplx;
using linalg::Matrix;

TEST(States, ZeroAndPlus) {
  const auto zero = sim::zero_state(3);
  EXPECT_EQ(zero.size(), 8u);
  EXPECT_EQ(zero[0], cplx(1, 0));
  const auto plus = sim::plus_state(3);
  for (const auto& a : plus) EXPECT_NEAR(std::abs(a), 1.0 / std::sqrt(8.0), 1e-12);
  EXPECT_EQ(sim::state_qubits(plus), 3u);
}

TEST(States, RejectsBadSizes) {
  sim::State bad(3, cplx{0, 0});
  EXPECT_THROW(sim::state_qubits(bad), Error);
}

TEST(Statevector, BellStateFromHCx) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const sim::StatevectorSimulator sv;
  const auto state = sv.run(c, {}, sim::zero_state(2));
  const double r = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(state[0] - cplx{r, 0}), 0.0, 1e-12);  // |00>
  EXPECT_NEAR(std::abs(state[3] - cplx{r, 0}), 0.0, 1e-12);  // |11>
  EXPECT_NEAR(std::abs(state[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(state[2]), 0.0, 1e-12);
  EXPECT_NEAR(sim::expectation_zz(state, 0, 1), 1.0, 1e-12);
}

/// Dense-matrix oracle: builds the full 2^n unitary by kron products.
Matrix full_unitary(const Circuit& c, std::span<const double> theta) {
  const std::size_t n = c.num_qubits();
  Matrix u = Matrix::identity(std::size_t{1} << n);
  for (const auto& g : c.gates()) {
    const Matrix gm = g.matrix(theta);
    // Build the full-space matrix entry by entry (slow; n <= 4 in tests).
    const std::size_t dim = std::size_t{1} << n;
    Matrix full(dim, dim);
    for (std::size_t col = 0; col < dim; ++col) {
      for (std::size_t row = 0; row < dim; ++row) {
        // check untouched bits identical
        bool ok = true;
        for (std::size_t q = 0; q < n; ++q) {
          if (q == g.q0 || (g.arity() == 2 && q == g.q1)) continue;
          if (((row >> q) & 1) != ((col >> q) & 1)) { ok = false; break; }
        }
        if (!ok) continue;
        std::size_t gr, gc;
        if (g.arity() == 1) {
          gr = (row >> g.q0) & 1;
          gc = (col >> g.q0) & 1;
        } else {
          gr = (((row >> g.q0) & 1) << 1) | ((row >> g.q1) & 1);
          gc = (((col >> g.q0) & 1) << 1) | ((col >> g.q1) & 1);
        }
        full(row, col) = gm(gr, gc);
      }
    }
    u = full.matmul(u);
  }
  return u;
}

TEST(Statevector, AgreesWithDenseMatrixOracleOnRandomCircuits) {
  Rng rng(13);
  const sim::StatevectorSimulator sv;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(3);  // 2..4
    Circuit c(n);
    const GateKind pool[] = {GateKind::H,  GateKind::RX, GateKind::RY,
                             GateKind::RZ, GateKind::P,  GateKind::CX,
                             GateKind::CZ, GateKind::RZZ, GateKind::S};
    for (int i = 0; i < 10; ++i) {
      const GateKind k = pool[rng.uniform_int(9)];
      ParamExpr param = circuit::is_parameterized(k)
                            ? ParamExpr::constant_angle(rng.uniform(-3, 3))
                            : ParamExpr::none();
      if (circuit::is_two_qubit(k)) {
        std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
        while (b == a) b = rng.uniform_int(n);
        c.append({k, a, b, param});
      } else {
        c.append({k, rng.uniform_int(n), 0, param});
      }
    }
    const auto got = sv.run_from_plus(c, {});
    const auto expected = full_unitary(c, {}).apply(sim::plus_state(n));
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(std::abs(got[i] - expected[i]), 0.0, 1e-10)
          << "trial " << trial << " amp " << i;
  }
}

TEST(Statevector, NormPreservedByLongCircuits) {
  Rng rng(29);
  const sim::StatevectorSimulator sv;
  Circuit c(5);
  for (int i = 0; i < 60; ++i) {
    if (rng.bernoulli(0.3)) {
      std::size_t a = rng.uniform_int(5), b = rng.uniform_int(5);
      while (b == a) b = rng.uniform_int(5);
      c.rzz(a, b, ParamExpr::constant_angle(rng.uniform(-3, 3)));
    } else {
      c.rx(rng.uniform_int(5), ParamExpr::constant_angle(rng.uniform(-3, 3)));
    }
  }
  const auto state = sv.run_from_plus(c, {});
  EXPECT_NEAR(linalg::norm(state), 1.0, 1e-10);
}

TEST(Statevector, MultithreadedKernelsMatchSerial) {
  // 14 qubits: a Single sweep (8192 pairs) and a Two sweep (4096 quads) each
  // span 4 runs of a forked sweep (2048 pairs, 1024 quads), so the replay
  // below splits across workers; a sweep of one run or less runs inline.
  constexpr std::size_t n = 14;
  Rng rng(31);
  Circuit c(n);
  for (int i = 0; i < 30; ++i) {
    if (rng.bernoulli(0.4)) {
      std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
      while (b == a) b = rng.uniform_int(n);
      c.cx(a, b);
    } else {
      c.ry(rng.uniform_int(n), ParamExpr::constant_angle(rng.uniform(-3, 3)));
    }
  }
  const auto a = sim::StatevectorSimulator().run_from_plus(c, {});
  // The same gates through an unblocked compiled replay at 8 workers, with
  // the threshold lowered to take the parallel path.
  sim::PlanOptions options;
  options.presimplify = false;
  options.cache_blocking = false;
  options.parallel_threshold_qubits = 2;
  const auto b = sim::SimProgram(c, options).run_from_plus({}, 8);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(std::abs(a[i] - b[i]), 0.0, 1e-12);
}

TEST(Expectations, ZAndZZOnProductStates) {
  // |0> has <Z> = +1; X|0> = |1> has <Z> = -1.
  Circuit flip1(2);
  flip1.x(1);
  const sim::StatevectorSimulator sv;
  const auto state = sv.run(flip1, {}, sim::zero_state(2));
  EXPECT_NEAR(sim::expectation_z(state, 0), 1.0, 1e-12);
  EXPECT_NEAR(sim::expectation_z(state, 1), -1.0, 1e-12);
  EXPECT_NEAR(sim::expectation_zz(state, 0, 1), -1.0, 1e-12);
  EXPECT_NEAR(sim::probability(state, 0b10), 1.0, 1e-12);
}

TEST(Expectations, PlusStateHasZeroZ) {
  const auto plus = sim::plus_state(4);
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(sim::expectation_z(plus, q), 0.0, 1e-12);
  EXPECT_NEAR(sim::expectation_zz(plus, 0, 3), 0.0, 1e-12);
}

TEST(Sampling, MatchesDistributionOnBellState) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const sim::StatevectorSimulator sv;
  const auto state = sv.run(c, {}, sim::zero_state(2));
  Rng rng(55);
  std::vector<double> uniforms(4000);
  for (double& r : uniforms) r = rng.uniform();
  int n00 = 0, n11 = 0, other = 0;
  for (const std::size_t s : sim::sample_basis_states(state, uniforms)) {
    if (s == 0) ++n00;
    else if (s == 3) ++n11;
    else ++other;
  }
  EXPECT_EQ(other, 0);
  EXPECT_NEAR(static_cast<double>(n00) / 4000.0, 0.5, 0.05);
}

TEST(Sampling, BestSampledCutBoundedByExact) {
  Rng rng(77);
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  // |+>^4 gives the uniform distribution over assignments.
  const auto state = sim::plus_state(4);
  const double best = qaoa::expected_best_cut(state, g, 256, 1, rng);
  EXPECT_LE(best, 4.0);
  EXPECT_GE(best, 3.0);  // with 256 shots the 4-cut is found w.h.p.
}

TEST(Sampling, CutOfBasisStateMatchesGraphCut) {
  graph::Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  // basis 0b001: vertex 0 on side 1, vertices 1,2 on side 0 → cuts edge (0,1).
  EXPECT_DOUBLE_EQ(qaoa::cut_of_basis_state(g, 0b001), 2.0);
  // basis 0b010: vertex 1 alone → cuts both edges.
  EXPECT_DOUBLE_EQ(qaoa::cut_of_basis_state(g, 0b010), 5.0);
}

TEST(Sampling, NegativeWeightsAreNotClippedToZero) {
  // All-(-1) triangle: every cut is <= 0 and only the empty cut (basis 0 or
  // 0b111) scores 0. (|001> + |011>)/sqrt(2) never yields it: both of its
  // basis states cut two edges, so <C_max> is exactly -2, not 0.
  graph::Graph g(3);
  g.add_edge(0, 1, -1.0);
  g.add_edge(1, 2, -1.0);
  g.add_edge(0, 2, -1.0);
  Circuit c(3);
  for (std::size_t q = 0; q < 3; ++q) c.h(q);  // |+>^3 -> |000>
  c.x(0);
  c.h(1);
  const sim::State state = sim::StatevectorSimulator().run_from_plus(c, {});
  Rng rng(5);
  EXPECT_EQ(qaoa::expected_best_cut(state, g, 16, 1, rng), -2.0);
  EXPECT_EQ(qaoa::expected_best_cut(state, g, 16, 4, rng), -2.0);
  EXPECT_EQ(qaoa::expected_best_cut(c, {}, g, 16, 4, rng), -2.0);
  const query::Sampler sampler(c);
  EXPECT_EQ(
      qaoa::expected_best_value(sampler, {}, qaoa::Hamiltonian(g), 16, 4, rng),
      -2.0);
}

// ---------------------------------------------------------------------------
// Batched inverse-CDF draws: sim::sample_basis_states against a per-uniform
// scan of the running sum that defines a draw, draw for draw, including on
// boundary-adversarial inputs.
// ---------------------------------------------------------------------------

/// The oracle: one uniform at a time, the first index whose ascending
/// running sum of probabilities exceeds it (the last past the total mass).
std::size_t scan_draw(const sim::State& state, double r) {
  double sum = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    sum += std::norm(state[i]);
    if (r < sum) return i;
  }
  return state.size() - 1;
}

/// Expects the batched draw to equal the oracle on every uniform.
void expect_draws_match_scan(const sim::State& state,
                             const std::vector<double>& uniforms,
                             const std::string& what) {
  const std::vector<std::size_t> draws =
      sim::sample_basis_states(state, uniforms);
  EXPECT_EQ(draws.size(), uniforms.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < uniforms.size() && k < draws.size(); ++k) {
    const std::size_t want = scan_draw(state, uniforms[k]);
    if (draws[k] != want && ++mismatches <= 5)
      ADD_FAILURE() << what << ": r = " << std::hexfloat << uniforms[k]
                    << " drew " << std::dec << draws[k] << ", scan " << want;
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

/// Uniforms on every float prefix sum of the state's probabilities (the
/// running sum the batched draw sweeps) and one ulp either side of each,
/// plus r = 0 and the largest uniform below 1.
std::vector<double> boundary_uniforms(const sim::State& state) {
  std::vector<double> out{0.0, std::nextafter(1.0, 0.0)};
  double sum = 0.0;
  for (const cplx& a : state) {
    sum += std::norm(a);
    out.push_back(std::nextafter(sum, -1.0));
    out.push_back(sum);
    out.push_back(std::nextafter(sum, 2.0));
  }
  return out;
}

/// A random state with REAL amplitudes, so |a|^2 is one rounded product
/// however the compiler contracts std::norm, scaled to squared norm `mass`.
sim::State random_real_state(std::size_t n, Rng& rng, double mass = 1.0) {
  sim::State state(std::size_t{1} << n);
  double norm2 = 0.0;
  for (cplx& a : state) {
    a = cplx{rng.uniform(-1.0, 1.0), 0.0};
    norm2 += std::norm(a);
  }
  const double scale = std::sqrt(mass / norm2);
  for (cplx& a : state) a *= scale;
  return state;
}

TEST(BatchedDraw, MatchesScanOnEveryPrefixSumBoundary) {
  Rng rng(8101);
  for (const std::size_t n : {1, 4, 8, 11}) {
    const sim::State state = random_real_state(n, rng);
    expect_draws_match_scan(state, boundary_uniforms(state),
                            "random n=" + std::to_string(n));
  }
}

TEST(BatchedDraw, MatchesScanOnDyadicPlusState) {
  // |+>^n: every probability is 2^-n, every prefix sum an exact dyadic.
  for (const std::size_t n : {1, 3, 6, 10}) {
    const sim::State plus = sim::plus_state(n);
    expect_draws_match_scan(plus, boundary_uniforms(plus),
                            "plus n=" + std::to_string(n));
  }
}

TEST(BatchedDraw, MatchesScanWithExactZeroAmplitudes) {
  Rng rng(8102);
  sim::State state = random_real_state(9, rng);
  // Leading, trailing, and interior runs of exact zeros.
  double kept = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if (i < 5 || i + 7 >= state.size() || i % 3 == 0 || (i / 16) % 4 == 1)
      state[i] = cplx{0.0, 0.0};
    kept += std::norm(state[i]);
  }
  for (cplx& a : state) a /= std::sqrt(kept);
  expect_draws_match_scan(state, boundary_uniforms(state), "zeros");
  const std::vector<std::size_t> draws = sim::sample_basis_states(
      state, std::vector<double>{0.0, 0.25, 0.5, 0.75});
  for (const std::size_t d : draws)
    EXPECT_NE(std::norm(state[d]), 0.0) << "drew a zero-probability index";
}

TEST(BatchedDraw, MatchesScanWithMassOnTheLastIndex) {
  sim::State state(std::size_t{1} << 10, cplx{1e-9, 0.0});
  state.back() = cplx{std::sqrt(1.0 - 1e-18 * (state.size() - 1)), 0.0};
  std::vector<double> uniforms = boundary_uniforms(state);
  Rng rng(8103);
  for (int k = 0; k < 2000; ++k) uniforms.push_back(rng.uniform());
  expect_draws_match_scan(state, uniforms, "last-heavy");
}

TEST(BatchedDraw, MatchesScanUnderNormDrift) {
  // Total mass 1 +/- 1e-12: a uniform past a short total draws the last
  // index; a long total leaves the top of [0,1) inside.
  Rng rng(8104);
  for (const double mass : {1.0 - 1e-12, 1.0 + 1e-12}) {
    const sim::State state = random_real_state(8, rng, mass);
    std::vector<double> uniforms = boundary_uniforms(state);
    for (double r = 1.0 - 4e-12; r < 1.0; r = std::nextafter(r + 1e-14, 2.0))
      uniforms.push_back(r);
    expect_draws_match_scan(state, uniforms,
                            "mass " + std::to_string(mass));
  }
}

TEST(BatchedDraw, MatchesScanOnRandomDrawsFromQaoaStates) {
  // 100k random draws on complex QAOA states, n = 10..14, in the unsorted
  // order the callers pass them.
  Rng rng(8105);
  std::size_t draws = 0;
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {10, 40000}, {12, 40000}, {14, 20000}};
  for (const auto& [n, count] : sizes) {
    const graph::Graph g = graph::random_regular(n, 3, rng);
    const Circuit c = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::qnas());
    std::vector<double> theta(c.num_params());
    for (double& t : theta) t = rng.uniform(-2.0, 2.0);
    const sim::State state = sim::StatevectorSimulator().run_from_plus(c, theta);
    std::vector<double> uniforms(count);
    for (double& r : uniforms) r = rng.uniform();
    expect_draws_match_scan(state, uniforms, "qaoa n=" + std::to_string(n));
    draws += count;
  }
  EXPECT_GE(draws, 100000u);
}

TEST(BatchedDraw, QaoaHelpersConsumeTheSameStream) {
  // A draw of one uniform and expected_best_cut with one trial take one
  // rng.uniform() per shot and resolve each like the oracle.
  Rng grng(8106);
  const graph::Graph g = graph::random_regular(8, 3, grng);
  const Circuit c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::baseline());
  const sim::State state = sim::StatevectorSimulator().run_from_plus(
      c, std::vector<double>{0.7, 0.4});
  Rng lib(17), oracle(17);
  EXPECT_EQ(sim::sample_basis_states(state, std::vector<double>{lib.uniform()})
                .front(),
            scan_draw(state, oracle.uniform()));
  double best = qaoa::cut_of_basis_state(g, scan_draw(state, oracle.uniform()));
  for (int s = 1; s < 64; ++s)
    best = std::max(
        best, qaoa::cut_of_basis_state(g, scan_draw(state, oracle.uniform())));
  EXPECT_EQ(qaoa::expected_best_cut(state, g, 64, 1, lib), best);
}

TEST(BatchedDraw, RejectsNaNUniforms) {
  const sim::State plus = sim::plus_state(2);
  EXPECT_THROW((void)sim::sample_basis_states(
                   plus, std::vector<double>{0.5, std::nan("")}),
               Error);
  EXPECT_TRUE(sim::sample_basis_states(plus, std::vector<double>{}).empty());
}

}  // namespace

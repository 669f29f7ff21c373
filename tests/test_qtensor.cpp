// Tensor-network simulator tests: tensor algebra, the bucket product,
// orderings, and the key property — QTensor contraction agrees with the
// statevector oracle on random circuits under every ordering heuristic.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/network.hpp"
#include "qtensor/ordering.hpp"
#include "qtensor/tensor.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using qtensor::Tensor;
using qtensor::VarId;
using linalg::cplx;

TEST(Tensor, ScalarRoundTrip) {
  const Tensor t = Tensor::scalar(cplx{2.0, -1.0});
  EXPECT_EQ(t.rank(), 0u);
  EXPECT_EQ(t.scalar_value(), (cplx{2.0, -1.0}));
}

TEST(Tensor, RejectsBadData) {
  EXPECT_THROW(Tensor({0, 1}, {1.0, 2.0}), qarch::Error);          // size != 2^rank
  EXPECT_THROW(Tensor({0, 0}, {1., 2., 3., 4.}), qarch::Error);    // repeated label
}

TEST(Tensor, SumOverCollapsesOneIndex) {
  // T[a][b] with a outermost.
  const Tensor t({5, 9}, {1.0, 2.0, 3.0, 4.0});
  const Tensor over_a = t.sum_over(5);
  ASSERT_EQ(over_a.labels(), (std::vector<VarId>{9}));
  EXPECT_EQ(over_a.data()[0], cplx(4.0, 0.0));  // 1+3
  EXPECT_EQ(over_a.data()[1], cplx(6.0, 0.0));  // 2+4
  const Tensor over_b = t.sum_over(9);
  EXPECT_EQ(over_b.data()[0], cplx(3.0, 0.0));  // 1+2
  EXPECT_EQ(over_b.data()[1], cplx(7.0, 0.0));  // 3+4
}

TEST(Tensor, TransposeSwapsLayout) {
  const Tensor t({1, 2}, {1.0, 2.0, 3.0, 4.0});  // t[a][b]
  const Tensor tt = t.transposed({2, 1});        // tt[b][a]
  EXPECT_EQ(tt.data()[0], cplx(1.0, 0.0));
  EXPECT_EQ(tt.data()[1], cplx(3.0, 0.0));
  EXPECT_EQ(tt.data()[2], cplx(2.0, 0.0));
  EXPECT_EQ(tt.data()[3], cplx(4.0, 0.0));
}

TEST(BucketProduct, BroadcastsOverUnion) {
  // A[a] * B[b] over labels (a, b) = outer product.
  const Tensor a({0}, {2.0, 3.0});
  const Tensor b({1}, {5.0, 7.0});
  const Tensor p = qtensor::product({&a, &b}, {0, 1});
  EXPECT_EQ(p.data()[0], cplx(10.0, 0.0));
  EXPECT_EQ(p.data()[1], cplx(14.0, 0.0));
  EXPECT_EQ(p.data()[2], cplx(15.0, 0.0));
  EXPECT_EQ(p.data()[3], cplx(21.0, 0.0));
}

TEST(BucketProduct, SharedLabelProductIsElementwise) {
  const Tensor a({3}, {2.0, 3.0});
  const Tensor b({3}, {10.0, 100.0});
  const Tensor p = qtensor::product({&a, &b}, {3});
  EXPECT_EQ(p.data()[0], cplx(20.0, 0.0));
  EXPECT_EQ(p.data()[1], cplx(300.0, 0.0));
}

// ---------------------------------------------------------------------------
// Circuit-network equivalence against the statevector oracle.
// ---------------------------------------------------------------------------

circuit::Circuit random_circuit(std::size_t n, std::size_t gates, Rng& rng) {
  using circuit::GateKind;
  circuit::Circuit c(n);
  const GateKind one_q[] = {GateKind::H,  GateKind::X,  GateKind::RX,
                            GateKind::RY, GateKind::RZ, GateKind::P,
                            GateKind::S,  GateKind::T};
  const GateKind two_q[] = {GateKind::CX, GateKind::CZ, GateKind::RZZ};
  for (std::size_t i = 0; i < gates; ++i) {
    if (n >= 2 && rng.bernoulli(0.35)) {
      const GateKind k = two_q[rng.uniform_int(3)];
      std::size_t a = rng.uniform_int(n), b = rng.uniform_int(n);
      while (b == a) b = rng.uniform_int(n);
      circuit::ParamExpr param = circuit::is_parameterized(k)
                                     ? circuit::ParamExpr::constant_angle(
                                           rng.uniform(-3.0, 3.0))
                                     : circuit::ParamExpr::none();
      c.append({k, a, b, param});
    } else {
      const GateKind k = one_q[rng.uniform_int(8)];
      circuit::ParamExpr param = circuit::is_parameterized(k)
                                     ? circuit::ParamExpr::constant_angle(
                                           rng.uniform(-3.0, 3.0))
                                     : circuit::ParamExpr::none();
      c.append({k, rng.uniform_int(n), 0, param});
    }
  }
  return c;
}

/// An ordering heuristic: the elimination order of a closed network.
using OrderFn = std::vector<qtensor::VarId> (*)(const qtensor::TensorNetwork&);

class NetworkEquivalence : public ::testing::TestWithParam<OrderFn> {};

TEST_P(NetworkEquivalence, ZZExpectationMatchesStatevector) {
  Rng rng(42);
  const sim::StatevectorSimulator sv;
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + rng.uniform_int(3);  // 3..5 qubits
    const circuit::Circuit c = random_circuit(n, 12, rng);
    const std::size_t u = rng.uniform_int(n);
    std::size_t v = rng.uniform_int(n);
    while (v == u) v = rng.uniform_int(n);

    const sim::State state = sv.run_from_plus(c, {});
    const double expected = sim::expectation_zz(state, u, v);

    const auto net = qtensor::expectation_zz_network(c, {}, u, v);
    const double got = qtensor::contract(net, GetParam()(net)).value.real();
    EXPECT_NEAR(got, expected, 1e-9)
        << "trial " << trial << " n=" << n << " u=" << u << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrderings, NetworkEquivalence,
    ::testing::Values<OrderFn>(
        [](const qtensor::TensorNetwork& net) {
          return qtensor::order_greedy_degree(net);
        },
        [](const qtensor::TensorNetwork& net) {
          return qtensor::order_greedy_fill(net);
        },
        [](const qtensor::TensorNetwork& net) {
          Rng rng(7);
          return qtensor::order_random(net, rng);
        },
        [](const qtensor::TensorNetwork& net) {
          Rng rng(7);
          return qtensor::order_random_restart(net, 16, rng);
        }));

TEST(NetworkEquivalenceAmplitude, MatchesStatevector) {
  Rng rng(7);
  const sim::StatevectorSimulator sv;
  const qtensor::QTensorSimulator qt;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(3);
    const circuit::Circuit c = random_circuit(n, 10, rng);
    const sim::State state = sv.run_from_plus(c, {});
    std::vector<int> bits(n);
    std::size_t idx = 0;
    for (std::size_t q = 0; q < n; ++q) {
      bits[q] = rng.bernoulli(0.5) ? 1 : 0;
      idx |= static_cast<std::size_t>(bits[q]) << q;
    }
    const cplx amp = qt.amplitude(c, {}, bits);
    EXPECT_NEAR(amp.real(), state[idx].real(), 1e-9);
    EXPECT_NEAR(amp.imag(), state[idx].imag(), 1e-9);
  }
}

TEST(Lightcone, DropsGatesOutsideCone) {
  using circuit::GateKind;
  // q0-q1 entangled; q3 has an isolated H that must be dropped for ZZ(0,1).
  circuit::Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.h(3);
  std::set<std::size_t> active;
  const circuit::Circuit lc = qtensor::lightcone_circuit(c, {0, 1}, &active);
  EXPECT_EQ(lc.num_gates(), 2u);
  EXPECT_TRUE(active.count(0) && active.count(1));
  EXPECT_FALSE(active.count(3));
}

TEST(Lightcone, ActivationPropagatesThroughTwoQubitGates) {
  circuit::Circuit c(3);
  c.h(2);        // inside: feeds cx(2,1) which feeds cx(1,0)
  c.cx(2, 1);
  c.cx(1, 0);
  std::set<std::size_t> active;
  const circuit::Circuit lc = qtensor::lightcone_circuit(c, {0}, &active);
  EXPECT_EQ(lc.num_gates(), 3u);
  EXPECT_EQ(active.size(), 3u);
}

TEST(Ordering, WidthNeverBelowLargestTensor) {
  Rng rng(3);
  const circuit::Circuit c = random_circuit(4, 14, rng);
  const auto net = qtensor::expectation_zz_network(c, {}, 0, 1);
  for (auto order : {qtensor::order_greedy_degree(net),
                     qtensor::order_greedy_fill(net)}) {
    const std::size_t w = qtensor::contraction_width(net, order);
    std::size_t max_rank = 0;
    for (const auto& t : net.tensors) max_rank = std::max(max_rank, t.rank());
    EXPECT_GE(w, max_rank);
  }
}

TEST(Ordering, GreedyBeatsOrMatchesRandomOnAverage) {
  Rng rng(5);
  double greedy_total = 0.0, random_total = 0.0;
  for (int trial = 0; trial < 6; ++trial) {
    const circuit::Circuit c = random_circuit(5, 20, rng);
    const auto net = qtensor::expectation_zz_network(c, {}, 0, 1);
    greedy_total += static_cast<double>(qtensor::contraction_width(
        net, qtensor::order_greedy_degree(net)));
    Rng order_rng(trial);
    random_total += static_cast<double>(
        qtensor::contraction_width(net, qtensor::order_random(net, order_rng)));
  }
  EXPECT_LE(greedy_total, random_total);
}

TEST(Contraction, RejectsIncompleteOrder) {
  circuit::Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const auto net = qtensor::expectation_zz_network(c, {}, 0, 1);
  EXPECT_THROW(qtensor::contract(net, {}), qarch::Error);
}

TEST(DiagonalOptimization, ReducesNetworkSize) {
  // Diagonal gates are rank-reduced: an RZZ is one rank-2 tensor over the
  // two live wire variables and an RZ one rank-1 tensor, so only the
  // Hadamards create wire variables. The symbolic angles make the builder
  // record every diagonal gate tensor as a binding.
  circuit::Circuit c(4);
  const std::size_t gamma = c.add_param(), beta = c.add_param();
  for (std::size_t q = 0; q < 4; ++q) c.h(q);
  for (std::size_t q = 0; q + 1 < 4; ++q)
    c.rzz(q, q + 1, circuit::ParamExpr::symbol(gamma));
  for (std::size_t q = 0; q < 4; ++q)
    c.rz(q, circuit::ParamExpr::symbol(beta));

  std::vector<qtensor::GateBinding> bindings;
  const std::vector<double> theta{0.7, 0.3};
  const auto net = qtensor::expectation_zz_network(c, theta, 0, 3, &bindings);
  // The lightcone of {0, 3} keeps the four H, the three RZZ and the RZ on
  // qubits 0 and 3, on both sides of the observable.
  EXPECT_EQ(net.num_vars, 12u);        // 4 input wires + 8 H outputs
  EXPECT_EQ(net.tensors.size(), 28u);  // 8 caps, 18 gates, 2 observables
  EXPECT_EQ(net.total_entries(), 84u);
  ASSERT_EQ(bindings.size(), 10u);     // 6 RZZ + 4 RZ
  for (const qtensor::GateBinding& b : bindings) {
    EXPECT_TRUE(b.diagonal);
    EXPECT_EQ(net.tensors[b.tensor_index].rank(),
              b.gate.kind == circuit::GateKind::RZZ ? 2u : 1u);
  }
}

}  // namespace

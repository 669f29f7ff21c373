// Umbrella-header smoke test: includes the entire public API in one TU and
// exercises one representative call per subsystem — catches missing
// includes, ODR issues, and broken public signatures.
#include <gtest/gtest.h>

#include "qarch.hpp"

namespace {

using namespace qarch;

TEST(Umbrella, EverySubsystemIsReachable) {
  // common
  Rng rng(1);
  EXPECT_LT(rng.uniform(), 1.0);
  EXPECT_EQ(json::parse("[1]").size(), 1u);

  // graph
  const auto g = graph::cycle(4);
  EXPECT_DOUBLE_EQ(graph::maxcut_exact(g).value, 4.0);

  // linalg + circuit
  EXPECT_TRUE(circuit::gate_matrix(circuit::GateKind::H).is_unitary());
  circuit::Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  EXPECT_EQ(circuit::optimize(c).num_gates(), 2u);

  // sim
  const auto state = sim::StatevectorSimulator().run(c, {}, sim::zero_state(2));
  EXPECT_NEAR(sim::expectation_zz(state, 0, 1), 1.0, 1e-12);

  // qtensor (the <ZZ> network assumes the |+>^n initial state)
  const auto plus_run = sim::StatevectorSimulator().run_from_plus(c, {});
  const auto net = qtensor::expectation_zz_network(c, {}, 0, 1);
  const auto plan = qtensor::plan_contraction(net);
  const auto r = qtensor::contract(net, plan.order);
  EXPECT_NEAR(r.value.real(), sim::expectation_zz(plus_run, 0, 1), 1e-10);

  // optim
  optim::CobylaConfig cc;
  cc.max_evals = 30;
  const auto opt = optim::Cobyla(cc).minimize(
      [](std::span<const double> x) { return x[0] * x[0]; }, {1.0});
  EXPECT_LT(opt.value, 0.1);

  // qaoa
  const auto ansatz = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  EXPECT_EQ(ansatz.num_params(), 2u);

  // nn
  Rng nn_rng(2);
  nn::Mlp mlp({2, 4, 1}, {nn::Activation::Tanh, nn::Activation::Identity},
              nn_rng);
  EXPECT_EQ(mlp.forward({0.1, 0.2}).size(), 1u);

  // search
  const auto combos = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  EXPECT_EQ(combos.size(), 5u);

  // parallel
  std::atomic<int> count{0};
  parallel::parallel_for(0, 10, [&](std::size_t) { count.fetch_add(1); }, 4);
  EXPECT_EQ(count.load(), 10);
}

}  // namespace

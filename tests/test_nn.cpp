// Neural predictor tests: matrix ops, backprop against finite differences,
// Adam convergence, and the REINFORCE controller learning a bandit.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/mat.hpp"
#include "nn/mlp.hpp"
#include "search/rl_predictor.hpp"

namespace {

using namespace qarch;
using nn::Activation;
using nn::Mat;
using nn::Mlp;

TEST(Mat, MatvecAndTransposed) {
  Mat m(2, 3);
  // [[1,2,3],[4,5,6]]
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) m(r, c) = v++;
  const auto y = m.matvec({1.0, 1.0, 1.0});
  EXPECT_EQ(y, (std::vector<double>{6.0, 15.0}));
  const auto z = m.matvec_transposed({1.0, 1.0});
  EXPECT_EQ(z, (std::vector<double>{5.0, 7.0, 9.0}));
  EXPECT_THROW(m.matvec({1.0}), Error);
}

TEST(Mat, OuterAccumulate) {
  Mat m(2, 2);
  m.add_outer({1.0, 2.0}, {3.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Softmax, NormalizedAndStable) {
  const auto p = nn::softmax({1000.0, 1000.0, 1000.0});
  for (double v : p) EXPECT_NEAR(v, 1.0 / 3.0, 1e-12);
  const auto q = nn::softmax({0.0, 100.0});
  EXPECT_NEAR(q[1], 1.0, 1e-12);
  double s = 0.0;
  for (double v : nn::softmax({0.3, -1.2, 2.0})) s += v;
  EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  Rng rng(3);
  const Mlp net({4, 8, 3}, {Activation::Tanh, Activation::Identity}, rng);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 3u);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8 * 3 + 3);
  const std::vector<double> x{0.1, -0.2, 0.3, 0.4};
  EXPECT_EQ(net.forward(x), net.forward(x));
}

TEST(Mlp, BackpropMatchesFiniteDifferences) {
  Rng rng(7);
  Mlp net({3, 5, 2}, {Activation::Tanh, Activation::Identity}, rng);
  const std::vector<double> x{0.4, -0.7, 0.2};
  // Loss = sum of outputs; dL/dout = ones.
  auto loss = [&](const Mlp& m) {
    const auto y = m.forward(x);
    return y[0] + y[1];
  };

  Mlp::Trace trace;
  (void)net.forward(x, &trace);
  nn::MlpGradients grads = net.make_gradients();
  net.backward(trace, {1.0, 1.0}, grads);

  const double eps = 1e-6;
  // Spot-check several weight entries in both layers plus biases.
  for (std::size_t layer : {0u, 1u}) {
    for (std::size_t idx : {0u, 3u, 7u}) {
      if (idx >= net.weights()[layer].data().size()) continue;
      Mlp bumped = net;
      bumped.weights()[layer].data()[idx] += eps;
      const double fd = (loss(bumped) - loss(net)) / eps;
      EXPECT_NEAR(fd, grads.w[layer].data()[idx], 1e-4)
          << "layer " << layer << " idx " << idx;
    }
    Mlp bumped = net;
    bumped.biases()[layer][0] += eps;
    const double fd = (loss(bumped) - loss(net)) / eps;
    EXPECT_NEAR(fd, grads.b[layer][0], 1e-4);
  }
}

TEST(Adam, FitsTinyRegression) {
  // Teach a 1-16-1 net the map x -> 2x - 1 on [-1, 1].
  Rng rng(11);
  Mlp net({1, 16, 1}, {Activation::Tanh, Activation::Identity}, rng);
  nn::Adam adam(net, {0.02, 0.9, 0.999, 1e-8});
  Rng data_rng(13);
  for (int step = 0; step < 600; ++step) {
    nn::MlpGradients grads = net.make_gradients();
    for (int b = 0; b < 8; ++b) {
      const double x = data_rng.uniform(-1.0, 1.0);
      const double target = 2.0 * x - 1.0;
      Mlp::Trace trace;
      const auto y = net.forward({x}, &trace);
      net.backward(trace, {2.0 * (y[0] - target) / 8.0}, grads);
    }
    adam.step(net, grads);
  }
  double max_err = 0.0;
  for (double x : {-0.9, -0.3, 0.0, 0.4, 0.8})
    max_err = std::max(max_err,
                       std::abs(net.forward({x})[0] - (2.0 * x - 1.0)));
  EXPECT_LT(max_err, 0.1);
}

TEST(Reinforce, ProposesValidEncodings) {
  const search::GateAlphabet alphabet = search::GateAlphabet::standard();
  search::ReinforceConfig cfg;
  cfg.k_max = 3;
  cfg.budget = 40;
  search::ReinforcePredictor pred(alphabet, cfg);
  std::size_t total = 0;
  while (!pred.exhausted()) {
    for (const auto& enc : pred.propose(8)) {
      EXPECT_GE(enc.size(), 1u);
      EXPECT_LE(enc.size(), 3u);
      for (std::size_t idx : enc) EXPECT_LT(idx, alphabet.size());
      ++total;
    }
  }
  EXPECT_EQ(total, 40u);
  pred.reset();
  EXPECT_FALSE(pred.exhausted());
}

TEST(Reinforce, LearnsABanditPreference) {
  // Reward 1.0 iff the sequence is exactly [2]; the controller should learn
  // to emit gate 2 and stop, beating uniform random (p = 1/5 * stop-prob).
  const search::GateAlphabet alphabet = search::GateAlphabet::standard();
  search::ReinforceConfig cfg;
  cfg.k_max = 2;
  cfg.budget = 100000;  // effectively unbounded within this test
  cfg.learning_rate = 0.1;
  cfg.seed = 5;
  search::ReinforcePredictor pred(alphabet, cfg);

  for (int round = 0; round < 60; ++round) {
    const auto batch = pred.propose(16);
    std::vector<double> rewards;
    rewards.reserve(batch.size());
    for (const auto& enc : batch)
      rewards.push_back(enc.size() == 1 && enc[0] == 2 ? 1.0 : 0.0);
    pred.feedback(batch, rewards);
  }
  // Greedy decode should now produce the rewarded sequence.
  const auto greedy = pred.greedy_decode();
  ASSERT_EQ(greedy.size(), 1u);
  EXPECT_EQ(greedy[0], 2u);
  // And sampled behaviour should be strongly biased toward it.
  const auto sample = pred.propose(64);
  int hits = 0;
  for (const auto& enc : sample)
    if (enc.size() == 1 && enc[0] == 2) ++hits;
  EXPECT_GT(hits, 32);  // >> uniform chance
}

TEST(Reinforce, BaselineTracksRewards) {
  const search::GateAlphabet alphabet = search::GateAlphabet::standard();
  search::ReinforceConfig cfg;
  cfg.budget = 1000;
  search::ReinforcePredictor pred(alphabet, cfg);
  const auto batch = pred.propose(8);
  pred.feedback(batch, std::vector<double>(batch.size(), 0.7));
  EXPECT_NEAR(pred.baseline(), 0.7, 1e-12);
  const auto batch2 = pred.propose(8);
  pred.feedback(batch2, std::vector<double>(batch2.size(), 0.3));
  EXPECT_LT(pred.baseline(), 0.7);
  EXPECT_GT(pred.baseline(), 0.3);
}

TEST(Reinforce, FeedbackValidatesSizes) {
  search::ReinforcePredictor pred(search::GateAlphabet::standard(), {});
  const auto batch = pred.propose(4);
  EXPECT_THROW(pred.feedback(batch, {1.0}), Error);
}

}  // namespace

// Tests for MLP serialization.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/serialize.hpp"
#include "search/rl_predictor.hpp"

namespace {

using namespace qarch;
using nn::Activation;
using nn::Mlp;

TEST(MlpSerialize, JsonRoundTripExactWeights) {
  Rng rng(3);
  Mlp original({3, 7, 2}, {Activation::Tanh, Activation::Identity}, rng);
  const json::Value checkpoint = nn::mlp_to_json(original);

  Rng rng2(99);  // different init — must be fully overwritten
  Mlp restored({3, 7, 2}, {Activation::Tanh, Activation::Identity}, rng2);
  nn::mlp_from_json(checkpoint, restored);

  const std::vector<double> x{0.3, -0.4, 0.9};
  const auto ya = original.forward(x);
  const auto yb = restored.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_DOUBLE_EQ(ya[i], yb[i]);
}

TEST(MlpSerialize, FileRoundTrip) {
  Rng rng(5);
  Mlp model({2, 4, 3}, {Activation::Relu, Activation::Identity}, rng);
  const std::string path = "/tmp/qarch_mlp_test.json";
  nn::save_mlp(model, path);
  Rng rng2(6);
  Mlp loaded({2, 4, 3}, {Activation::Relu, Activation::Identity}, rng2);
  nn::load_mlp(path, loaded);
  std::filesystem::remove(path);
  EXPECT_EQ(model.forward({0.1, 0.2}), loaded.forward({0.1, 0.2}));
}

TEST(MlpSerialize, RejectsShapeMismatch) {
  Rng rng(7);
  const Mlp small({2, 3, 1}, {Activation::Tanh, Activation::Identity}, rng);
  Mlp big({2, 5, 1}, {Activation::Tanh, Activation::Identity}, rng);
  EXPECT_THROW(nn::mlp_from_json(nn::mlp_to_json(small), big), Error);
  json::Value junk = json::Value::object();
  junk.set("format", "other");
  EXPECT_THROW(nn::mlp_from_json(junk, big), Error);
}

TEST(ControllerCheckpoint, WarmPolicySurvivesSaveLoadViaJson) {
  // Train a controller on a bandit, checkpoint its policy conceptually by
  // verifying the serialization layer handles a controller-size network.
  Rng rng(13);
  Mlp policy({10, 32, 6}, {Activation::Tanh, Activation::Identity}, rng);
  const auto checkpoint = nn::mlp_to_json(policy);
  EXPECT_EQ(checkpoint.at("layers").size(), 2u);
  Rng rng2(14);
  Mlp restored({10, 32, 6}, {Activation::Tanh, Activation::Identity}, rng2);
  nn::mlp_from_json(checkpoint, restored);
  const std::vector<double> probe(10, 0.1);
  EXPECT_EQ(policy.forward(probe), restored.forward(probe));
}

}  // namespace

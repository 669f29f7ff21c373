// Tests for the extension modules: constraints, report IO, dataset search,
// noise trajectories, and TN slicing.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "optim/cobyla.hpp"
#include "qtensor/slicing.hpp"
#include "search/constraints.hpp"
#include "search/dataset.hpp"
#include "search/report_io.hpp"
#include "sim/noise.hpp"

namespace {

using namespace qarch;
using circuit::GateKind;

// ---------------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------------

TEST(Constraints, MaxDepthBoundsLayer) {
  const search::MaxDepthConstraint c(2);
  const auto short_mixer = qaoa::MixerSpec::parse("rx,ry");
  const auto long_mixer = qaoa::MixerSpec::parse("rx,ry,rz");
  EXPECT_TRUE(c.admits(short_mixer, qaoa::build_mixer_circuit(4, short_mixer)));
  EXPECT_FALSE(c.admits(long_mixer, qaoa::build_mixer_circuit(4, long_mixer)));
}

TEST(Constraints, TrainableRequiresParameterizedGate) {
  const search::TrainableConstraint c;
  const auto fixed = qaoa::MixerSpec::parse("h");
  const auto trainable = qaoa::MixerSpec::parse("h,p");
  EXPECT_FALSE(c.admits(fixed, qaoa::build_mixer_circuit(2, fixed)));
  EXPECT_TRUE(c.admits(trainable, qaoa::build_mixer_circuit(2, trainable)));
}

TEST(Constraints, NoImmediateRepeat) {
  const search::NoImmediateRepeatConstraint c;
  const auto repeat = qaoa::MixerSpec::parse("rx,rx");
  const auto ok = qaoa::MixerSpec::parse("rx,ry,rx");
  EXPECT_FALSE(c.admits(repeat, qaoa::build_mixer_circuit(2, repeat)));
  EXPECT_TRUE(c.admits(ok, qaoa::build_mixer_circuit(2, ok)));
}

TEST(Constraints, ForbiddenGatesAndPredicate) {
  const search::ForbiddenGatesConstraint ban({GateKind::P});
  const auto with_p = qaoa::MixerSpec::parse("rx,p");
  EXPECT_FALSE(ban.admits(with_p, qaoa::build_mixer_circuit(2, with_p)));

  const search::PredicateConstraint pred(
      "max-two-gates", [](const qaoa::MixerSpec& m, const circuit::Circuit&) {
        return m.gates.size() <= 2;
      });
  const auto three = qaoa::MixerSpec::parse("rx,ry,rz");
  EXPECT_FALSE(pred.admits(three, qaoa::build_mixer_circuit(2, three)));
  EXPECT_EQ(pred.name(), "max-two-gates");
}

TEST(Constraints, SetReportsRejectingConstraint) {
  search::ConstraintSet set;
  set.add(std::make_shared<search::TrainableConstraint>())
      .add(std::make_shared<search::NoImmediateRepeatConstraint>());
  EXPECT_EQ(set.size(), 2u);
  const auto repeat = qaoa::MixerSpec::parse("rx,rx");
  std::string rejected_by;
  EXPECT_FALSE(set.admits(repeat, qaoa::build_mixer_circuit(2, repeat),
                          &rejected_by));
  EXPECT_EQ(rejected_by, "no-repeat");
}

TEST(Constraints, EngineFiltersAndAccounts) {
  Rng rng(31);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session.backend = BackendChoice::Statevector;
  cfg.session.training_evals = 30;
  cfg.constraints.add(std::make_shared<search::TrainableConstraint>());
  const auto report = search::SearchEngine(cfg).run_exhaustive(g, 2);
  // Sequences over {rx,ry,rz,h,p} of length <=2 without any parameterized
  // gate: subsets of {h} repeated → "h" and "h,h" → 2 rejected, 28 evaluated.
  EXPECT_EQ(report.num_candidates, 28u);
  ASSERT_TRUE(report.rejections.count("trainable"));
  EXPECT_EQ(report.rejections.at("trainable"), 2u);
}

// ---------------------------------------------------------------------------
// Report IO
// ---------------------------------------------------------------------------

TEST(ReportIo, JsonRoundTrip) {
  Rng rng(37);
  const auto g = graph::random_regular(6, 3, rng);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session.backend = BackendChoice::Statevector;
  cfg.session.training_evals = 30;
  const auto report = search::SearchEngine(cfg).run_exhaustive(g, 1);

  const std::string path = "/tmp/qarch_report_test.json";
  search::save_report(report, path);
  const auto loaded = search::load_report(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.num_candidates, report.num_candidates);
  EXPECT_EQ(loaded.best.mixer, report.best.mixer);
  EXPECT_DOUBLE_EQ(loaded.best.energy, report.best.energy);
  ASSERT_EQ(loaded.evaluated.size(), report.evaluated.size());
  for (std::size_t i = 0; i < loaded.evaluated.size(); ++i) {
    EXPECT_EQ(loaded.evaluated[i].mixer, report.evaluated[i].mixer);
    EXPECT_DOUBLE_EQ(loaded.evaluated[i].energy, report.evaluated[i].energy);
    EXPECT_EQ(loaded.evaluated[i].theta, report.evaluated[i].theta);
  }
}

// ---------------------------------------------------------------------------
// Dataset search
// ---------------------------------------------------------------------------

TEST(DatasetSearch, AggregatesAcrossGraphs) {
  Rng rng(41);
  const auto graphs = graph::regular_dataset(3, 6, 3, rng);
  search::DatasetSearchConfig cfg;
  cfg.engine.p_max = 1;
  cfg.engine.session.backend = BackendChoice::Statevector;
  cfg.engine.session.training_evals = 30;
  cfg.k_max = 1;  // 5 candidates
  cfg.node_slots = 3;
  const auto report = search::search_dataset(graphs, cfg);

  EXPECT_EQ(report.per_graph.size(), 3u);
  EXPECT_EQ(report.ranking.size(), 5u);  // 5 mixers at p=1
  for (const auto& c : report.ranking) EXPECT_EQ(c.graphs, 3u);
  // Ranking is sorted descending and best matches the head.
  for (std::size_t i = 1; i < report.ranking.size(); ++i)
    EXPECT_GE(report.ranking[i - 1].mean_ratio, report.ranking[i].mean_ratio);
  EXPECT_EQ(report.best.mixer, report.ranking.front().mixer);
}

TEST(DatasetSearch, SerialAndParallelSlotsAgree) {
  Rng rng(43);
  const auto graphs = graph::regular_dataset(2, 6, 3, rng);
  search::DatasetSearchConfig cfg;
  cfg.engine.p_max = 1;
  cfg.engine.session.backend = BackendChoice::Statevector;
  cfg.engine.session.training_evals = 25;
  cfg.k_max = 1;
  cfg.node_slots = 1;
  const auto serial = search::search_dataset(graphs, cfg);
  cfg.node_slots = 2;
  const auto parallel = search::search_dataset(graphs, cfg);
  EXPECT_EQ(serial.best.mixer, parallel.best.mixer);
  EXPECT_DOUBLE_EQ(serial.best.mean_ratio, parallel.best.mean_ratio);
}

// ---------------------------------------------------------------------------
// Noise
// ---------------------------------------------------------------------------

TEST(Noise, NoiselessMatchesExactEnergy) {
  Rng rng(53);
  const auto g = graph::random_regular(6, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const std::vector<double> theta{0.4, 0.3};
  const qaoa::EnergyEvaluator ev(g, {});
  Rng noise_rng(1);
  const double noisy = sim::noisy_cut_expectation(c, theta, g, {}, 1, noise_rng);
  EXPECT_NEAR(noisy, ev.energy(c, theta), 1e-10);
}

TEST(Noise, StrongNoiseDegradesTrainedEnergy) {
  Rng rng(59);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const qaoa::EnergyEvaluator ev(g, {});
  optim::CobylaConfig cc;
  cc.max_evals = 120;
  const auto trained = qaoa::train_qaoa(c, ev, optim::Cobyla(cc));

  sim::NoiseModel heavy;
  heavy.p1 = 0.05;
  heavy.p2 = 0.10;
  Rng noise_rng(2);
  const double noisy =
      sim::noisy_cut_expectation(c, trained.theta, g, heavy, 64, noise_rng);
  // Depolarizing-style noise pushes <C> toward the random-cut value m/2.
  EXPECT_LT(noisy, trained.energy);
  EXPECT_GT(noisy, 0.0);
}

TEST(Noise, TrajectoryStatesStayNormalized) {
  Rng rng(61);
  const auto g = graph::random_regular(6, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::baseline());
  const std::vector<double> theta(4, 0.3);
  sim::NoiseModel model;
  model.p1 = 0.2;
  model.p2 = 0.2;
  for (int t = 0; t < 5; ++t) {
    const auto state = sim::noisy_trajectory(c, theta, model, rng);
    EXPECT_NEAR(linalg::norm(state), 1.0, 1e-10);
  }
}

TEST(Noise, RejectsBadProbabilities) {
  const auto c = circuit::Circuit(2);
  sim::NoiseModel bad;
  bad.p1 = 1.5;
  Rng rng(1);
  EXPECT_THROW(sim::noisy_trajectory(c, {}, bad, rng), Error);
}

// ---------------------------------------------------------------------------
// Tensor network slicing
// ---------------------------------------------------------------------------

TEST(Slicing, ProjectionExtractsHyperplanes)  {
  // T[a][b] = [[1,2],[3,4]]; project a=0 -> [1,2]; a=1 -> [3,4]; b=1 -> [2,4].
  const qtensor::Tensor t({5, 6}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(qtensor::project(t, 5, 0).data(),
            (std::vector<linalg::cplx>{1.0, 2.0}));
  EXPECT_EQ(qtensor::project(t, 5, 1).data(),
            (std::vector<linalg::cplx>{3.0, 4.0}));
  EXPECT_EQ(qtensor::project(t, 6, 1).data(),
            (std::vector<linalg::cplx>{2.0, 4.0}));
  // Missing label: unchanged.
  EXPECT_EQ(qtensor::project(t, 99, 0).labels(), t.labels());
}

TEST(Slicing, SlicedContractionMatchesDirect) {
  Rng rng(71);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const std::vector<double> theta{0.5, 0.3};
  const auto net = qtensor::expectation_zz_network(c, theta, g.edges()[0].u,
                                                   g.edges()[0].v);
  const auto full_order = qtensor::order_greedy_degree(net);
  const auto direct = qtensor::contract(net, full_order);

  for (std::size_t num_slices : {1u, 2u, 3u}) {
    const auto slice_vars = qtensor::choose_slice_vars(net, num_slices);
    ASSERT_EQ(slice_vars.size(), num_slices);
    std::vector<qtensor::VarId> order;
    for (qtensor::VarId v : full_order)
      if (std::find(slice_vars.begin(), slice_vars.end(), v) ==
          slice_vars.end())
        order.push_back(v);
    for (std::size_t workers : {1u, 4u}) {
      const auto sliced =
          qtensor::contract_sliced(net, order, slice_vars, workers);
      EXPECT_NEAR(std::abs(sliced.value - direct.value), 0.0, 1e-10)
          << num_slices << " slices, " << workers << " workers";
      // Slicing cannot increase the width.
      EXPECT_LE(sliced.width, direct.width + 1);
    }
  }
}

TEST(Slicing, ChoosesBusiestVariables) {
  Rng rng(73);
  const auto g = graph::random_regular(8, 3, rng);
  const auto c = qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::qnas());
  const std::vector<double> theta{0.5, 0.3};
  const auto net = qtensor::expectation_zz_network(c, theta, g.edges()[0].u,
                                                   g.edges()[0].v);
  const auto vars = qtensor::choose_slice_vars(net, 2);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_NE(vars[0], vars[1]);
}

}  // namespace

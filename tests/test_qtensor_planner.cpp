// Contraction planning: the bitset CostModel against a set-based reference,
// the lazy priority-queue contractor, deterministic parallel bake-offs, and
// the shared/persistent PlanCache (find/insert/merge semantics, disk
// round-trip, corruption and version-mismatch tolerance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/mixer.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/network.hpp"
#include "qtensor/ordering.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "search/report_io.hpp"

namespace {

using namespace qarch;
using qtensor::CachedPlan;
using qtensor::PlanCost;
using qtensor::TensorNetwork;
using qtensor::VarId;

/// The original set-of-sets symbolic replay the CostModel replaced; kept as
/// an independent oracle.
PlanCost reference_cost(const TensorNetwork& network,
                        const std::vector<VarId>& order) {
  std::vector<std::set<VarId>> tensors;
  tensors.reserve(network.tensors.size());
  for (const qtensor::Tensor& t : network.tensors)
    tensors.emplace_back(t.labels().begin(), t.labels().end());

  PlanCost cost;
  for (VarId v : order) {
    std::set<VarId> merged;
    std::size_t factors = 0;
    std::vector<std::set<VarId>> rest;
    rest.reserve(tensors.size());
    for (auto& s : tensors) {
      if (s.count(v) > 0) {
        merged.insert(s.begin(), s.end());
        ++factors;
      } else {
        rest.push_back(std::move(s));
      }
    }
    if (factors == 0) continue;
    const double entries = std::pow(2.0, static_cast<double>(merged.size()));
    cost.flops += entries * static_cast<double>(factors);
    cost.peak_entries = std::max(cost.peak_entries, entries);
    cost.width = std::max(cost.width, merged.size());
    merged.erase(v);
    rest.push_back(std::move(merged));
    tensors = std::move(rest);
  }
  return cost;
}

/// A <Z_u Z_v> lightcone network of a random-regular QAOA instance.
TensorNetwork edge_network(std::size_t n, std::size_t p, std::size_t edge,
                           std::uint64_t seed = 7) {
  Rng rng(seed);
  const graph::Graph g = graph::random_regular(n, 3, rng);
  const auto ansatz = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
  std::vector<double> theta(ansatz.num_params(), 0.37);
  const graph::Edge& e = g.edges()[edge % g.num_edges()];
  const auto cone = qtensor::lightcone_circuit(ansatz, {e.u, e.v});
  return qtensor::expectation_zz_network(cone, theta, e.u, e.v);
}

TEST(CostModel, MatchesSetBasedReference) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const TensorNetwork net =
        edge_network(10 + 2 * (trial % 3), 1 + trial % 2,
                     static_cast<std::size_t>(trial), 100 + trial);
    const qtensor::CostModel model(net);
    // Heuristic orders and random permutations must all score identically.
    std::vector<std::vector<VarId>> orders;
    orders.push_back(qtensor::order_greedy_degree(net));
    orders.push_back(qtensor::order_greedy_fill(net));
    orders.push_back(qtensor::order_priority(net));
    orders.push_back(qtensor::order_random(net, rng));
    for (const auto& order : orders) {
      const PlanCost got = model.cost(order);
      const PlanCost want = reference_cost(net, order);
      EXPECT_EQ(got.width, want.width);
      EXPECT_DOUBLE_EQ(got.flops, want.flops);
      EXPECT_DOUBLE_EQ(got.peak_entries, want.peak_entries);
    }
  }
}

TEST(Ordering, PriorityOrderIsAValidElimination) {
  const TensorNetwork net = edge_network(12, 2, 1);
  const auto order = qtensor::order_priority(net);
  // Exactly the active variables, each eliminated once.
  const auto active = net.variables();
  EXPECT_EQ(order.size(), active.size());
  EXPECT_EQ(std::set<VarId>(order.begin(), order.end()),
            std::set<VarId>(active.begin(), active.end()));
  // And the order actually contracts: same scalar as greedy-degree.
  const auto a = qtensor::contract(net, order);
  const auto b = qtensor::contract(net, qtensor::order_greedy_degree(net));
  EXPECT_NEAR(a.value.real(), b.value.real(), 1e-9);
  EXPECT_NEAR(a.value.imag(), b.value.imag(), 1e-9);
}

TEST(Planner, PlanIsIdenticalAtEveryWorkerCount) {
  const TensorNetwork net = edge_network(14, 2, 0);
  qtensor::PlannerOptions opt;
  opt.random_restarts = 6;
  opt.workers = 1;
  const auto serial = qtensor::plan_contraction(net, opt);
  for (std::size_t workers : {2u, 4u, 8u}) {
    opt.workers = workers;
    const auto parallel = qtensor::plan_contraction(net, opt);
    EXPECT_EQ(parallel.order, serial.order) << workers << " workers";
    EXPECT_EQ(parallel.heuristic, serial.heuristic);
    EXPECT_EQ(parallel.cost.width, serial.cost.width);
    EXPECT_DOUBLE_EQ(parallel.cost.flops, serial.cost.flops);
  }
}

TEST(Planner, DeterministicUnderConcurrentCalls) {
  const TensorNetwork net = edge_network(12, 1, 2);
  qtensor::PlannerOptions opt;
  opt.random_restarts = 4;
  opt.workers = 2;  // nested: concurrent planners, each with its own pool
  const auto expected = qtensor::plan_contraction(net, opt);
  std::vector<qtensor::ContractionPlan> plans(8);
  parallel::parallel_for(0, plans.size(), [&](std::size_t i) {
    plans[i] = qtensor::plan_contraction(net, opt);
  });
  for (const auto& p : plans) {
    EXPECT_EQ(p.order, expected.order);
    EXPECT_EQ(p.heuristic, expected.heuristic);
    EXPECT_DOUBLE_EQ(p.cost.flops, expected.cost.flops);
  }
}

TEST(Planner, StructureSeedingIsReproducible) {
  // seed_from_structure mixes network_structure_hash into the restart RNG:
  // the same structure must draw the same random orders in every process.
  const TensorNetwork net = edge_network(12, 2, 3);
  qtensor::PlannerOptions opt;
  opt.try_greedy_degree = false;
  opt.try_greedy_fill = false;
  opt.try_priority = false;
  opt.random_restarts = 3;  // only the random competitor remains
  const auto a = qtensor::plan_contraction(net, opt);
  const auto b = qtensor::plan_contraction(net, opt);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(qtensor::network_structure_hash(net),
            qtensor::network_structure_hash(net));
}

// ---------------------------------------------------------------------------
// PlanCache semantics and persistence.
// ---------------------------------------------------------------------------

CachedPlan sample_plan(const std::string& key, std::uint64_t hash,
                       std::vector<VarId> order) {
  CachedPlan p;
  p.shape_key = key;
  p.structure_hash = hash;
  p.order = std::move(order);
  p.heuristic = "greedy-fill";
  return p;
}

TEST(PlanCache, FindIsKeyedByShapeAndStructure) {
  qtensor::PlanCache cache;
  cache.insert(sample_plan("shape-a", 11, {0, 1, 2}));
  EXPECT_EQ(cache.size(), 1u);

  const auto hit = cache.find("shape-a", 11);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->order, (std::vector<VarId>{0, 1, 2}));
  EXPECT_EQ(hit->heuristic, "greedy-fill");

  // Either half of the key mismatching is a miss.
  EXPECT_FALSE(cache.find("shape-a", 12).has_value());
  EXPECT_FALSE(cache.find("shape-b", 11).has_value());
}

TEST(PlanCache, InsertOverwritesButMergeDoesNot) {
  qtensor::PlanCache cache;
  cache.insert(sample_plan("s", 1, {0, 1}));
  cache.insert(sample_plan("s", 1, {1, 0}));  // last writer wins
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find("s", 1)->order, (std::vector<VarId>{1, 0}));

  // merge() must not clobber live in-memory decisions with stale disk state,
  // but does adopt genuinely new keys.
  cache.merge({sample_plan("s", 1, {0, 1}), sample_plan("t", 2, {5})});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find("s", 1)->order, (std::vector<VarId>{1, 0}));
  EXPECT_EQ(cache.find("t", 2)->order, (std::vector<VarId>{5}));
}

TEST(PlanCache, SnapshotIsSortedAndRoundTripsThroughDisk) {
  qtensor::PlanCache cache;
  cache.insert(sample_plan("zeta", 9, {3, 1, 4}));
  cache.insert(sample_plan("alpha", 2, {2, 7}));
  const auto snap = cache.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].shape_key, "alpha");  // deterministic persistence order
  EXPECT_EQ(snap[1].shape_key, "zeta");

  const std::string path = "test_plan_cache_roundtrip.json";
  search::save_plan_cache(snap, path, "test-v1");
  const auto loaded = search::load_plan_cache(path, "test-v1");
  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].shape_key, snap[i].shape_key);
    EXPECT_EQ(loaded[i].structure_hash, snap[i].structure_hash);
    EXPECT_EQ(loaded[i].order, snap[i].order);
    EXPECT_EQ(loaded[i].heuristic, snap[i].heuristic);
  }
  std::remove(path.c_str());
}

TEST(PlanCache, CorruptMissingAndMismatchedFilesLoadEmpty) {
  // Missing file.
  EXPECT_TRUE(search::load_plan_cache("no_such_plan_cache.json", "test-v1")
                  .empty());

  const std::string path = "test_plan_cache_corrupt.json";
  {
    std::ofstream out(path);
    out << "{ this is not json ]";
  }
  EXPECT_TRUE(search::load_plan_cache(path, "test-v1").empty());

  // Valid file, older cache code version: ignored, never fatal.
  search::save_plan_cache({sample_plan("s", 1, {0})}, path, "test-v1");
  EXPECT_TRUE(search::load_plan_cache(path, "test-v2").empty());
  EXPECT_EQ(search::load_plan_cache(path, "test-v1").size(), 1u);

  // One good and one malformed entry (a signed structure hash): exactly the
  // good one loads.
  {
    std::ofstream out(path);
    out << R"({"format": "qarch-plan-cache", "code_version": "test-v1",
               "entries": [
      {"shape_key": "s", "structure_hash": "1", "heuristic": "greedy-fill",
       "order": [0]},
      {"shape_key": "t", "structure_hash": "-1", "heuristic": "greedy-fill",
       "order": [0]}]})";
  }
  const auto survivors = search::load_plan_cache(path, "test-v1");
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].shape_key, "s");
  std::remove(path.c_str());
}

TEST(GraphFamilies, RingGenerator) {
  const graph::Graph g = graph::ring(6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  for (std::size_t v = 0; v < 6; ++v)
    EXPECT_EQ(g.neighbors(v).size(), 2u) << "vertex " << v;
}

}  // namespace

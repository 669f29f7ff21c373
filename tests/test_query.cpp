// The compiled query subsystem (src/query): amplitude programs vs the
// statevector and the one-shot qtensor reference facade, batched amplitude
// slices, reduced-density-matrix marginals, direct tensor-network sampling
// (determinism per seed, pinned streams, agreement in distribution with the
// statevector engine), sliced queries vs their unsliced twins, input
// validation, the shared-plan-cache warm-replay probe, and the heap
// allocations of warm replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/mixer.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "qtensor/program.hpp"
#include "query/program.hpp"
#include "query/sampler.hpp"
#include "sim/statevector.hpp"

namespace {

// Heap allocations on any thread while armed, counted by the replaced
// global operator new below.
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace qarch;
using linalg::cplx;

std::vector<double> random_theta(std::size_t params, Rng& rng) {
  std::vector<double> theta(params);
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  return theta;
}

std::vector<int> bits_of(std::size_t basis, std::size_t n) {
  std::vector<int> bits(n);
  for (std::size_t q = 0; q < n; ++q) bits[q] = (basis >> q) & 1U ? 1 : 0;
  return bits;
}

/// A varied pool of small test instances (graph, mixer, p).
struct Instance {
  graph::Graph g;
  qaoa::MixerSpec mixer;
  std::size_t p;
};

std::vector<Instance> test_instances(Rng& rng) {
  std::vector<Instance> out;
  out.push_back({graph::cycle(5), qaoa::MixerSpec::parse("rx"), 2});
  out.push_back({graph::complete(4), qaoa::MixerSpec::parse("rx,ry"), 1});
  out.push_back(
      {graph::random_regular(6, 3, rng), qaoa::MixerSpec::parse("rx,cz"), 1});
  out.push_back(
      {graph::erdos_renyi_connected(5, 0.6, rng), qaoa::MixerSpec::parse("h,rz,h"), 2});
  return out;
}

// ---------------------------------------------------------------------------
// Amplitudes: compiled program vs statevector vs the one-shot facade.
// ---------------------------------------------------------------------------

TEST(AmplitudeProgram, MatchesStatevectorAndLegacyPath) {
  Rng rng(101);
  const sim::StatevectorSimulator sv;
  // The one-shot reference: network rebuilt and contracted every call.
  const qtensor::QTensorSimulator legacy;

  for (Instance& inst : test_instances(rng)) {
    const circuit::Circuit ansatz =
        qaoa::build_qaoa_circuit(inst.g, inst.p, inst.mixer);
    const query::AmplitudeProgram program(ansatz);
    const std::size_t n = inst.g.num_vertices();
    for (int step = 0; step < 3; ++step) {
      const auto theta = random_theta(ansatz.num_params(), rng);
      const sim::State psi = sv.run_from_plus(ansatz, theta);
      for (int trial = 0; trial < 4; ++trial) {
        const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
        const std::vector<int> bits = bits_of(basis, n);
        const cplx compiled = program.amplitude(theta, bits);
        const cplx one_shot = legacy.amplitude(ansatz, theta, bits);
        EXPECT_NEAR(compiled.real(), psi[basis].real(), 1e-8);
        EXPECT_NEAR(compiled.imag(), psi[basis].imag(), 1e-8);
        EXPECT_NEAR(compiled.real(), one_shot.real(), 1e-8);
        EXPECT_NEAR(compiled.imag(), one_shot.imag(), 1e-8);
      }
    }
  }
}

TEST(BatchedAmplitudeProgram, SlicesMatchSingleAmplitudes) {
  Rng rng(202);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> open = {1, 4};
  const query::BatchedAmplitudeProgram batched(ansatz, open);
  const query::AmplitudeProgram single(ansatz);

  const auto theta = random_theta(ansatz.num_params(), rng);
  // Fix the non-open qubits to a random assignment (ascending qubit order).
  std::vector<int> fixed;
  std::vector<int> bits(n, 0);
  for (std::size_t q = 0; q < n; ++q) {
    if (q == open[0] || q == open[1]) continue;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    fixed.push_back(b);
    bits[q] = b;
  }
  const std::vector<cplx> batch = batched.amplitudes(theta, fixed);
  ASSERT_EQ(batch.size(), 4U);
  // Output index bit j = value of open_qubits[j] (LSB-first).
  for (std::size_t idx = 0; idx < 4; ++idx) {
    bits[open[0]] = static_cast<int>(idx & 1U);
    bits[open[1]] = static_cast<int>((idx >> 1) & 1U);
    const cplx expect = single.amplitude(theta, bits);
    EXPECT_NEAR(batch[idx].real(), expect.real(), 1e-8);
    EXPECT_NEAR(batch[idx].imag(), expect.imag(), 1e-8);
  }
}

// ---------------------------------------------------------------------------
// Marginals: RDM vs the statevector partial trace.
// ---------------------------------------------------------------------------

TEST(MarginalProgram, MatchesStatevectorPartialTrace) {
  Rng rng(303);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::erdos_renyi_connected(6, 0.5, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> targets = {0, 3};
  const query::MarginalProgram program(ansatz, targets);
  const std::size_t k = targets.size();
  const std::size_t dim = std::size_t{1} << k;

  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<cplx> rdm = program.rdm(theta);
  ASSERT_EQ(rdm.size(), dim * dim);

  // Reference partial trace from the full state.
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  std::vector<cplx> ref(dim * dim, cplx{0.0, 0.0});
  auto embed = [&](std::size_t rest, std::size_t t) {
    // `rest` enumerates the non-target qubits (ascending), `t` the targets.
    std::size_t basis = 0, ri = 0;
    for (std::size_t q = 0; q < n; ++q) {
      bool is_target = false;
      for (std::size_t j = 0; j < k; ++j)
        if (targets[j] == q) {
          basis |= ((t >> j) & 1U) << q;
          is_target = true;
        }
      if (!is_target) {
        basis |= ((rest >> ri) & 1U) << q;
        ++ri;
      }
    }
    return basis;
  };
  for (std::size_t rest = 0; rest < (std::size_t{1} << (n - k)); ++rest)
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        ref[r * dim + c] +=
            psi[embed(rest, r)] * std::conj(psi[embed(rest, c)]);

  double trace = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    trace += rdm[r * dim + r].real();
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(rdm[r * dim + c].real(), ref[r * dim + c].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), ref[r * dim + c].imag(), 1e-8);
      // Hermitian: rho[r][c] == conj(rho[c][r]).
      EXPECT_NEAR(rdm[r * dim + c].real(), rdm[c * dim + r].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), -rdm[c * dim + r].imag(), 1e-8);
    }
  }
  EXPECT_NEAR(trace, 1.0, 1e-8);

  // probabilities() is the clamped diagonal.
  const std::vector<double> probs = program.probabilities(theta);
  ASSERT_EQ(probs.size(), dim);
  double total = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    EXPECT_NEAR(probs[r], ref[r * dim + r].real(), 1e-8);
    total += probs[r];
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

// ---------------------------------------------------------------------------
// Sampling: exact probabilities, per-seed determinism, distributions.
// ---------------------------------------------------------------------------

query::SamplerOptions tn_sampler_options(const std::string& backend_spec) {
  query::SamplerOptions so;
  so.engine = query::SamplerEngine::TensorNetwork;
  so.tn_backend = backend_spec;
  return so;
}

TEST(Sampler, ProbabilityMatchesStatevector) {
  Rng rng(404);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(6);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  query::SamplerOptions sv_opts;  // statevector engine default
  const query::Sampler sv_sampler(ansatz, sv_opts);
  const query::Sampler tn_sampler(ansatz, tn_sampler_options("serial"));
  ASSERT_EQ(sv_sampler.engine(), query::SamplerEngine::Statevector);
  ASSERT_EQ(tn_sampler.engine(), query::SamplerEngine::TensorNetwork);

  const auto theta = random_theta(ansatz.num_params(), rng);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
    const double expect = std::norm(psi[basis]);
    EXPECT_NEAR(sv_sampler.probability(theta, basis), expect, 1e-8);
    EXPECT_NEAR(tn_sampler.probability(theta, basis), expect, 1e-8);
  }
}

TEST(Sampler, SeededDrawsAreDeterministicAcrossWorkerCounts) {
  Rng rng(505);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::size_t shots = 64;

  // Statevector engine: 1 vs 4 replay workers, same seed.
  query::SamplerOptions sv1, sv4;
  sv4.sv_workers = 4;
  const query::Sampler sampler1(ansatz, sv1);
  const query::Sampler sampler4(ansatz, sv4);
  Rng r3(99), r4(99);
  const auto c = sampler1.sample(theta, shots, r3);
  const auto d = sampler4.sample(theta, shots, r4);
  EXPECT_EQ(c, d);

  // Replaying the same seed on the same sampler reproduces the draws.
  const query::Sampler tn_serial(ansatz, tn_sampler_options("serial"));
  Rng r1(99), r5(99);
  const auto a = tn_serial.sample(theta, shots, r1);
  EXPECT_EQ(a, tn_serial.sample(theta, shots, r5));
}

// 64 seeded draws per engine. The statevector stream was recorded from a
// per-shot subtractive scan and the tensor-network stream from the
// per-qubit marginal walk as it stood before the query programs were
// folded into qtensor::ContractionProgram. The running-sum sweep that
// defines sim::sample_basis_states draws the statevector stream unchanged,
// so /v1/sample and the sampled objectives (CVaR, best-of-shots) keep their
// streams on both engines. The two recorded streams are identical (no
// uniform of this seed lands near a CDF boundary).
class SamplerStream : public ::testing::TestWithParam<query::SamplerEngine> {};

TEST_P(SamplerStream, IsPinned) {
  Rng grng(4242);
  const graph::Graph g = graph::random_regular(12, 3, grng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  Rng trng(7);
  std::vector<double> theta(ansatz.num_params());
  for (double& t : theta) t = trng.uniform(-2.0, 2.0);
  query::SamplerOptions so;
  so.engine = GetParam();
  const query::Sampler sampler(ansatz, so);
  Rng rng(2718);
  const std::vector<std::size_t> pinned{
      3937, 1096, 324,  2194, 832,  2898, 184,  2144, 1408, 2584, 3484,
      3148, 2026, 751,  4061, 12,   544,  2308, 832,  1284, 355,  3697,
      2064, 3228, 3421, 1894, 3084, 1101, 3200, 2974, 453,  3408, 3965,
      1281, 352,  1130, 3211, 388,  3151, 1191, 1648, 2477, 1062, 1154,
      519,  67,   1533, 81,   1881, 1134, 8,    3331, 51,   1017, 2209,
      2113, 3084, 826,  272,  160,  2101, 2475, 96,   307};
  EXPECT_EQ(sampler.sample(theta, pinned.size(), rng), pinned);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SamplerStream,
    ::testing::Values(query::SamplerEngine::Statevector,
                      query::SamplerEngine::TensorNetwork),
    [](const ::testing::TestParamInfo<query::SamplerEngine>& info) {
      return info.param == query::SamplerEngine::Statevector
                 ? std::string("Statevector")
                 : std::string("TensorNetwork");
    });

TEST(Sampler, EnginesAgreeInDistribution) {
  Rng rng(606);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(5);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();
  const auto theta = random_theta(ansatz.num_params(), rng);

  const query::Sampler tn(ansatz, tn_sampler_options("serial"));
  const std::size_t shots = 4000;
  Rng draw(7);
  const auto samples = tn.sample(theta, shots, draw);

  std::vector<double> empirical(std::size_t{1} << n, 0.0);
  for (const std::size_t s : samples) empirical[s] += 1.0 / double(shots);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  double tv = 0.0;
  for (std::size_t basis = 0; basis < empirical.size(); ++basis)
    tv += std::abs(empirical[basis] - std::norm(psi[basis]));
  tv *= 0.5;
  // 4000 draws over 32 outcomes: TV distance ~ O(sqrt(32/4000)) ~ 0.045;
  // 0.1 gives a comfortable deterministic-seed margin.
  EXPECT_LT(tv, 0.1);
}

// ---------------------------------------------------------------------------
// Plan reuse: a warm plan cache compiles query programs with ZERO planner
// invocations (the acceptance probe of the compiled-query pipeline).
// ---------------------------------------------------------------------------

TEST(QueryPlanReuse, WarmPlanCacheCompilesWithoutPlanner) {
  Rng rng(707);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));

  qtensor::ProgramOptions options;
  options.plan_cache = std::make_shared<qtensor::PlanCache>();

  // Cold: compiling plans at least once.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram cold(ansatz, options);
  const std::vector<std::size_t> targets = {0, 2};
  const query::MarginalProgram cold_marginal(ansatz, targets, options);
  EXPECT_GT(qtensor::planner_invocation_count(), 0U);
  EXPECT_FALSE(cold.stats().plan_cached);

  // Warm: the same shapes replay straight from the shared cache.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram warm(ansatz, options);
  const query::MarginalProgram warm_marginal(ansatz, targets, options);
  EXPECT_EQ(qtensor::planner_invocation_count(), 0U);
  EXPECT_TRUE(warm.stats().plan_cached);
  EXPECT_TRUE(warm_marginal.stats().plan_cached);

  // Warm replays still produce the same numbers.
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<int> bits(g.num_vertices(), 0);
  const cplx cold_amp = cold.amplitude(theta, bits);
  const cplx warm_amp = warm.amplitude(theta, bits);
  EXPECT_NEAR(cold_amp.real(), warm_amp.real(), 1e-12);
  EXPECT_NEAR(cold_amp.imag(), warm_amp.imag(), 1e-12);
}

// ---------------------------------------------------------------------------
// Slicing: open queries take the same compile-time slicing decision as the
// closed <ZZ> programs; a sliced replay sums its 2^s partial outputs.
// ---------------------------------------------------------------------------

qtensor::ProgramOptions forced_slicing() {
  qtensor::ProgramOptions options;
  options.slice_above_width = 2;  // force the slicing decision
  return options;
}

TEST(SlicedQueries, MarginalMatchesUnslicedTwin) {
  Rng rng(808);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::vector<std::size_t> targets = {1, 4};
  const query::MarginalProgram sliced(ansatz, targets, forced_slicing());
  const query::MarginalProgram plain(ansatz, targets);
  EXPECT_GE(sliced.stats().slice_vars, 1U);
  EXPECT_EQ(plain.stats().slice_vars, 0U);
  for (int step = 0; step < 3; ++step) {
    const auto theta = random_theta(ansatz.num_params(), rng);
    const std::vector<cplx> a = sliced.rdm(theta);
    const std::vector<cplx> b = plain.rdm(theta);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].real(), b[i].real(), 1e-12) << "entry " << i;
      EXPECT_NEAR(a[i].imag(), b[i].imag(), 1e-12) << "entry " << i;
    }
  }
}

TEST(SlicedQueries, SamplerMatchesUnslicedTwin) {
  Rng rng(909);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const auto theta = random_theta(ansatz.num_params(), rng);
  query::SamplerOptions sliced_opts = tn_sampler_options("serial");
  sliced_opts.query = forced_slicing();
  const query::Sampler sliced(ansatz, sliced_opts);
  const query::Sampler plain(ansatz, tn_sampler_options("serial"));
  for (std::size_t basis = 0; basis < (std::size_t{1} << 6); ++basis)
    EXPECT_NEAR(sliced.probability(theta, basis),
                plain.probability(theta, basis), 1e-12)
        << "basis " << basis;
  Rng r1(31), r2(31);
  EXPECT_EQ(sliced.sample(theta, 64, r1), plain.sample(theta, 64, r2));
}

TEST(SlicedQueries, SliceVariablesAreNeverOpenLabels) {
  // The networks the two wrappers above compile: the marginal's cut wires
  // (two open labels per target) and every sampler step (one open
  // diagonal label, fixed qubits above it, traced qubits below).
  Rng rng(808);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<qtensor::WireRole>> role_sets;
  role_sets.emplace_back(n, qtensor::WireRole::Trace);
  role_sets.back()[1] = role_sets.back()[4] = qtensor::WireRole::Cut;
  for (std::size_t q = 0; q < n; ++q) {
    role_sets.emplace_back(n, qtensor::WireRole::Trace);
    role_sets.back()[q] = qtensor::WireRole::Diagonal;
    for (std::size_t j = q + 1; j < n; ++j)
      role_sets.back()[j] = qtensor::WireRole::Fix;
  }
  for (const auto& roles : role_sets) {
    qtensor::QueryNetwork network = qtensor::measure_query_network(
        ansatz, std::vector<double>(ansatz.num_params(), 0.0), roles);
    const std::vector<qtensor::VarId> open = network.open_labels;
    const qtensor::ContractionProgram program(std::move(network), open,
                                              ansatz.num_params(),
                                              forced_slicing(), "q:test");
    EXPECT_GE(program.stats().slice_vars, 1U);
    for (qtensor::VarId v : program.slice_vars())
      EXPECT_EQ(std::count(open.begin(), open.end(), v), 0)
          << "open label " << v << " was sliced";
  }
}

// ---------------------------------------------------------------------------
// Warm replays allocate their output and nothing else: the bucket steps and
// the open-label layout run in the program's leased scratch.
// ---------------------------------------------------------------------------

/// Heap allocations per call of `call`, averaged over warm calls.
template <class Fn>
double allocations_per_call(const Fn& call) {
  call();  // fills the programs' scratch pools
  constexpr int kCalls = 8;
  g_allocations = 0;
  g_count_allocations = true;
  for (int i = 0; i < kCalls; ++i) call();
  g_count_allocations = false;
  return static_cast<double>(g_allocations.load()) / kCalls;
}

TEST(WarmReplays, AllocateOnlyTheirOutputs) {
  Rng rng(1111);
  const graph::Graph g = graph::random_regular(12, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx,ry"));
  const auto theta = random_theta(ansatz.num_params(), rng);

  // A TN shot replays one marginal program per qubit, so what a sample()
  // call allocates must not grow with its shot count.
  const query::Sampler sampler(ansatz, tn_sampler_options("serial"));
  Rng draws(5);
  std::size_t last = 0;
  const double one_shot = allocations_per_call(
      [&] { last = sampler.sample(theta, 1, draws).back(); });
  const double many_shots = allocations_per_call(
      [&] { last = sampler.sample(theta, 64, draws).back(); });
  EXPECT_LE(many_shots, one_shot);
  EXPECT_LT(last, std::size_t{1} << 12);

  // Open-label replays allocate the returned vector only.
  const std::vector<std::size_t> open = {2, 5, 9};
  const query::BatchedAmplitudeProgram batched(ansatz, open);
  const std::vector<int> fixed(12 - open.size(), 1);
  const std::vector<std::size_t> targets = {1, 7};
  const query::MarginalProgram marginal(ansatz, targets);
  cplx sink{0.0, 0.0};
  EXPECT_EQ(allocations_per_call(
                [&] { sink += batched.amplitudes(theta, fixed)[0]; }),
            1.0);
  EXPECT_EQ(allocations_per_call([&] { sink += marginal.rdm(theta)[0]; }),
            1.0);
  // So do sliced ones: each assignment gathers its inputs in place.
  const query::MarginalProgram sliced(ansatz, targets, forced_slicing());
  EXPECT_EQ(sliced.stats().slice_vars, 4U);
  EXPECT_EQ(allocations_per_call([&] { sink += sliced.rdm(theta)[0]; }),
            1.0);
  EXPECT_TRUE(std::isfinite(sink.real()));
}

// ---------------------------------------------------------------------------
// Validation: inputs the wrappers cannot answer correctly are rejected.
// ---------------------------------------------------------------------------

TEST(QueryValidation, BackendSpecsOtherThanSerialThrow) {
  // "serial" is the only bucket-product kernel; both spec fields reject
  // anything else where a tensor-network engine is constructed.
  const graph::Graph g = graph::cycle(6);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx"));
  EXPECT_THROW(query::Sampler(ansatz, tn_sampler_options("parallel")),
               InvalidArgument);
  EXPECT_NO_THROW(query::Sampler(ansatz, tn_sampler_options("serial")));
  qtensor::QTensorOptions facade;
  facade.backend = "gpu";
  EXPECT_THROW(qtensor::QTensorSimulator{facade}, InvalidArgument);
  qaoa::EnergyOptions energy;
  energy.engine = qaoa::EngineKind::TensorNetwork;
  energy.qtensor.backend = "parallel:4";
  const qaoa::EnergyEvaluator evaluator(g, energy);
  EXPECT_THROW((void)evaluator.plan_for(ansatz), InvalidArgument);
}

TEST(QueryValidation, UnsortedMarginalTargetsThrow) {
  const circuit::Circuit ansatz = qaoa::build_qaoa_circuit(
      graph::cycle(6), 2, qaoa::MixerSpec::parse("rx"));
  // Bit j of the RDM index is documented as targets[j]; an unsorted list
  // would silently get the ascending-qubit layout instead.
  const std::vector<std::size_t> unsorted = {4, 1};
  EXPECT_THROW(query::MarginalProgram(ansatz, unsorted), Error);
}

TEST(QueryValidation, NonBinaryCapBitsThrow) {
  Rng rng(1010);
  const circuit::Circuit ansatz = qaoa::build_qaoa_circuit(
      graph::cycle(6), 2, qaoa::MixerSpec::parse("rx"));
  const query::AmplitudeProgram program(ansatz);
  const auto theta = random_theta(ansatz.num_params(), rng);
  std::vector<int> bits(6, 0);
  for (int bad : {2, -1}) {
    bits[0] = bad;
    EXPECT_THROW((void)program.amplitude(theta, bits), Error)
        << "bit " << bad;
  }
}

}  // namespace

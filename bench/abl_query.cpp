// Ablation: the compiled query subsystem (src/query).
//
// Two comparisons on one QAOA ansatz:
//
//   1. AMPLITUDES — a query::AmplitudeProgram compiled once and replayed per
//      (theta, bits) vs the one-shot reference facade (QTensorSimulator:
//      network rebuilt, order re-planned, reference contractor every
//      amplitude call). The replay also proves the plan-cache contract: the
//      second program built on the same shape compiles with ZERO planner
//      invocations (the harness exits 1 otherwise).
//   2. SAMPLING — query::Sampler on both engines drawing the same seeded
//      shot stream: direct tensor-network sampling (qubit-by-qubit marginal
//      contraction, never materializing the state) vs the statevector
//      engine (materialize |psi| once, then inverse-CDF draws).
//
// Results append to BENCH_query.json (sections "amplitude" and "sampling").
//
// Flags: --qubits N (12) --degree D (3) --p P (2) --amps A (64)
//        --shots S (256) --out PATH
#include <algorithm>
#include <complex>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "circuit/optimizer.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "query/program.hpp"
#include "query/sampler.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("qubits", 12));
  const auto degree = static_cast<std::size_t>(cli.get_int("degree", 3));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 2));
  const auto amps = static_cast<std::size_t>(cli.get_int("amps", 64));
  const auto shots = static_cast<std::size_t>(cli.get_int("shots", 256));
  const std::string out = cli.get("out", "BENCH_query.json");

  Rng rng(7);
  const auto g = graph::random_regular(n, degree, rng);
  auto ansatz = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
  ansatz = circuit::optimize(ansatz);
  std::vector<double> theta(ansatz.num_params());
  for (double& t : theta) t = rng.uniform(-1.5, 1.5);

  std::printf("query ablation: %zu qubits, %zu-regular, p=%zu\n\n", n, degree,
              p);

  // -- 1. amplitudes: compiled replay vs the one-shot reference facade ------
  std::vector<std::vector<int>> queries(amps, std::vector<int>(n));
  for (auto& bits : queries)
    for (int& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;

  qtensor::ProgramOptions options;
  options.plan_cache = std::make_shared<qtensor::PlanCache>();

  Timer t_compile;
  const query::AmplitudeProgram program(ansatz, options);
  const double compile_ms = t_compile.millis();

  Timer t_replay;
  qtensor::cplx checksum{0.0, 0.0};
  for (const auto& bits : queries)
    checksum += program.amplitude(theta, bits);
  const double replay_ms = t_replay.millis();

  const qtensor::QTensorSimulator facade;  // rebuild + re-plan every call
  Timer t_one_shot;
  qtensor::cplx one_shot_checksum{0.0, 0.0};
  for (const auto& bits : queries)
    one_shot_checksum += facade.amplitude(ansatz, theta, bits);
  const double one_shot_ms = t_one_shot.millis();

  // Warm plan cache: the same shape compiles without touching the planner.
  qtensor::reset_planner_invocation_count();
  Timer t_warm;
  const query::AmplitudeProgram warm(ansatz, options);
  const double warm_compile_ms = t_warm.millis();
  const auto warm_plans = qtensor::planner_invocation_count();

  std::printf("%zu amplitudes: compiled %.1f ms (+%.1f ms compile) vs "
              "one-shot %.1f ms -> %.2fx per call\n",
              amps, replay_ms, compile_ms, one_shot_ms,
              one_shot_ms / replay_ms);
  std::printf("warm recompile: %.1f ms, %llu planner invocation(s) "
              "(checksum drift %.2e)\n\n",
              warm_compile_ms, static_cast<unsigned long long>(warm_plans),
              std::abs(checksum - one_shot_checksum));

  json::Value amp_section = json::Value::object();
  amp_section.set("qubits", n);
  amp_section.set("p", p);
  amp_section.set("amplitudes", amps);
  amp_section.set("compile_ms", compile_ms);
  amp_section.set("compiled_replay_ms", replay_ms);
  amp_section.set("one_shot_ms", one_shot_ms);
  amp_section.set("per_call_speedup", one_shot_ms / replay_ms);
  amp_section.set("warm_compile_ms", warm_compile_ms);
  amp_section.set("warm_planner_invocations",
                  static_cast<std::size_t>(warm_plans));
  amp_section.set("plan_width", program.stats().width);
  bench::update_bench_json(out, "amplitude", std::move(amp_section));

  // -- 2. sampling: direct tensor-network draws vs the statevector engine ---
  query::SamplerOptions tn_opts;
  tn_opts.engine = query::SamplerEngine::TensorNetwork;
  tn_opts.query = options;  // share the warmed plan cache
  Timer t_tn_compile;
  const query::Sampler tn_sampler(ansatz, tn_opts);
  const double tn_compile_ms = t_tn_compile.millis();

  query::SamplerOptions sv_opts;  // statevector engine default
  const query::Sampler sv_sampler(ansatz, sv_opts);

  Rng tn_rng(99), sv_rng(99);
  Timer t_tn_draw;
  const auto tn_samples = tn_sampler.sample(theta, shots, tn_rng);
  const double tn_draw_ms = t_tn_draw.millis();
  Timer t_sv_draw;
  const auto sv_samples = sv_sampler.sample(theta, shots, sv_rng);
  const double sv_draw_ms = t_sv_draw.millis();

  // Same seed, same inverse-CDF walk: count the (float-boundary) disagreements.
  std::size_t agreements = 0;
  for (std::size_t i = 0; i < shots; ++i)
    if (tn_samples[i] == sv_samples[i]) ++agreements;

  const qaoa::Hamiltonian ham(g);
  double tn_best = 0.0, sv_best = 0.0;
  for (const auto s : tn_samples)
    tn_best = std::max(tn_best, ham.classical_value_bits(s));
  for (const auto s : sv_samples)
    sv_best = std::max(sv_best, ham.classical_value_bits(s));

  std::printf("%zu shots: tensor-network %.1f ms (+%.1f ms compile) vs "
              "statevector %.1f ms; %zu/%zu identical draws\n",
              shots, tn_draw_ms, tn_compile_ms, sv_draw_ms, agreements,
              shots);
  std::printf("best sampled cut: tn %.3f | sv %.3f (max-cut statistic)\n",
              tn_best, sv_best);

  json::Value sample_section = json::Value::object();
  sample_section.set("qubits", n);
  sample_section.set("p", p);
  sample_section.set("shots", shots);
  sample_section.set("tn_compile_ms", tn_compile_ms);
  sample_section.set("tn_draw_ms", tn_draw_ms);
  sample_section.set("sv_draw_ms", sv_draw_ms);
  sample_section.set("identical_draws", agreements);
  sample_section.set("tn_best_cut", tn_best);
  sample_section.set("sv_best_cut", sv_best);
  bench::update_bench_json(out, "sampling", std::move(sample_section));
  if (warm_plans != 0) {
    std::printf("FAIL: warm recompile invoked the planner\n");
    return 1;
  }
  return 0;
}

// Ablation: compiled statevector plans — SIMD and cache blocking.
//
// QAOA cost layers are built from RZZ — diagonal gates. The compiled
// sim::SimProgram always streams them with one complex multiply per
// amplitude (the statevector analogue of QTensor's diagonal-gate rank
// reduction, Lykov & Alexeev 2021), folds each cost layer into one
// phase-table pass and fuses mixer runs into cached 2x2s; the plan reads
// <C> off the final state as one dot product with the evaluator's per-graph
// cost diagonal C(x). On top of that sit the AVX2/FMA streaming bodies
// (sim::simd) and the cache-blocked replay (PlanOptions::cache_blocking).
// This harness times a p=2 QAOA energy evaluation on a 20-qubit 4-regular
// graph through qaoa::EnergyEvaluator under four configurations:
//
//   compiled-base    the compiled path with scalar bodies, no blocking
//   +simd            compiled-base with the AVX2/FMA bodies
//   +blocking        compiled-base with cache-blocked replay (scalar)
//   +simd+blocking   the full path
//
// The scalar variants hold the process-wide switch off
// (sim::simd::ScopedRuntime) while they run; the SIMD variants leave it as
// the environment set it, so under QARCH_SIMD=0 every variant is scalar.
// The harness counts, via the sweep-count instrumentation, the per-edge
// expectation passes each variant makes per evaluation (none: <C> comes off
// the cost diagonal). Every variant's <C> is checked against a per-gate
// oracle computed here — StatevectorSimulator::run_from_plus, one
// sim::expectation_zz pass per Hamiltonian term, Hamiltonian::energy — and
// the bench exits 1 when one differs by more than 1e-9 relative. Results
// append to the machine-readable BENCH_sim_kernels.json (section
// "diagonal_gates"). The committed file's section holds the "generic" and
// "compiled-dense" rows and speedup_diagonal_kernels, the final record of
// removed per-gate and dense-diagonal paths; pass --out to leave it be.
//
// Flags: --qubits N (20) --degree D (4) --p P (2) --reps R (5)
//        --workers W (1) --out PATH (BENCH_sim_kernels.json)
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "qaoa/ansatz.hpp"
#include "sim/simd.hpp"
#include "sim/sim_program.hpp"
#include "sim/statevector.hpp"

using namespace qarch;

namespace {

/// <C> from the serial per-gate oracle: one dense kernel per gate, one state
/// pass per Hamiltonian term.
double oracle_energy(const graph::Graph& g, const circuit::Circuit& ansatz,
                     std::span<const double> theta) {
  const qaoa::Hamiltonian ham(g);
  const sim::State state =
      sim::StatevectorSimulator().run_from_plus(ansatz, theta);
  std::vector<double> zz;
  zz.reserve(ham.terms().size());
  for (const auto& t : ham.terms())
    zz.push_back(sim::expectation_zz(state, t.u, t.v));
  return ham.energy(zz);
}

struct VariantResult {
  std::string name;
  double mean_ms = 0.0;
  double energy = 0.0;
  std::uint64_t zz_sweeps_per_eval = 0;
};

/// Times `options` with the SIMD bodies (`simd`, where the environment
/// allows them) or with the process-wide switch held off.
VariantResult time_variant(const std::string& name, const graph::Graph& g,
                           const circuit::Circuit& ansatz,
                           const qaoa::EnergyOptions& options, bool simd,
                           std::span<const double> theta, std::size_t reps) {
  const sim::simd::ScopedRuntime scope(simd && sim::simd::runtime_enabled());
  const qaoa::EnergyEvaluator evaluator(g, options);
  const auto plan = evaluator.make_plan(ansatz);

  VariantResult r;
  r.name = name;
  sim::reset_expectation_sweep_count();
  r.energy = plan->energy(theta);  // warm-up + correctness cross-check
  r.zz_sweeps_per_eval = sim::expectation_sweep_count();

  Timer timer;
  for (std::size_t i = 0; i < reps; ++i) plan->energy(theta);
  r.mean_ms = timer.millis() / static_cast<double>(reps);
  std::printf("  %-16s %9.2f ms/eval   <C>=%.6f   zz sweeps/eval=%llu\n",
              r.name.c_str(), r.mean_ms, r.energy,
              static_cast<unsigned long long>(r.zz_sweeps_per_eval));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("qubits", 20));
  const auto degree = static_cast<std::size_t>(cli.get_int("degree", 4));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 2));
  const auto reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("reps", 5)));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 1));
  const std::string out = cli.get("out", "BENCH_sim_kernels.json");

  Rng rng(7);
  const auto g = graph::random_regular(n, degree, rng);
  const auto ansatz = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());
  const std::vector<double> theta(ansatz.num_params(), 0.37);

  std::printf("diagonal-gate ablation: %zu qubits, %zu edges, p=%zu, "
              "%zu gates, workers=%zu, avx2=%s\n\n",
              n, g.num_edges(), p, ansatz.num_gates(), workers,
              sim::simd::active() ? "yes" : "no (scalar)");

  // Every compile-time specialization, no blocking: the baseline that the
  // SIMD and blocking columns are measured against.
  qaoa::EnergyOptions base;
  base.engine = qaoa::EngineKind::Statevector;
  base.inner_workers = workers;
  base.sv_plan.cache_blocking = false;

  qaoa::EnergyOptions full = base;
  full.sv_plan.cache_blocking = true;

  const auto r_base =
      time_variant("compiled-base", g, ansatz, base, false, theta, reps);
  const auto r_simd = time_variant("+simd", g, ansatz, base, true, theta, reps);
  const auto r_blocked =
      time_variant("+blocking", g, ansatz, full, false, theta, reps);
  const auto r_full =
      time_variant("+simd+blocking", g, ansatz, full, true, theta, reps);

  const double speedup_simd = r_base.mean_ms / r_simd.mean_ms;
  const double speedup_blocking = r_base.mean_ms / r_blocked.mean_ms;
  const double speedup_over_base = r_base.mean_ms / r_full.mean_ms;
  std::printf("\nsimd (isolated):                  %.2fx\n", speedup_simd);
  std::printf("blocking (isolated):              %.2fx\n", speedup_blocking);
  std::printf("simd+blocking vs PR-1 compiled:   %.2fx\n", speedup_over_base);
  const double oracle = oracle_energy(g, ansatz, theta);
  double drift = 0.0;
  bool energies_agree = true;
  for (const auto& r : {r_base, r_simd, r_blocked, r_full}) {
    drift = std::max(drift, std::abs(r.energy - oracle));
    const double rel =
        std::abs(r.energy - oracle) / std::max(1.0, std::abs(oracle));
    if (rel > 1e-9) {
      std::printf("FAIL %s: <C> differs from the per-gate oracle by %.2e "
                  "relative\n",
                  r.name.c_str(), rel);
      energies_agree = false;
    }
  }
  std::printf("energy agreement with the per-gate oracle (<C>=%.6f): "
              "max |Δ<C>| = %.2e\n",
              oracle, drift);

  const sim::SimProgram program(ansatz, full.sv_plan);
  std::printf("replay: %zu ops in %zu groups -> %zu memory passes/eval\n",
              program.stats().ops, program.stats().exec_groups,
              program.stats().memory_passes);

  json::Value section = json::Value::object();
  section.set("qubits", n);
  section.set("p", p);
  section.set("edges", g.num_edges());
  section.set("workers", workers);
  section.set("reps", reps);
  section.set("avx2_active", sim::simd::active());
  json::Value variants = json::Value::object();
  for (const auto& r : {r_base, r_simd, r_blocked, r_full}) {
    json::Value v = json::Value::object();
    v.set("mean_ms", r.mean_ms);
    v.set("energy", r.energy);
    v.set("zz_sweeps_per_eval", static_cast<std::size_t>(r.zz_sweeps_per_eval));
    variants.set(r.name, std::move(v));
  }
  section.set("variants", std::move(variants));
  section.set("speedup_simd", speedup_simd);
  section.set("speedup_blocking", speedup_blocking);
  section.set("speedup_simd_blocking_vs_pr1_compiled", speedup_over_base);
  section.set("oracle_energy", oracle);
  section.set("energy_abs_drift", drift);
  json::Value stats = json::Value::object();
  stats.set("source_gates", program.stats().source_gates);
  stats.set("ops", program.stats().ops);
  stats.set("diag1_ops", program.stats().diag1_ops);
  stats.set("diag2_ops", program.stats().diag2_ops);
  stats.set("diag_table_ops", program.stats().diag_table_ops);
  stats.set("single_ops", program.stats().single_ops);
  stats.set("two_ops", program.stats().two_ops);
  stats.set("fused_gates", program.stats().fused_gates);
  stats.set("exec_groups", program.stats().exec_groups);
  stats.set("blocked_ops", program.stats().blocked_ops);
  stats.set("memory_passes", program.stats().memory_passes);
  section.set("program_stats", std::move(stats));
  bench::update_bench_json(out, "diagonal_gates", std::move(section));
  return energies_agree ? 0 : 1;
}

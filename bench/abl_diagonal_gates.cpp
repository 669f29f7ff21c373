// Ablation: compiled statevector plans — diagonal kernels, SIMD, blocking.
//
// QAOA cost layers are built from RZZ — diagonal gates. The compiled
// sim::SimProgram streams them with one complex multiply per amplitude (the
// statevector analogue of QTensor's diagonal-gate rank reduction, Lykov &
// Alexeev 2021) and fuses mixer runs into cached 2x2s; the plan reads <C>
// off the final state as one dot product with the evaluator's per-graph
// cost diagonal C(x). On top of that sit the
// AVX2/FMA streaming bodies (sim::simd) and the cache-blocked replay
// (PlanOptions::cache_blocking). This harness times a p=2 QAOA energy
// evaluation on a 20-qubit 4-regular graph through qaoa::EnergyEvaluator
// under six configurations:
//
//   generic          per-gate dense kernels + one state pass per edge
//                    (the pre-compilation seed path)
//   compiled-dense   compiled plan with diagonal kernels OFF (fusion and
//                    the cost-diagonal <C> still on)
//   compiled-base    the full PR-1 compiled path: diagonal kernels + phase
//                    tables + fusion, scalar bodies, no blocking
//   +simd            compiled-base with the AVX2/FMA bodies
//   +blocking        compiled-base with cache-blocked replay (scalar)
//   +simd+blocking   the full path
//
// and counts, via the sweep-count instrumentation, the per-edge expectation
// passes each variant makes per evaluation: |E| for generic, none for the
// compiled variants. Exits 1 when any compiled variant's <C> differs from
// generic's by more than 1e-9 relative, so the bench smoke checks the
// cost-diagonal path against the per-gate, per-edge one. Results append to
// the machine-readable BENCH_sim_kernels.json (section "diagonal_gates").
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

using namespace qarch;

namespace {

struct VariantResult {
  std::string name;
  double mean_ms = 0.0;
  double energy = 0.0;
  std::uint64_t zz_sweeps_per_eval = 0;
};

VariantResult time_variant(const std::string& name, const graph::Graph& g,
                           const circuit::Circuit& ansatz,
                           const qaoa::EnergyOptions& options,
                           std::span<const double> theta, std::size_t reps) {
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

  qaoa::EnergyOptions generic;
  generic.engine = qaoa::EngineKind::Statevector;
  generic.inner_workers = workers;
  generic.sv_compile_plan = false;
  generic.sv_batch_expectations = false;
  generic.sv_plan.simd = false;

  qaoa::EnergyOptions compiled_dense = generic;
  compiled_dense.sv_compile_plan = true;
  compiled_dense.sv_batch_expectations = true;
  compiled_dense.sv_plan.diagonal_kernels = false;
  compiled_dense.sv_plan.cache_blocking = false;

  // The PR-1 compiled path: every compile-time specialization, scalar bodies.
  qaoa::EnergyOptions base = compiled_dense;
  base.sv_plan.diagonal_kernels = true;

  qaoa::EnergyOptions with_simd = base;
  with_simd.sv_plan.simd = true;

  qaoa::EnergyOptions with_blocking = base;
  with_blocking.sv_plan.cache_blocking = true;

  qaoa::EnergyOptions full = base;
  full.sv_plan.simd = true;
  full.sv_plan.cache_blocking = true;

  const auto r_generic =
      time_variant("generic", g, ansatz, generic, theta, reps);
  const auto r_dense =
      time_variant("compiled-dense", g, ansatz, compiled_dense, theta, reps);
  const auto r_base =
      time_variant("compiled-base", g, ansatz, base, theta, reps);
  const auto r_simd =
      time_variant("+simd", g, ansatz, with_simd, theta, reps);
  const auto r_blocked =
      time_variant("+blocking", g, ansatz, with_blocking, theta, reps);
  const auto r_full =
      time_variant("+simd+blocking", g, ansatz, full, theta, reps);

  const double speedup_total = r_generic.mean_ms / r_full.mean_ms;
  const double speedup_diag = r_dense.mean_ms / r_base.mean_ms;
  const double speedup_simd = r_base.mean_ms / r_simd.mean_ms;
  const double speedup_blocking = r_base.mean_ms / r_blocked.mean_ms;
  const double speedup_over_base = r_base.mean_ms / r_full.mean_ms;
  const double drift = std::abs(r_generic.energy - r_full.energy);
  std::printf("\nfull vs generic:                  %.2fx\n", speedup_total);
  std::printf("diagonal kernels (isolated):      %.2fx\n", speedup_diag);
  std::printf("simd (isolated):                  %.2fx\n", speedup_simd);
  std::printf("blocking (isolated):              %.2fx\n", speedup_blocking);
  std::printf("simd+blocking vs PR-1 compiled:   %.2fx\n", speedup_over_base);
  std::printf("zz sweeps/eval: %llu -> %llu (one pass per edge -> <C> off "
              "the cost diagonal)\n",
              static_cast<unsigned long long>(r_generic.zz_sweeps_per_eval),
              static_cast<unsigned long long>(r_full.zz_sweeps_per_eval));
  std::printf("energy agreement: |Δ<C>| = %.2e\n", drift);
  bool energies_agree = true;
  for (const auto& r : {r_dense, r_base, r_simd, r_blocked, r_full}) {
    const double rel = std::abs(r.energy - r_generic.energy) /
                       std::max(1.0, std::abs(r_generic.energy));
    if (rel > 1e-9) {
      std::printf("FAIL %s: <C> differs from generic by %.2e relative\n",
                  r.name.c_str(), rel);
      energies_agree = false;
    }
  }

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
  for (const auto& r :
       {r_generic, r_dense, r_base, r_simd, r_blocked, r_full}) {
    json::Value v = json::Value::object();
    v.set("mean_ms", r.mean_ms);
    v.set("energy", r.energy);
    v.set("zz_sweeps_per_eval", static_cast<std::size_t>(r.zz_sweeps_per_eval));
    variants.set(r.name, std::move(v));
  }
  section.set("variants", std::move(variants));
  section.set("speedup_full_vs_generic", speedup_total);
  section.set("speedup_diagonal_kernels", speedup_diag);
  section.set("speedup_simd", speedup_simd);
  section.set("speedup_blocking", speedup_blocking);
  section.set("speedup_simd_blocking_vs_pr1_compiled", speedup_over_base);
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

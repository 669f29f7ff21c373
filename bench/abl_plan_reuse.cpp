// Ablation: plan reuse across the search pipeline.
//
// A candidate's entire training run — every COBYLA step of every multistart
// restart — should touch exactly ONE SimProgram compilation: qaoa::train_qaoa
// pulls the cached plan from qaoa::EnergyEvaluator::plan_for and every
// restart shares the same objective closure. This harness proves it end to
// end with the sim::program_compile_count() probe on a full
// search::Evaluator::evaluate call, then isolates the reuse win with a
// training-only comparison (identical optimizer budget, sampling excluded):
// one shared-plan multistart run vs independent compile-per-restart
// train_qaoa calls against a cache-disabled evaluator.
//
// A second section measures the one-shot path (landscape scans call
// EnergyEvaluator::energy(ansatz, theta) repeatedly): the ansatz→plan LRU
// cache turns N compilations into one.
//
// A third section repeats the probe on backend=qtensor: a full evaluate()
// (multistart restarts included) must build each edge's tensor network
// exactly ONCE — qtensor::network_build_count() is the qtensor analogue of
// the compile counter — and the compiled per-edge ContractionPrograms are
// timed against the replan-per-call facade. (The rebuild-per-theta energy
// plan this section also timed is gone; its last numbers stay in the
// committed BENCH_qtensor.json.)
//
// Results append to BENCH_sim_kernels.json (section "plan_reuse") and
// BENCH_qtensor.json (section "qtensor_plan_reuse").
//
// Flags: --qubits N (16) --degree D (4) --p P (2) --restarts R (4)
//        --evals E (100) --scan-calls S (24) --out PATH
//        --tn-qubits N (12) --tn-evals E (40) --tn-out PATH
#include <cstdio>

#include "bench_util.hpp"
#include "circuit/optimizer.hpp"
#include "common/timer.hpp"
#include "optim/multistart.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/train.hpp"
#include "qtensor/network.hpp"
#include "search/evaluator.hpp"
#include "sim/sim_program.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("qubits", 16));
  const auto degree = static_cast<std::size_t>(cli.get_int("degree", 4));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 2));
  const auto restarts =
      std::max<std::size_t>(2, static_cast<std::size_t>(cli.get_int("restarts", 4)));
  const auto evals = static_cast<std::size_t>(cli.get_int("evals", 100));
  const auto scan_calls =
      static_cast<std::size_t>(cli.get_int("scan-calls", 24));
  const std::string out = cli.get("out", "BENCH_sim_kernels.json");

  Rng rng(7);
  const auto g = graph::random_regular(n, degree, rng);
  const qaoa::MixerSpec mixer = qaoa::MixerSpec::qnas();

  std::printf("plan-reuse ablation: %zu qubits, p=%zu, %zu restarts, "
              "%zu total evals\n\n",
              n, p, restarts, evals);

  // -- 1. end-to-end evaluate() probe: one compile for the whole candidate --
  search::EvaluatorOptions opt;
  opt.energy.engine = qaoa::EngineKind::Statevector;
  opt.cobyla.max_evals = evals;
  opt.restarts = restarts;
  const search::Evaluator evaluator(g, opt);

  sim::reset_program_compile_count();
  Timer t_eval;
  const auto result = evaluator.evaluate(mixer, p);
  const double evaluate_ms = t_eval.millis();
  const auto compiles_reuse = sim::program_compile_count();
  // Raw count, not averaged: ANY value above zero means a restart recompiled
  // and the reuse contract is broken.
  const auto recompiles =
      compiles_reuse > 0 ? compiles_reuse - 1 : compiles_reuse;

  std::printf("evaluate() with %zu restarts: %.1f ms, %llu compilation(s), "
              "%llu recompile(s), <C>=%.4f (%zu evals)\n",
              restarts, evaluate_ms,
              static_cast<unsigned long long>(compiles_reuse),
              static_cast<unsigned long long>(recompiles), result.energy,
              result.evaluations);

  // -- training-only comparison: same optimizer budget, sampling excluded, so
  // the delta is exactly the compilations the shared plan avoids ------------
  auto trained_ansatz = qaoa::build_qaoa_circuit(g, p, mixer);
  trained_ansatz = circuit::optimize(trained_ansatz);

  const qaoa::EnergyEvaluator cached_energy(g, opt.effective_energy());
  qaoa::EnergyOptions nocache_energy_opt = opt.effective_energy();
  nocache_energy_opt.plan_cache_capacity = 0;
  const qaoa::EnergyEvaluator uncached_energy(g, nocache_energy_opt);

  sim::reset_program_compile_count();
  Timer t_reuse;
  {
    const optim::MultiStart multistart(
        [&](std::size_t budget) -> std::unique_ptr<optim::Optimizer> {
          optim::CobylaConfig per_run = opt.cobyla;
          per_run.max_evals = budget;
          return std::make_unique<optim::Cobyla>(per_run);
        },
        {restarts, evals, 1.0, 31});
    (void)qaoa::train_qaoa(trained_ansatz, cached_energy, multistart,
                           opt.train);
  }
  const double reuse_ms = t_reuse.millis();
  const auto compiles_train = sim::program_compile_count();

  sim::reset_program_compile_count();
  Timer t_base;
  for (std::size_t r = 0; r < restarts; ++r) {
    optim::CobylaConfig per_run = opt.cobyla;
    per_run.max_evals = evals / restarts;
    (void)qaoa::train_qaoa(trained_ansatz, uncached_energy,
                           optim::Cobyla(per_run), opt.train);
  }
  const double base_ms = t_base.millis();
  const auto compiles_base = sim::program_compile_count();
  std::printf("multistart training (shared plan):   %.1f ms, %llu "
              "compilation(s)\n",
              reuse_ms, static_cast<unsigned long long>(compiles_train));
  std::printf("compile-per-restart training:        %.1f ms, %llu "
              "compilation(s)\n",
              base_ms, static_cast<unsigned long long>(compiles_base));
  std::printf("training-only plan-reuse win:        %.2fx\n\n",
              base_ms / reuse_ms);

  // -- 2. one-shot energy() calls (the landscape-scan pattern) --------------
  std::vector<double> theta(trained_ansatz.num_params(), 0.3);

  sim::reset_program_compile_count();
  Timer t_cached;
  for (std::size_t i = 0; i < scan_calls; ++i) {
    theta[0] = 0.01 * static_cast<double>(i);
    (void)cached_energy.energy(trained_ansatz, theta);
  }
  const double cached_ms = t_cached.millis();
  const auto compiles_cached = sim::program_compile_count();

  sim::reset_program_compile_count();
  Timer t_uncached;
  for (std::size_t i = 0; i < scan_calls; ++i) {
    theta[0] = 0.01 * static_cast<double>(i);
    (void)uncached_energy.energy(trained_ansatz, theta);
  }
  const double uncached_ms = t_uncached.millis();
  const auto compiles_uncached = sim::program_compile_count();

  std::printf("%zu one-shot energy() calls: cached %.1f ms (%llu compiles) "
              "vs uncached %.1f ms (%llu compiles) -> %.2fx\n",
              scan_calls, cached_ms,
              static_cast<unsigned long long>(compiles_cached), uncached_ms,
              static_cast<unsigned long long>(compiles_uncached),
              uncached_ms / cached_ms);

  json::Value section = json::Value::object();
  section.set("qubits", n);
  section.set("p", p);
  section.set("restarts", restarts);
  section.set("total_evals", evals);
  section.set("evaluate_ms", evaluate_ms);
  section.set("evaluate_compiles", static_cast<std::size_t>(compiles_reuse));
  section.set("recompiles_per_restart",
              static_cast<std::size_t>(recompiles));
  section.set("training_reuse_ms", reuse_ms);
  section.set("training_reuse_compiles",
              static_cast<std::size_t>(compiles_train));
  section.set("training_baseline_ms", base_ms);
  section.set("training_baseline_compiles",
              static_cast<std::size_t>(compiles_base));
  section.set("training_speedup", base_ms / reuse_ms);
  section.set("scan_calls", scan_calls);
  section.set("scan_cached_ms", cached_ms);
  section.set("scan_cached_compiles",
              static_cast<std::size_t>(compiles_cached));
  section.set("scan_uncached_ms", uncached_ms);
  section.set("scan_uncached_compiles",
              static_cast<std::size_t>(compiles_uncached));
  section.set("scan_speedup", uncached_ms / cached_ms);
  bench::update_bench_json(out, "plan_reuse", std::move(section));

  // -- 3. the same contract on backend=qtensor ------------------------------
  const auto tn_n = static_cast<std::size_t>(cli.get_int("tn-qubits", 12));
  const auto tn_evals =
      static_cast<std::size_t>(cli.get_int("tn-evals", 40));
  const std::string tn_out = cli.get("tn-out", "BENCH_qtensor.json");

  Rng tn_rng(7);
  const auto tn_g = graph::random_regular(tn_n, 3, tn_rng);
  std::printf("\nqtensor plan reuse: %zu qubits, 3-regular (%zu edges), "
              "p=%zu, %zu restarts\n",
              tn_n, tn_g.num_edges(), p, restarts);

  // End-to-end evaluate(): every COBYLA step of every restart replays the
  // per-edge compiled programs; the network is built once per edge, period.
  search::EvaluatorOptions tn_opt;
  tn_opt.energy.engine = qaoa::EngineKind::TensorNetwork;
  tn_opt.cobyla.max_evals = evals;
  tn_opt.restarts = restarts;
  const search::Evaluator tn_evaluator(tn_g, tn_opt);

  qtensor::reset_network_build_count();
  Timer t_tn_eval;
  const auto tn_result = tn_evaluator.evaluate(mixer, p);
  const double tn_evaluate_ms = t_tn_eval.millis();
  const auto tn_builds = qtensor::network_build_count();
  // One build per edge is the compile itself; anything beyond that is a
  // rebuild and breaks the reuse contract.
  const auto tn_rebuilds =
      tn_builds > tn_g.num_edges() ? tn_builds - tn_g.num_edges() : 0;
  std::printf("evaluate() with %zu restarts: %.1f ms, %llu network build(s) "
              "for %zu edges, %llu rebuild(s), <C>=%.4f\n",
              restarts, tn_evaluate_ms,
              static_cast<unsigned long long>(tn_builds), tn_g.num_edges(),
              static_cast<unsigned long long>(tn_rebuilds), tn_result.energy);

  // Energy benchmark: compiled replay vs the one-shot facade, which
  // rebuilds the network and re-plans the order per call.
  auto tn_ansatz = qaoa::build_qaoa_circuit(tn_g, p, mixer);
  tn_ansatz = circuit::optimize(tn_ansatz);
  std::vector<double> tn_theta(tn_ansatz.num_params(), 0.4);

  const qaoa::EnergyEvaluator tn_compiled(tn_g, tn_opt.effective_energy());
  const auto tn_compiled_plan = tn_compiled.plan_for(tn_ansatz);
  (void)tn_compiled_plan->energy(tn_theta);  // warm scratch pools

  qtensor::reset_network_build_count();
  Timer t_tn_c;
  for (std::size_t i = 0; i < tn_evals; ++i) {
    tn_theta[0] = 0.3 + 0.01 * static_cast<double>(i);
    (void)tn_compiled_plan->energy(tn_theta);
  }
  const double tn_compiled_ms = t_tn_c.millis();
  const auto tn_compiled_builds = qtensor::network_build_count();

  const qtensor::QTensorSimulator tn_facade;
  const std::size_t facade_evals = std::max<std::size_t>(1, tn_evals / 4);
  Timer t_tn_f;
  for (std::size_t i = 0; i < facade_evals; ++i) {
    tn_theta[0] = 0.3 + 0.01 * static_cast<double>(i);
    for (const auto& e : tn_g.edges())
      (void)tn_facade.expectation_zz(tn_ansatz, tn_theta, e.u, e.v);
  }
  const double tn_facade_ms =
      t_tn_f.millis() * static_cast<double>(tn_evals) /
      static_cast<double>(facade_evals);

  std::printf("%zu energy() calls: compiled %.1f ms (%llu rebuilds) | "
              "replan-per-call %.1f ms\n",
              tn_evals, tn_compiled_ms,
              static_cast<unsigned long long>(tn_compiled_builds),
              tn_facade_ms);
  std::printf("compiled speedup: %.2fx vs replan\n",
              tn_facade_ms / tn_compiled_ms);

  json::Value tn_section = json::Value::object();
  tn_section.set("qubits", tn_n);
  tn_section.set("edges", tn_g.num_edges());
  tn_section.set("p", p);
  tn_section.set("restarts", restarts);
  tn_section.set("evaluate_ms", tn_evaluate_ms);
  tn_section.set("evaluate_network_builds",
                 static_cast<std::size_t>(tn_builds));
  tn_section.set("evaluate_network_rebuilds",
                 static_cast<std::size_t>(tn_rebuilds));
  tn_section.set("energy_calls", tn_evals);
  tn_section.set("compiled_ms", tn_compiled_ms);
  tn_section.set("compiled_network_rebuilds",
                 static_cast<std::size_t>(tn_compiled_builds));
  tn_section.set("replan_per_call_ms", tn_facade_ms);
  tn_section.set("compiled_vs_replan_speedup",
                 tn_facade_ms / tn_compiled_ms);
  bench::update_bench_json(tn_out, "qtensor_plan_reuse",
                           std::move(tn_section));
  return 0;
}

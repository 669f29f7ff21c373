// Ablation: gate fusion — symbolic (circuit::optimize) and numeric
// (compiled-plan single-qubit fusion).
//
// Part 1 (the original study): searched mixer sequences routinely contain
// mergeable structure (rx·rx, h·h around a phase). Measures gate counts and
// energy-evaluation time for raw vs optimized candidate ansätze across the
// k<=3 candidate space.
//
// Part 2: times the fused compiled plan on a larger statevector workload
// with scalar bodies and no blocking, then with the SIMD bodies and the
// cache-blocked replay on top. The scalar columns hold the process-wide
// switch off (sim::simd::ScopedRuntime). Single-qubit fusion is always on;
// the committed "fusion" section keeps the unfused column and
// speedup_fusion as the final record of the removed unfused path.
//
// Part 3 (section "kernels_by_qubit"): the streaming Single, Diag1 and
// Diag2 passes on one 2^N state, 1 thread, unblocked, in ns per amplitude
// per pass at each qubit q: Single and Diag1 on q, Diag2 with lowest qubit q
// and partner N-1, and Diag2 on qubits 0 and q. Low qubits have short
// aligned runs, so this table shows what a pass pays beyond its bytes. The
// Single pass is timed once per body: rx (single_ns, the rx-form body), ry
// (single_real_ns, the real body) and an rx·ry product (single_general_ns,
// the general body). Each of the three is also checked at every q against
// a per-pair reference computed here on a random state; the bench exits 1
// when an amplitude differs by more than 1e-12.
//
// Parts 1-2 append to the machine-readable BENCH_sim_kernels.json (section
// "fusion") shared with abl_diagonal_gates; part 3 writes its own section.
//
// Flags: --p (2) --reps (10; part 3 takes the median of this many trials)
//        --qubits N (16) for parts 2-3 --out PATH (BENCH_sim_kernels.json)
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "circuit/optimizer.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "qaoa/ansatz.hpp"
#include "sim/sim_program.hpp"
#include "sim/simd.hpp"
#include "sim/statevector.hpp"

using namespace qarch;

namespace {

/// Median over `trials` of the ns per amplitude of one `pass` over a
/// 2^n-amplitude state (each trial repeats the pass enough times to span
/// about 2^22 amplitudes).
double ns_per_amplitude(std::size_t n, std::size_t trials,
                        const std::function<void()>& pass) {
  const std::size_t dim = std::size_t{1} << n;
  const std::size_t passes =
      std::max<std::size_t>(8, (std::size_t{1} << 22) / dim);
  pass();  // warm-up
  std::vector<double> ns;
  for (std::size_t t = 0; t < trials; ++t) {
    Timer timer;
    for (std::size_t r = 0; r < passes; ++r) pass();
    ns.push_back(timer.seconds() * 1e9 / static_cast<double>(passes * dim));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Row-major 2x2 product a · b.
std::array<sim::cplx, 4> matmul2(const sim::cplx* a, const sim::cplx* b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

/// Largest |pass - reference| of one Single pass of m on qubit q over a
/// random 2^n state, where the reference applies m to each pair
/// (i, i | 2^q) in plain complex arithmetic.
double single_pass_error(std::size_t n, std::size_t q, const sim::cplx* m,
                         Rng& rng) {
  sim::State state(std::size_t{1} << n);
  for (auto& a : state) a = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  sim::State reference = state;
  const std::size_t half = std::size_t{1} << q;
  for (std::size_t i = 0; i < state.size(); ++i) {
    if ((i & half) != 0) continue;
    const sim::cplx va = state[i], vb = state[i | half];
    reference[i] = m[0] * va + m[1] * vb;
    reference[i | half] = m[2] * va + m[3] * vb;
  }
  sim::simd::single_pair_range(state.data(), q, m, 0, state.size() / 2);
  double error = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i)
    error = std::max(error, std::abs(state[i] - reference[i]));
  return error;
}

/// Part 3: the kernels_by_qubit table. Clears `passes_agree` when a Single
/// pass departs from its per-pair reference.
json::Value kernels_by_qubit(std::size_t n, std::size_t trials,
                             bool& passes_agree) {
  const double c = std::cos(0.3), s = std::sin(0.3);
  const sim::cplx rx[4] = {{c, 0}, {0, -s}, {0, -s}, {c, 0}};  // rx(0.6)
  const sim::cplx ry[4] = {{c, 0}, {-s, 0}, {s, 0}, {c, 0}};   // ry(0.6)
  const std::array<sim::cplx, 4> rx_ry = matmul2(rx, ry);
  const struct {
    const char* key;
    const sim::cplx* m;
  } singles[] = {{"single_ns", rx},
                 {"single_real_ns", ry},
                 {"single_general_ns", rx_ry.data()}};
  const sim::cplx d[4] = {std::polar(1.0, 0.1), std::polar(1.0, -0.2),
                          std::polar(1.0, 0.3), std::polar(1.0, -0.4)};
  sim::State state = sim::plus_state(n);
  const std::size_t dim = state.size();
  Rng rng(31);
  std::printf("\nkernels by qubit (%zu qubits, 1 thread, unblocked, "
              "ns/amplitude/pass; single on rx, ry and rx.ry):\n"
              "%3s %10s %10s %10s    %7s  diag2(q,%zu)  diag2(0,q)\n",
              n, "q", "single rx", "ry", "rx.ry", "diag1", n - 1);
  json::Value rows = json::Value::array();
  for (std::size_t q = 0; q < n; ++q) {
    json::Value row = json::Value::object();
    row.set("q", q);
    std::printf("%3zu", q);
    for (const auto& single : singles) {
      const double error = single_pass_error(n, q, single.m, rng);
      if (error > 1e-12) {
        std::printf("\nFAIL %s q=%zu: the pass differs from the per-pair "
                    "reference by %.2e\n",
                    single.key, q, error);
        passes_agree = false;
      }
      const double ns = ns_per_amplitude(n, trials, [&] {
        sim::simd::single_pair_range(state.data(), q, single.m, 0, dim / 2);
      });
      row.set(single.key, ns);
      std::printf(" %10.3f", ns);
    }
    const double diag1 = ns_per_amplitude(n, trials, [&] {
      sim::simd::diag1_slice(state.data(), dim, 0, q, d[0], d[1]);
    });
    row.set("diag1_ns", diag1);
    std::printf("    %7.3f", diag1);
    if (q + 1 < n) {
      const double low = ns_per_amplitude(n, trials, [&] {
        sim::simd::diag2_slice(state.data(), dim, 0, q, n - 1, d);
      });
      row.set("diag2_low_ns", low);
      std::printf(" %12.3f", low);
    } else {
      std::printf(" %12s", "-");
    }
    if (q > 0) {
      const double q0 = ns_per_amplitude(n, trials, [&] {
        sim::simd::diag2_slice(state.data(), dim, 0, 0, q, d);
      });
      row.set("diag2_q0_ns", q0);
      std::printf(" %11.3f", q0);
    }
    std::printf("\n");
    rows.push_back(std::move(row));
  }
  json::Value section = json::Value::object();
  section.set("qubits", n);
  section.set("threads", 1);
  section.set("blocked", false);
  section.set("trials", trials);
  section.set("avx2_active", sim::simd::active());
  section.set("rows", std::move(rows));
  return section;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto p = static_cast<std::size_t>(cli.get_int("p", 2));
  const auto reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("reps", 10)));
  const auto big_n = static_cast<std::size_t>(cli.get_int("qubits", 16));
  const std::string out = cli.get("out", "BENCH_sim_kernels.json");

  // -- part 1: symbolic optimizer across the candidate space ---------------
  Rng rng(23);
  const auto g = graph::random_regular(10, 4, rng);
  const auto candidates = search::all_combinations(
      search::GateAlphabet::standard(), 3, search::CombinationMode::Product);

  qaoa::EnergyOptions sv;
  sv.engine = qaoa::EngineKind::Statevector;
  // Part 1 times the SYMBOLIC optimizer's incremental win on the production
  // engine, so the plan must not run circuit::optimize itself (presimplify
  // off). The plan's NUMERIC specializations (single-qubit fusion, diagonal
  // merging) stay on for both variants — they are part of the engine both
  // candidates run through, which also means the raw-vs-optimized delta here
  // is a lower bound on what the symbolic pass buys a weaker engine.
  qaoa::EnergyOptions sv_no_presimplify = sv;
  sv_no_presimplify.sv_plan.presimplify = false;
  const qaoa::EnergyEvaluator evaluator(g, sv_no_presimplify);
  std::size_t shrunk = 0;
  std::vector<double> raw_gates, opt_gates, raw_ms, opt_ms;
  for (const auto& mixer : candidates) {
    const auto ansatz = qaoa::build_qaoa_circuit(g, p, mixer);
    circuit::OptimizeStats stats;
    const auto optimized = circuit::optimize(ansatz, {}, &stats);
    if (optimized.num_gates() < ansatz.num_gates()) ++shrunk;
    raw_gates.push_back(static_cast<double>(ansatz.num_gates()));
    opt_gates.push_back(static_cast<double>(optimized.num_gates()));

    const std::vector<double> theta(ansatz.num_params(), 0.4);
    Timer t1;
    for (std::size_t r = 0; r < reps; ++r)
      (void)evaluator.energy(ansatz, theta);
    raw_ms.push_back(t1.millis() / static_cast<double>(reps));
    Timer t2;
    for (std::size_t r = 0; r < reps; ++r)
      (void)evaluator.energy(optimized, theta);
    opt_ms.push_back(t2.millis() / static_cast<double>(reps));
  }

  std::printf("fusion ablation: %zu candidates, p=%zu, statevector engine\n\n",
              candidates.size(), p);
  std::printf("candidates shrunk by optimization: %zu / %zu\n", shrunk,
              candidates.size());
  std::printf("mean gates: raw %.1f -> optimized %.1f\n", mean(raw_gates),
              mean(opt_gates));
  std::printf("mean <C> eval time: raw %.3f ms -> optimized %.3f ms "
              "(%.1f%% saved)\n",
              mean(raw_ms), mean(opt_ms),
              100.0 * (1.0 - mean(opt_ms) / mean(raw_ms)));

  // -- part 2: the fused plan x simd x blocking ----------------------------
  Rng rng2(29);
  const auto big = graph::random_regular(big_n, 4, rng2);
  const auto ansatz = qaoa::build_qaoa_circuit(big, p, qaoa::MixerSpec::qnas());
  const std::vector<double> theta(ansatz.num_params(), 0.37);

  // `simd` uses the AVX2 bodies where the environment allows them; false
  // holds the process-wide switch off.
  const auto time_plan = [&](bool simd, bool blocking) {
    const sim::simd::ScopedRuntime scope(simd && sim::simd::runtime_enabled());
    qaoa::EnergyOptions options = sv;
    options.sv_plan.cache_blocking = blocking;
    const qaoa::EnergyEvaluator ev(big, options);
    const auto plan = ev.make_plan(ansatz);
    plan->energy(theta);  // warm-up
    Timer t;
    for (std::size_t r = 0; r < reps; ++r) plan->energy(theta);
    return t.millis() / static_cast<double>(reps);
  };
  // Scalar/no-blocking is the fused baseline; the simd and blocking columns
  // show how much they win on top of it.
  const double fused_ms = time_plan(false, false);
  const double fused_simd_ms = time_plan(true, false);
  const double fused_blocked_ms = time_plan(false, true);
  const double fused_full_ms = time_plan(true, true);
  const sim::SimProgram fused_prog(ansatz);
  std::printf("\nfused plan (%zu qubits, p=%zu): %.2f ms, %zu ops "
              "(%zu gates fused)\n",
              big_n, p, fused_ms, fused_prog.stats().ops,
              fused_prog.stats().fused_gates);
  std::printf("  fused + simd:          %.2f ms (%.2fx)\n", fused_simd_ms,
              fused_ms / fused_simd_ms);
  std::printf("  fused + blocking:      %.2f ms (%.2fx)\n", fused_blocked_ms,
              fused_ms / fused_blocked_ms);
  std::printf("  fused + simd+blocking: %.2f ms (%.2fx)\n", fused_full_ms,
              fused_ms / fused_full_ms);

  json::Value section = json::Value::object();
  section.set("candidates", candidates.size());
  section.set("p", p);
  section.set("shrunk_by_optimizer", shrunk);
  section.set("mean_gates_raw", mean(raw_gates));
  section.set("mean_gates_optimized", mean(opt_gates));
  section.set("mean_ms_raw", mean(raw_ms));
  section.set("mean_ms_optimized", mean(opt_ms));
  json::Value kernel = json::Value::object();
  kernel.set("qubits", big_n);
  kernel.set("fused_ms", fused_ms);
  kernel.set("fused_simd_ms", fused_simd_ms);
  kernel.set("fused_blocking_ms", fused_blocked_ms);
  kernel.set("fused_simd_blocking_ms", fused_full_ms);
  kernel.set("speedup_simd", fused_ms / fused_simd_ms);
  kernel.set("speedup_blocking", fused_ms / fused_blocked_ms);
  kernel.set("speedup_simd_blocking", fused_ms / fused_full_ms);
  kernel.set("ops_fused", fused_prog.stats().ops);
  kernel.set("fused_gates", fused_prog.stats().fused_gates);
  section.set("kernel_fusion", std::move(kernel));
  bench::update_bench_json(out, "fusion", std::move(section));

  // -- part 3: streaming passes by target qubit -----------------------------
  bool passes_agree = true;
  bench::update_bench_json(out, "kernels_by_qubit",
                           kernels_by_qubit(big_n, reps, passes_agree));
  return passes_agree ? 0 : 1;
}

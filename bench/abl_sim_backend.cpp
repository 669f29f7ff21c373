// Ablation: simulator engine (statevector vs tensor network).
//
// Times one full QAOA energy evaluation (all |E| <ZZ> terms) per engine
// as the qubit count grows, and reports each engine's compile/build counts
// (sim::program_compile_count for the statevector plans,
// qtensor::network_build_count for the tensor networks) so plan reuse is
// visible: compiled engines pay their builds once at plan time and ZERO per
// theta. Expected timings: statevector wins at small n but its cost doubles
// per qubit; the TN-lightcone path depends on circuit structure rather than
// n, so the crossover moves in its favour as n grows (at p=1 the lightcone
// is constant-size for regular graphs).
//
// Emits BENCH_qtensor.json section "sim_backend". The committed file's
// "tn_parallel" and "tn_rebuild" columns are the final records of removed
// paths (the multithreaded contraction kernel, the rebuild-per-theta
// network); rerun with --out to keep them.
//
// Flags: --p P (1) --reps R (10) --out PATH (BENCH_qtensor.json)
#include <cstdio>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"
#include "qtensor/network.hpp"
#include "sim/sim_program.hpp"

using namespace qarch;

namespace {

struct EngineRun {
  double ms = 0.0;              ///< per-evaluation time, steady state
  std::size_t plan_builds = 0;  ///< compiles/builds during make_plan
  std::size_t replay_builds = 0;  ///< builds during the timed replays (the
                                  ///< reuse check: must be 0 when compiled)
};

std::size_t engine_builds(const qaoa::EnergyOptions& opt) {
  return opt.engine == qaoa::EngineKind::Statevector
             ? static_cast<std::size_t>(sim::program_compile_count())
             : static_cast<std::size_t>(qtensor::network_build_count());
}

EngineRun time_energy(const graph::Graph& g, const circuit::Circuit& c,
                      const qaoa::EnergyOptions& opt, std::size_t reps) {
  const qaoa::EnergyEvaluator ev(g, opt);
  sim::reset_program_compile_count();
  qtensor::reset_network_build_count();
  const auto plan = ev.make_plan(c);
  EngineRun run;
  run.plan_builds = engine_builds(opt);

  const std::vector<double> theta(c.num_params(), 0.4);
  plan->energy(theta);  // warm-up: scratch pools
  sim::reset_program_compile_count();
  qtensor::reset_network_build_count();
  Timer t;
  for (std::size_t i = 0; i < reps; ++i) plan->energy(theta);
  run.ms = t.millis() / static_cast<double>(reps);
  run.replay_builds = engine_builds(opt);
  return run;
}

void add_run(json::Value& row, const char* key, const EngineRun& run) {
  json::Value v = json::Value::object();
  v.set("ms", run.ms);
  v.set("plan_builds", run.plan_builds);
  v.set("replay_builds", run.replay_builds);
  row.set(key, std::move(v));
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto p = static_cast<std::size_t>(cli.get_int("p", 1));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 10));
  const std::string out = cli.get("out", "BENCH_qtensor.json");

  std::printf("engine ablation: one full <C> evaluation, p=%zu, 3-regular\n",
              p);
  std::printf("build counts are compile-time/replay-time: compiled engines "
              "must replay with 0\n\n");
  std::printf("%-4s %-22s %-22s\n", "n", "statevector (ms|b)",
              "tn compiled (ms|b)");

  json::Value rows = json::Value::array();
  for (std::size_t n : {8, 10, 12, 14, 16}) {
    Rng rng(5);
    const auto g = graph::random_regular(n, 3, rng);
    const auto c = qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::qnas());

    qaoa::EnergyOptions sv;
    sv.engine = qaoa::EngineKind::Statevector;
    qaoa::EnergyOptions tn;
    tn.engine = qaoa::EngineKind::TensorNetwork;

    const EngineRun r_sv = time_energy(g, c, sv, reps);
    const EngineRun r_tn = time_energy(g, c, tn, reps);

    auto cell = [](const EngineRun& r) {
      char s[64];
      std::snprintf(s, sizeof(s), "%8.3f | %zu/%zu", r.ms, r.plan_builds,
                    r.replay_builds);
      return std::string(s);
    };
    std::printf("%-4zu %-22s %-22s\n", n, cell(r_sv).c_str(),
                cell(r_tn).c_str());

    json::Value row = json::Value::object();
    row.set("n", n);
    row.set("edges", g.num_edges());
    add_run(row, "statevector", r_sv);
    add_run(row, "tn_compiled", r_tn);
    rows.push_back(std::move(row));
  }
  std::printf(
      "\nNotes: b = engine builds at plan time / during the timed replays\n"
      "(sim::program_compile_count or qtensor::network_build_count).\n"
      "At p=1 the TN lightcone is constant-size on regular graphs, so its\n"
      "cost stays flat while the statevector doubles per qubit.\n");

  json::Value section = json::Value::object();
  section.set("p", p);
  section.set("reps", reps);
  section.set("rows", std::move(rows));
  bench::update_bench_json(out, "sim_backend", std::move(section));
  return 0;
}

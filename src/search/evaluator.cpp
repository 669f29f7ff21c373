#include "search/evaluator.hpp"

#include <algorithm>
#include <optional>

#include "circuit/optimizer.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "optim/multistart.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/sampling.hpp"
#include "sim/sim_program.hpp"

namespace qarch::search {

namespace {

/// A flat candidate: every gate of its (optimized) ansatz is diagonal. The
/// ansatz holds no preparation gates and every plan and sampler starts from
/// |+>^n, so a diagonal ansatz leaves the state at 2^(-n/2)·e^{iφ(x)}: every
/// |a_x|^2 stays 2^-n whatever θ is, and in exact arithmetic <C>, CVaR,
/// best-of-shots and the Eq. 3 draws are all constant in θ. Training such a
/// candidate only follows rounding noise, so it is scored at its start point.
bool is_flat(const circuit::Circuit& ansatz) {
  return std::ranges::all_of(ansatz.gates(), [](const circuit::Gate& g) {
    return circuit::is_diagonal(g.kind);
  });
}

}  // namespace

query::SamplerOptions sampler_options(const qaoa::EnergyOptions& energy) {
  query::SamplerOptions so;
  so.engine = energy.engine == qaoa::EngineKind::Statevector
                  ? query::SamplerEngine::Statevector
                  : query::SamplerEngine::TensorNetwork;
  so.query = query::query_options(energy.qtensor);
  so.tn_backend = energy.qtensor.backend;
  so.sv_plan = energy.sv_plan;
  so.sv_workers = energy.inner_workers;
  return so;
}

Evaluator::Evaluator(const graph::Graph& g, EvaluatorOptions options)
    : graph_(g),
      options_(std::move(options)),
      ham_(options_.hamiltonian.build(graph_)),
      energy_(ham_, options_.effective_energy()),
      cobyla_(options_.cobyla) {
  QARCH_REQUIRE(g.num_edges() >= 1, "evaluation graph needs edges");
  QARCH_REQUIRE(options_.restarts >= 1, "need at least one training start");
  // Refused up front: a 2^n statevector still runs in these cases. The
  // default spec scores Eq. 3 on a one-shot state on either engine, and the
  // statevector engine trains on one.
  QARCH_REQUIRE(!options_.hamiltonian.is_default() || g.num_vertices() <= 26,
                "MaxCut evaluation (2^n statevector scoring) needs <= 26 "
                "vertices");
  QARCH_REQUIRE(options_.energy.engine != qaoa::EngineKind::Statevector ||
                    g.num_vertices() <= 30,
                "statevector evaluation needs <= 30 vertices");
  // One solver on both engines. The statevector engine's cost diagonal
  // holds the same term-order sums, but where several maximizers tie in
  // exact arithmetic and round differently (weighted MIS) its maximum can
  // pick another one's bits; ratios would then depend on the engine.
  classical_optimum_ = qaoa::classical_maximum(ham_);
}

double Evaluator::ratio_of(double value) const {
  return classical_optimum_ > 0.0 ? value / classical_optimum_ : 0.0;
}

CandidateResult Evaluator::evaluate(const qaoa::MixerSpec& mixer,
                                    std::size_t p) const {
  optim::OptimState scratch;
  ResumableEvaluation run = evaluate_resumable(mixer, p, scratch, nullptr);
  QARCH_REQUIRE(run.completed, "unpreempted evaluation must complete");
  return run.result;
}

ResumableEvaluation Evaluator::evaluate_resumable(
    const qaoa::MixerSpec& mixer, std::size_t p, optim::OptimState& state,
    optim::PreemptToken* preempt) const {
  Timer timer;
  circuit::Circuit ansatz = qaoa::build_qaoa_circuit(graph_, p, mixer);
  // Searched sequences routinely contain mergeable structure (rx·rx, h·h
  // pairs); shrinking the candidate benefits every engine — the compiled
  // statevector plan, the per-edge TN lightcones, and the sampling pass.
  if (options_.simplify_circuit) ansatz = circuit::optimize(ansatz);
  const bool flat = is_flat(ansatz);
  // Restarts split the COBYLA budget; the one shared objective means the
  // candidate's training compiles exactly once on EITHER engine: one
  // SimProgram (statevector, which scoring replays too) or one per-edge set
  // of ContractionPrograms (qtensor, scored by one one-shot SimProgram whose
  // cost-layer table comes from the evaluator's phase-table cache) —
  // probes: sim::program_compile_count() and qtensor::network_build_count().
  std::optional<optim::MultiStart> multistart;
  const optim::Optimizer* optimizer = &cobyla_;
  if (options_.restarts > 1) {
    optim::MultiStartConfig ms;
    ms.restarts = options_.restarts;
    ms.total_evals = options_.cobyla.max_evals;
    ms.perturbation = options_.restart_perturbation;
    ms.seed = options_.restart_seed;
    multistart.emplace(
        [this](std::size_t budget) -> std::unique_ptr<optim::Optimizer> {
          optim::CobylaConfig per_run = options_.cobyla;
          per_run.max_evals = budget;
          return std::make_unique<optim::Cobyla>(per_run);
        },
        ms);
    optimizer = &*multistart;
  }
  // One compiled sampler per candidate when anything needs draws: the
  // sampled training objectives and/or the generalized scoring pass.
  // Expectation training fetches its plan once and keeps it for scoring, so
  // the candidate still compiles once even with plan caching off.
  std::shared_ptr<const qaoa::EnergyPlan> plan;
  std::optional<query::Sampler> sampler;
  optim::Objective value;
  if (options_.objective.kind == qaoa::ObjectiveKind::Expectation) {
    plan = energy_.plan_for(ansatz);
    value = [&plan](std::span<const double> theta) {
      return plan->energy(theta);
    };
  } else {
    sampler.emplace(ansatz, sampler_options(energy_.options()),
                    energy_.phase_tables());
    const std::size_t shots =
        options_.objective.shots > 0 ? options_.objective.shots
                                     : options_.shots;
    value = [this, &sampler, shots](std::span<const double> theta) {
      // Seed fixed per evaluation: the sampled objective is a
      // deterministic function of theta, so restarts compare fairly and
      // resumed slices stitch exactly.
      Rng rng(options_.sample_seed ^ 0x0051ed2700c1a9ULL);
      const std::vector<std::size_t> samples =
          sampler->sample(theta, shots, rng);
      std::vector<double> values(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i)
        values[i] = ham_.classical_value_bits(samples[i]);
      return qaoa::objective_value(options_.objective, std::move(values));
    };
  }
  // A flat candidate completes in this slice with one call and no
  // checkpoint: the token is not polled and nothing is left to resume.
  if (flat) state.clear();
  const qaoa::TrainResult trained =
      flat ? qaoa::evaluate_start_point(ansatz.num_params(), value,
                                        options_.train)
           : qaoa::train_objective(ansatz.num_params(), value, *optimizer,
                                   options_.train, state, preempt);

  ResumableEvaluation out;
  out.evaluations_done = trained.evaluations;
  if (trained.preempted) {
    // Parked mid-training: report the partial accounting; the sampling pass
    // waits for the completing slice.
    out.result.mixer = mixer;
    out.result.p = p;
    out.result.energy = trained.energy;
    out.result.theta = trained.theta;
    out.result.evaluations = trained.evaluations;
    out.result.eval_seconds = timer.seconds();
    return out;
  }

  CandidateResult r;
  r.mixer = mixer;
  r.p = p;
  r.energy = trained.energy;
  r.ratio = ratio_of(trained.energy);
  // Eq. 3 numerator: expected best value among sampled measurements. Seeded
  // per-candidate for determinism regardless of evaluation order. The
  // default MaxCut spec draws from the trained state of a compiled replay:
  // the statevector plan's own program when training used one, otherwise
  // (tensor-network engine, sampled objectives) a one-shot program compiled
  // through the energy evaluator's phase-table cache, so its cost-layer
  // table is the one every other candidate of this graph replays.
  // Generalized Hamiltonians score through the compiled sampler on the
  // configured engine.
  Rng sample_rng(options_.sample_seed ^ (p * 0x9e3779b97f4a7c15ULL) ^
                 mixer.gates.size());
  if (options_.hamiltonian.is_default()) {
    const sim::State* compiled =
        plan != nullptr ? plan->state(trained.theta) : nullptr;
    sim::State one_shot;
    if (compiled == nullptr) {
      const qaoa::EnergyOptions& energy = energy_.options();
      one_shot = sim::SimProgram(ansatz, energy.sv_plan, energy_.phase_tables())
                     .run_from_plus(trained.theta, energy.inner_workers);
      compiled = &one_shot;
    }
    r.sampled_ratio = ratio_of(qaoa::expected_best_cut(
        *compiled, graph_, options_.shots, options_.sample_trials,
        sample_rng));
  } else {
    if (!sampler.has_value())
      sampler.emplace(ansatz, sampler_options(energy_.options()),
                      energy_.phase_tables());
    const double best_value = qaoa::expected_best_value(
        *sampler, trained.theta, ham_, options_.shots, options_.sample_trials,
        sample_rng);
    r.sampled_ratio = ratio_of(best_value);
  }
  r.theta = trained.theta;
  r.evaluations = trained.evaluations;
  // The service overwrites this with its own timestamps; direct callers get
  // the training+sampling wall-clock of this call.
  r.eval_seconds = timer.seconds();
  out.completed = true;
  out.result = std::move(r);
  return out;
}

}  // namespace qarch::search

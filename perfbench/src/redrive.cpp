#include "redrive.hpp"

#include <future>
#include <optional>

#include "common/rng.hpp"
#include "optim/cobyla.hpp"
#include "parallel/thread_pool.hpp"
#include "qaoa/objective.hpp"
#include "qaoa/sampling.hpp"
#include "query/program.hpp"
#include "query/sampler.hpp"

namespace perfbench {

using qarch::Rng;

namespace {

/// The sampler Evaluator builds for sampled objectives (mirrors its private
/// sampler_options()).
qarch::query::SamplerOptions sampler_options(
    const search::EvaluatorOptions& options) {
  const qaoa::EnergyOptions energy = options.effective_energy();
  qarch::query::SamplerOptions so;
  so.engine = energy.engine == qaoa::EngineKind::Statevector
                  ? qarch::query::SamplerEngine::Statevector
                  : qarch::query::SamplerEngine::TensorNetwork;
  so.query = qarch::query::query_options(energy.qtensor);
  so.tn_backend = energy.qtensor.backend;
  so.sv_plan = energy.sv_plan;
  so.sv_workers = energy.inner_workers;
  return so;
}

/// One candidate through the same public calls Evaluator::evaluate makes.
struct CandidateTrace {
  search::CandidateResult result;
  std::vector<double> replay_us, sample_ms;
  double compile_ms = -1.0, sampler_build_ms = -1.0, score_ms = 0.0;
  double optim_self_ms = 0.0, candidate_ms = 0.0, unattributed_ms = 0.0;
  double programs_per_term = 0.0;
};

CandidateTrace redrive_one(const Workload& w, const graph::Graph& g,
                           const search::EvaluatorOptions& options,
                           const qaoa::Hamiltonian& ham,
                           const qaoa::EnergyEvaluator& energy,
                           const search::CandidateResult& ref,
                           std::int64_t id, Tracer& tracer, Tracer::Id root) {
  CandidateTrace out;
  const Tracer::Id cand = tracer.open("candidate", root, id);

  Tracer::Id span = tracer.open("qaoa.build", cand, id);
  const circuit::Circuit ansatz = candidate_circuit(g, options, ref.mixer, ref.p);
  tracer.close(span);
  double children_ms = tracer.millis(span);

  std::unique_ptr<qaoa::EnergyPlan> plan;
  std::optional<qarch::query::Sampler> sampler;
  if (w.cvar) {
    span = tracer.open("query.sampler_build", cand, id);
    sampler.emplace(ansatz, sampler_options(options));
    tracer.close(span);
    out.sampler_build_ms = tracer.millis(span);
  } else {
    span = tracer.open("qaoa.make_plan", cand, id);
    plan = energy.make_plan(ansatz);
    tracer.close(span);
    out.compile_ms = tracer.millis(span);
    const qaoa::EnergyPlanInfo info = plan->info();
    out.programs_per_term =
        info.terms > 0 ? static_cast<double>(info.compiled_programs) /
                             static_cast<double>(info.terms)
                       : 0.0;
  }
  children_ms += w.cvar ? out.sampler_build_ms : out.compile_ms;

  // Training: the objective is negated exactly as qaoa::train_qaoa and
  // qaoa::train_objective negate it, so theta and energy match bit for bit.
  const Tracer::Id minimize = tracer.open("optim.minimize", cand, id);
  double objective_ms = 0.0;
  const std::size_t shots =
      options.objective.shots > 0 ? options.objective.shots : options.shots;
  const qarch::optim::Objective objective =
      [&](std::span<const double> theta) -> double {
    const double start = tracer.now();
    double value = 0.0;
    if (w.cvar) {
      Rng rng(options.sample_seed ^ 0x0051ed2700c1a9ULL);
      const std::vector<std::size_t> draws = sampler->sample(theta, shots, rng);
      std::vector<double> values(draws.size());
      for (std::size_t i = 0; i < draws.size(); ++i)
        values[i] = ham.classical_value_bits(draws[i]);
      value = -qaoa::objective_value(options.objective, std::move(values));
    } else {
      value = -plan->energy(theta);
    }
    const double end = tracer.now();
    tracer.add(w.cvar ? "query.sample" : "qaoa.replay", start, end, minimize,
               id);
    const double took_ms = (end - start) * 1e3;
    if (w.cvar)
      out.sample_ms.push_back(took_ms);
    else
      out.replay_us.push_back(took_ms * 1e3);
    objective_ms += took_ms;
    return value;
  };
  const qarch::optim::Cobyla cobyla(options.cobyla);
  const qarch::optim::OptimResult trained = cobyla.minimize(
      objective, std::vector<double>(ansatz.num_params(),
                                     options.train.initial_value));
  tracer.close(minimize);
  const double minimize_ms = tracer.millis(minimize);
  out.optim_self_ms = minimize_ms - objective_ms;
  children_ms += minimize_ms;

  span = tracer.open("qaoa.score", cand, id);
  Rng sample_rng(options.sample_seed ^ (ref.p * 0x9e3779b97f4a7c15ULL) ^
                 ref.mixer.gates.size());
  (void)qaoa::expected_best_cut(ansatz, trained.x, g, options.shots,
                                options.sample_trials, sample_rng);
  tracer.close(span);
  out.score_ms = tracer.millis(span);
  children_ms += out.score_ms;
  tracer.close(cand);

  out.candidate_ms = tracer.millis(cand);
  out.unattributed_ms = out.candidate_ms - children_ms;
  out.result.mixer = ref.mixer;
  out.result.p = ref.p;
  out.result.energy = -trained.value;
  out.result.theta = trained.x;
  out.result.evaluations = trained.evaluations;
  return out;
}

}  // namespace

Redrive redrive(const Workload& w, const graph::Graph& g,
                const std::vector<search::CandidateResult>& candidates,
                std::size_t inner, Tracer& tracer, Tracer::Id root) {
  qarch::SessionConfig session = session_for(w);
  session.inner_workers = inner;
  const search::EvaluatorOptions options = session.evaluator_options(w.engine);
  const qaoa::Hamiltonian ham = options.hamiltonian.build(g);
  const qaoa::EnergyEvaluator energy(ham, options.effective_energy());

  std::vector<std::future<CandidateTrace>> futures;
  {
    qarch::parallel::ThreadPool pool(w.sizes.workers);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      futures.push_back(pool.submit([&, i] {
        return redrive_one(w, g, options, ham, energy, candidates[i],
                           static_cast<std::int64_t>(i), tracer, root);
      }));
    for (auto& f : futures) f.wait();
  }
  Redrive out;
  for (auto& f : futures) {
    CandidateTrace t = f.get();
    out.replays += t.replay_us.size();
    out.samples += t.sample_ms.size();
    out.replay_us.insert(out.replay_us.end(), t.replay_us.begin(),
                         t.replay_us.end());
    out.sample_ms.insert(out.sample_ms.end(), t.sample_ms.begin(),
                         t.sample_ms.end());
    if (t.compile_ms >= 0.0) out.compile_ms.push_back(t.compile_ms);
    if (t.sampler_build_ms >= 0.0)
      out.sampler_build_ms.push_back(t.sampler_build_ms);
    out.score_ms.push_back(t.score_ms);
    out.optim_self_ms.push_back(t.optim_self_ms);
    out.programs_per_term.push_back(t.programs_per_term);
    out.candidate_ms += t.candidate_ms;
    out.unattributed_ms += t.unattributed_ms;
    out.results.push_back(std::move(t.result));
  }
  return out;
}

void probe_idle_layers(const Workload& w, const graph::Graph& g,
                       const search::CandidateResult& candidate,
                       Tracer& tracer, Tracer::Id root, Redrive& out) {
  constexpr std::size_t kCalls = 5;
  const search::EvaluatorOptions options =
      session_for(w).evaluator_options(w.engine);
  const circuit::Circuit ansatz =
      candidate_circuit(g, options, candidate.mixer, candidate.p);
  if (w.cvar) {
    const qaoa::EnergyEvaluator energy(options.hamiltonian.build(g),
                                       options.effective_energy());
    Tracer::Id span = tracer.open("qaoa.make_plan", root);
    const std::unique_ptr<qaoa::EnergyPlan> plan = energy.make_plan(ansatz);
    tracer.close(span);
    out.compile_ms.push_back(tracer.millis(span));
    for (std::size_t k = 0; k < kCalls; ++k) {
      span = tracer.open("qaoa.replay", root);
      (void)plan->energy(candidate.theta);
      tracer.close(span);
      out.replay_us.push_back(tracer.millis(span) * 1e3);
    }
  } else {
    Tracer::Id span = tracer.open("query.sampler_build", root);
    const qarch::query::Sampler sampler(ansatz, sampler_options(options));
    tracer.close(span);
    out.sampler_build_ms.push_back(tracer.millis(span));
    Rng rng(options.sample_seed);
    for (std::size_t k = 0; k < kCalls; ++k) {
      span = tracer.open("query.sample", root);
      (void)sampler.sample(candidate.theta, options.shots, rng);
      tracer.close(span);
      out.sample_ms.push_back(tracer.millis(span));
    }
  }
}

}  // namespace perfbench

// Evaluator module: trains a candidate circuit on the QAOA cost function and
// produces the reward propagated back to the predictor.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "optim/cobyla.hpp"
#include "qaoa/energy.hpp"
#include "qaoa/mixer.hpp"
#include "qaoa/objective.hpp"
#include "qaoa/train.hpp"
#include "query/sampler.hpp"

namespace qarch::search {

/// Everything known about one evaluated candidate.
struct CandidateResult {
  qaoa::MixerSpec mixer;
  std::size_t p = 0;
  double energy = 0.0;            ///< trained <C>
  double ratio = 0.0;             ///< energy ratio <C> / C_classical
                                  ///< (the search reward of Algorithm 1)
  double sampled_ratio = 0.0;     ///< Eq. 3: <C_max> / C_classical, the
                                  ///< expected-best-sampled-cut ratio the
                                  ///< paper's Figs. 7-9 report
  std::vector<double> theta;      ///< trained parameters
  std::size_t evaluations = 0;    ///< objective calls spent training
  // Per-candidate accounting stamped by the evaluation service (EvalService):
  double queue_seconds = 0.0;     ///< wait between submission and start
  double eval_seconds = 0.0;      ///< evaluation wall-clock (also set by
                                  ///< Evaluator::evaluate for direct calls)
  bool from_cache = false;        ///< this submission was served from the
                                  ///< service's caches (result cache or an
                                  ///< in-flight duplicate), not a fresh run
};

/// Evaluation configuration: which engine simulates, which optimizer trains.
struct EvaluatorOptions {
  qaoa::EnergyOptions energy;             ///< simulator engine selection
  optim::CobylaConfig cobyla;             ///< 200-eval COBYLA by default
  qaoa::TrainOptions train;
  bool simplify_circuit = true;           ///< run circuit::optimize on each
                                          ///< candidate before simulating
                                          ///< (action-preserving peepholes)
  /// Multi-start training: > 1 splits the COBYLA budget across seeded
  /// restarts (optim::MultiStart). All restarts of one candidate share the
  /// SAME cached energy plan — one compilation per candidate, total.
  std::size_t restarts = 1;
  double restart_perturbation = 1.0;      ///< stddev of restart-point jitter
  std::uint64_t restart_seed = 31;
  std::size_t shots = 128;                ///< samples per <C_max> batch
  std::size_t sample_trials = 8;          ///< batches averaged for <C_max>
  std::uint64_t sample_seed = 99;         ///< sampling stream seed
  /// Training objective. Expectation (default) trains on the exact <C>
  /// through the compiled energy plans — the paper's setup, bit-identical
  /// to the pre-objective evaluator. CVaR / BestOfShots train on a sampled
  /// statistic drawn from a compiled query::Sampler on the SAME engine the
  /// energy options select (spec.shots overrides `shots` when set).
  qaoa::ObjectiveSpec objective;
  /// Cost Hamiltonian. Every spec takes the ratio denominator from
  /// qaoa::classical_maximum. MaxCut (default) scores with
  /// qaoa::expected_best_cut on the candidate's 2^n compiled state, so it
  /// is refused above 26 vertices on either engine; MIS / Ising route the
  /// sampling pass through the generalized-value scorer on the configured
  /// engine.
  qaoa::HamiltonianSpec hamiltonian;

  /// The energy options the evaluator actually runs with. The low-level
  /// reconciliation between EvaluatorOptions and EnergyOptions: when the
  /// evaluator pre-simplifies candidates itself, the compiled statevector
  /// plan must not re-run circuit::optimize on the result. Everything else
  /// (inner_workers, sv_plan toggles, cache capacity) passes through
  /// untouched, so callers' settings round-trip. Most callers should not
  /// wire this directly any more — qarch::SessionConfig::energy_options()
  /// is the session-level facade that absorbs this contract.
  [[nodiscard]] qaoa::EnergyOptions effective_energy() const {
    qaoa::EnergyOptions e = energy;
    if (simplify_circuit) e.sv_plan.presimplify = false;
    return e;
  }
};

/// The sampler configuration every sampled path derives from one set of
/// energy options: the same engine, query compile options, backend, plan
/// and replay workers. search::Evaluator and the server's /v1/sample both
/// use it, so wire draws match direct ones bit for bit.
[[nodiscard]] query::SamplerOptions sampler_options(
    const qaoa::EnergyOptions& energy);

/// Outcome of one resumable evaluation slice. When `completed` is false the
/// slice was parked by the PreemptToken: `result` is only partially filled
/// (no sampling pass yet) and the caller's OptimState holds the training
/// checkpoint that continues the run.
struct ResumableEvaluation {
  bool completed = false;
  CandidateResult result;
  std::size_t evaluations_done = 0;  ///< training evals consumed so far
};

/// Trains and scores candidate mixers for one fixed graph.
///
/// Thread-safe: evaluate() builds all per-candidate state locally, so one
/// Evaluator can be shared by every worker of the parallel search. The only
/// shared mutable state behind evaluate() is the per-(n, p) energy plan
/// cache in qaoa/energy.cpp, which guards itself with an annotated
/// qarch::Mutex (tier cache.energyplans, rank 50 in common/lock_order.hpp).
class Evaluator {
 public:
  Evaluator(const graph::Graph& g, EvaluatorOptions options = {});

  /// Trains the (mixer, p) candidate and returns its scored result
  /// (SIMULATE_QAOA + reward computation of Algorithm 1).
  [[nodiscard]] CandidateResult evaluate(const qaoa::MixerSpec& mixer,
                                         std::size_t p) const;

  /// Preemptible form: runs one training slice, polling `preempt` at the
  /// optimizer's safe points. A fresh `state` starts the candidate; a state
  /// packed by a previous parked slice continues it. Repeated slices stitch
  /// to a result identical to one uninterrupted evaluate() call — the final
  /// slice runs the sampling pass and completes. A flat candidate (every
  /// gate of its ansatz diagonal, so no objective depends on θ) is not
  /// trained: it completes in its first slice with one evaluation, at the
  /// start point, without polling `preempt`, and clears `state`.
  [[nodiscard]] ResumableEvaluation evaluate_resumable(
      const qaoa::MixerSpec& mixer, std::size_t p, optim::OptimState& state,
      optim::PreemptToken* preempt) const;

  /// The exact classical optimum of the configured Hamiltonian, by
  /// qaoa::classical_maximum's bucket elimination on either engine, so the
  /// two engines divide by the same bits.
  [[nodiscard]] double classical_optimum() const { return classical_optimum_; }

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const qaoa::Hamiltonian& hamiltonian() const { return ham_; }
  [[nodiscard]] const EvaluatorOptions& options() const { return options_; }

 private:
  /// value / classical_optimum, or 0 when the optimum is not positive
  /// (possible for general Ising objectives; MaxCut optima always are).
  [[nodiscard]] double ratio_of(double value) const;

  graph::Graph graph_;
  EvaluatorOptions options_;
  qaoa::Hamiltonian ham_;
  qaoa::EnergyEvaluator energy_;
  optim::Cobyla cobyla_;
  double classical_optimum_ = 0.0;
};

}  // namespace qarch::search

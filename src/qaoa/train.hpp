// Variational training of a QAOA ansatz and approximation-ratio scoring.
#pragma once

#include <memory>

#include "graph/graph.hpp"
#include "optim/optimizer.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/energy.hpp"

namespace qarch::qaoa {

/// Outcome of training one (graph, mixer, p) candidate.
struct TrainResult {
  std::vector<double> theta;     ///< trained parameters (γ, β interleaved)
  double energy = 0.0;           ///< best <C> reached (maximized)
  std::size_t evaluations = 0;   ///< objective calls used
  bool preempted = false;        ///< run parked by the PreemptToken; the
                                 ///< OptimState continues it later
};

/// Training configuration. The optimizer MINIMIZES, so the objective is
/// -<C>; `initial_value` seeds every parameter (deterministic runs).
struct TrainOptions {
  double initial_value = 0.1;
};

/// Trains `ansatz` on the evaluator's graph with the given optimizer.
TrainResult train_qaoa(const circuit::Circuit& ansatz,
                       const EnergyEvaluator& evaluator,
                       const optim::Optimizer& optimizer,
                       const TrainOptions& options = {});

/// Resumable form: threads a training checkpoint (`state`) and a cooperative
/// preemption token through the optimizer. A fresh state starts the run; a
/// state packed by a previous preempted call continues it, and the stitched
/// final result is identical to an uninterrupted run.
TrainResult train_qaoa(const circuit::Circuit& ansatz,
                       const EnergyEvaluator& evaluator,
                       const optim::Optimizer& optimizer,
                       const TrainOptions& options, optim::OptimState& state,
                       optim::PreemptToken* preempt);

/// Generalized-objective form: trains against an arbitrary MAXIMIZED value
/// function (e.g. a sampled CVaR or best-of-shots estimator) instead of the
/// exact <C>. Same checkpoint/preemption semantics; `value` must be a
/// deterministic function of theta for a resumed run to stitch exactly.
TrainResult train_objective(std::size_t num_params,
                            const optim::Objective& value,
                            const optim::Optimizer& optimizer,
                            const TrainOptions& options,
                            optim::OptimState& state,
                            optim::PreemptToken* preempt);

/// The untrained run: `value` called once at the start point, reported as a
/// completed run with one evaluation. For an objective that does not depend
/// on theta this is what training would return, without the budget.
TrainResult evaluate_start_point(std::size_t num_params,
                                 const optim::Objective& value,
                                 const TrainOptions& options);

/// Approximation ratio r = <C> / C_classical (Eq. 3). `classical_optimum`
/// is the exact optimum of the same Hamiltonian, as qaoa::classical_maximum's
/// bucket elimination returns it.
double approximation_ratio(double energy, double classical_optimum);

}  // namespace qarch::qaoa

#include "qaoa/train.hpp"

#include "common/error.hpp"

namespace qarch::qaoa {

TrainResult train_qaoa(const circuit::Circuit& ansatz,
                       const EnergyEvaluator& evaluator,
                       const optim::Optimizer& optimizer,
                       const TrainOptions& options) {
  optim::OptimState scratch;
  return train_qaoa(ansatz, evaluator, optimizer, options, scratch, nullptr);
}

TrainResult train_qaoa(const circuit::Circuit& ansatz,
                       const EnergyEvaluator& evaluator,
                       const optim::Optimizer& optimizer,
                       const TrainOptions& options, optim::OptimState& state,
                       optim::PreemptToken* preempt) {
  QARCH_REQUIRE(ansatz.num_params() >= 1, "ansatz has no parameters");
  // One CACHED plan for the whole run: every optimizer step — including
  // every restart of a multi-start wrapper, whose objective closure is this
  // same plan — rebinds thetas against one compilation. Re-training the
  // same ansatz structure later hits the evaluator's cache too. A resumed
  // slice re-fetches the plan from that cache, so parking a job only
  // re-pays a cache lookup, never a compile.
  const std::shared_ptr<const EnergyPlan> plan = evaluator.plan_for(ansatz);
  return train_objective(
      ansatz.num_params(),
      [&plan](std::span<const double> theta) { return plan->energy(theta); },
      optimizer, options, state, preempt);
}

TrainResult train_objective(std::size_t num_params,
                            const optim::Objective& value,
                            const optim::Optimizer& optimizer,
                            const TrainOptions& options,
                            optim::OptimState& state,
                            optim::PreemptToken* preempt) {
  QARCH_REQUIRE(num_params >= 1, "objective has no parameters");
  const optim::Objective objective = [&](std::span<const double> theta) {
    return -value(theta);  // maximize
  };
  std::vector<double> x0(num_params, options.initial_value);
  const optim::OptimResult r =
      optimizer.minimize(objective, std::move(x0), state, preempt);

  TrainResult out;
  out.theta = r.x;
  out.energy = -r.value;
  out.evaluations = r.evaluations;
  out.preempted = r.preempted;
  return out;
}

TrainResult evaluate_start_point(std::size_t num_params,
                                 const optim::Objective& value,
                                 const TrainOptions& options) {
  QARCH_REQUIRE(num_params >= 1, "objective has no parameters");
  TrainResult out;
  out.theta.assign(num_params, options.initial_value);
  out.energy = value(out.theta);
  out.evaluations = 1;
  return out;
}

double approximation_ratio(double energy, double classical_optimum) {
  QARCH_REQUIRE(classical_optimum > 0.0, "classical optimum must be positive");
  return energy / classical_optimum;
}

}  // namespace qarch::qaoa

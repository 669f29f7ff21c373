#include "session.hpp"

#include "common/error.hpp"

namespace qarch {

BackendChoice backend_from_name(const std::string& name) {
  if (name == "sv" || name == "statevector") return BackendChoice::Statevector;
  if (name == "tn" || name == "qtensor" || name == "tensor-network")
    return BackendChoice::TensorNetwork;
  if (name == "auto") return BackendChoice::Auto;
  throw InvalidArgument("unknown backend name: " + name);
}

std::string backend_name(BackendChoice backend) {
  switch (backend) {
    case BackendChoice::Statevector: return "sv";
    case BackendChoice::TensorNetwork: return "tn";
    case BackendChoice::Auto: return "auto";
  }
  throw InvalidArgument("invalid BackendChoice");
}

std::string engine_tag(qaoa::EngineKind engine) {
  return backend_name(engine == qaoa::EngineKind::Statevector
                          ? BackendChoice::Statevector
                          : BackendChoice::TensorNetwork);
}

search::EvaluatorOptions SessionConfig::evaluator_options(
    qaoa::EngineKind engine, std::size_t training) const {
  search::EvaluatorOptions opt = base;
  opt.energy.engine = engine;
  opt.energy.inner_workers = inner_workers;
  opt.cobyla.max_evals = training > 0 ? training : training_evals;
  opt.restarts = restarts;
  opt.simplify_circuit = simplify_circuit;
  opt.shots = shots;
  opt.sample_trials = sample_trials;
  opt.objective = objective;
  opt.hamiltonian = hamiltonian;
  return opt;
}

qaoa::EnergyOptions SessionConfig::energy_options(
    qaoa::EngineKind engine) const {
  return evaluator_options(engine).effective_energy();
}

}  // namespace qarch

#include "query/sampler.hpp"

#include <algorithm>
#include <complex>
#include <optional>

#include "common/error.hpp"
#include "sim/state_utils.hpp"

namespace qarch::query {

struct Sampler::Impl {
  SamplerOptions options;
  std::size_t n = 0;
  // Statevector engine.
  std::optional<sim::SimProgram> program;
  // Tensor-network engine: steps[k] opens qubit n-1-k, fixes qubits above
  // it, traces qubits below it.
  std::vector<std::unique_ptr<qtensor::ContractionProgram>> steps;

  /// |psi> for the statevector engine, in this thread's replay buffer.
  const sim::State& state(std::span<const double> theta) const {
    return program->replay_from_plus(theta, options.sv_workers);
  }

  /// Joint marginal [p(prefix, q=0), p(prefix, q=1)] for step k, where the
  /// prefix is the already-drawn bits of qubits above q, read from `idx`.
  void step_marginal(std::size_t k, std::span<const double> theta,
                     std::size_t idx, std::vector<int>& caps,
                     double out[2]) const {
    const std::size_t q = n - 1 - k;
    caps.clear();
    for (std::size_t j = q + 1; j < n; ++j)
      caps.push_back(static_cast<int>((idx >> j) & 1));
    cplx buf[2];
    steps[k]->run(theta, caps, std::span<cplx>(buf, 2));
    out[0] = std::max(0.0, buf[0].real());
    out[1] = std::max(0.0, buf[1].real());
  }
};

Sampler::Sampler(const circuit::Circuit& ansatz, const SamplerOptions& options,
                 sim::PhaseTableCache* tables)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  impl_->n = ansatz.num_qubits();
  QARCH_REQUIRE(impl_->n >= 1, "sampler needs at least one qubit");
  if (options.engine == SamplerEngine::Statevector) {
    impl_->program.emplace(ansatz, options.sv_plan, tables);
    return;
  }
  qtensor::check_backend_spec(options.tn_backend);
  impl_->steps.reserve(impl_->n);
  for (std::size_t k = 0; k < impl_->n; ++k) {
    const std::size_t q = impl_->n - 1 - k;
    std::vector<qtensor::WireRole> roles(impl_->n, qtensor::WireRole::Trace);
    roles[q] = qtensor::WireRole::Diagonal;
    for (std::size_t j = q + 1; j < impl_->n; ++j)
      roles[j] = qtensor::WireRole::Fix;
    qtensor::QueryNetwork network = qtensor::measure_query_network(
        ansatz, std::vector<double>(ansatz.num_params(), 0.0), roles);
    std::vector<qtensor::VarId> final_labels = network.open_labels;
    impl_->steps.push_back(std::make_unique<qtensor::ContractionProgram>(
        std::move(network), std::move(final_labels), ansatz.num_params(),
        options.query, "q:chain" + std::to_string(q)));
  }
}

Sampler::~Sampler() = default;

std::size_t Sampler::num_qubits() const { return impl_->n; }

SamplerEngine Sampler::engine() const { return impl_->options.engine; }

std::vector<std::size_t> Sampler::sample(std::span<const double> theta,
                                         std::size_t shots, Rng& rng) const {
  if (impl_->options.engine == SamplerEngine::Statevector) {
    std::vector<double> uniforms(shots);
    for (double& r : uniforms) r = rng.uniform();
    return sim::sample_basis_states(impl_->state(theta), uniforms);
  }
  // Tensor-network engine: walk qubits MSB-first, choosing each bit from
  // its JOINT marginal with the subtractive residue. In exact arithmetic
  // this is the ascending-index inverse CDF: after fixing a prefix, the
  // residue r lies in [0, p(prefix)) and p(prefix, next=0) splits that
  // interval the same way the flat CDF does. In floats it can differ from
  // the statevector draw only within rounding of a CDF boundary.
  std::vector<std::size_t> out;
  out.reserve(shots);
  std::vector<int> caps;
  caps.reserve(impl_->n);
  for (std::size_t s = 0; s < shots; ++s) {
    double r = rng.uniform();
    std::size_t idx = 0;
    for (std::size_t k = 0; k < impl_->n; ++k) {
      const std::size_t q = impl_->n - 1 - k;
      double m[2];
      impl_->step_marginal(k, theta, idx, caps, m);
      if (r < m[0]) continue;  // bit stays 0
      r -= m[0];
      idx |= std::size_t{1} << q;
    }
    out.push_back(idx);
  }
  return out;
}

double Sampler::probability(std::span<const double> theta,
                            std::size_t basis) const {
  QARCH_REQUIRE(basis < (std::size_t{1} << impl_->n),
                "basis index out of range");
  if (impl_->options.engine == SamplerEngine::Statevector) {
    const sim::State& state = impl_->state(theta);
    return std::norm(state[basis]);
  }
  // The last chain step fixes every qubit but 0; its joint marginal AT the
  // full prefix is the basis probability itself.
  std::vector<int> caps;
  double m[2];
  impl_->step_marginal(impl_->n - 1, theta, basis, caps, m);
  return m[basis & 1];
}

}  // namespace qarch::query

#include "query/program.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qarch::query {

using qtensor::ContractionProgram;
using qtensor::QueryNetwork;
using qtensor::VarId;

// -- AmplitudeProgram ---------------------------------------------------------

AmplitudeProgram::AmplitudeProgram(const circuit::Circuit& circuit,
                                   const qtensor::ProgramOptions& options)
    : num_qubits_(circuit.num_qubits()) {
  QueryNetwork network = qtensor::amplitude_query_network(
      circuit, std::vector<double>(circuit.num_params(), 0.0), {});
  program_ = std::make_unique<ContractionProgram>(
      std::move(network), std::vector<VarId>{}, circuit.num_params(), options,
      "q:amp");
}

cplx AmplitudeProgram::amplitude(std::span<const double> theta,
                                 std::span<const int> bits) const {
  QARCH_REQUIRE(bits.size() == num_qubits_,
                "bits size must equal the qubit count");
  cplx out;
  program_->run(theta, bits, std::span<cplx>(&out, 1));
  return out;
}

// -- BatchedAmplitudeProgram --------------------------------------------------

BatchedAmplitudeProgram::BatchedAmplitudeProgram(
    const circuit::Circuit& circuit, std::span<const std::size_t> open_qubits,
    const qtensor::ProgramOptions& options)
    : num_qubits_(circuit.num_qubits()),
      open_qubits_(open_qubits.begin(), open_qubits.end()) {
  QARCH_REQUIRE(!open_qubits_.empty(),
                "batched amplitudes need at least one open qubit "
                "(use AmplitudeProgram otherwise)");
  QueryNetwork network = qtensor::amplitude_query_network(
      circuit, std::vector<double>(circuit.num_params(), 0.0), open_qubits);
  // open_labels arrive ascending by qubit; reversing makes the HIGHEST open
  // qubit the outermost output axis, i.e. bit j of the result index is
  // open_qubits[j] (LSB-first, the statevector convention).
  std::vector<VarId> final_labels(network.open_labels.rbegin(),
                                  network.open_labels.rend());
  program_ = std::make_unique<ContractionProgram>(
      std::move(network), std::move(final_labels), circuit.num_params(),
      options, "q:amp" + std::to_string(open_qubits_.size()));
}

std::vector<cplx> BatchedAmplitudeProgram::amplitudes(
    std::span<const double> theta, std::span<const int> fixed_bits) const {
  QARCH_REQUIRE(fixed_bits.size() == num_qubits_ - open_qubits_.size(),
                "fixed_bits size must be num_qubits - open count");
  std::vector<cplx> out(program_->output_entries());
  program_->run(theta, fixed_bits, out);
  return out;
}

// -- MarginalProgram ----------------------------------------------------------

MarginalProgram::MarginalProgram(const circuit::Circuit& circuit,
                                 std::span<const std::size_t> targets,
                                 const qtensor::ProgramOptions& options)
    : num_qubits_(circuit.num_qubits()),
      targets_(targets.begin(), targets.end()) {
  QARCH_REQUIRE(!targets_.empty(), "marginal needs at least one target");
  std::vector<qtensor::WireRole> roles(num_qubits_,
                                       qtensor::WireRole::Trace);
  for (std::size_t j = 0; j < targets_.size(); ++j) {
    QARCH_REQUIRE(targets_[j] < num_qubits_, "marginal target out of range");
    // The output layout below assumes ascending targets (the builder emits
    // cut labels by ascending qubit).
    QARCH_REQUIRE(j == 0 || targets_[j - 1] < targets_[j],
                  "marginal targets must be sorted and unique");
    roles[targets_[j]] = qtensor::WireRole::Cut;
  }
  QueryNetwork network = qtensor::measure_query_network(
      circuit, std::vector<double>(circuit.num_params(), 0.0), roles);
  // open_labels arrive [rows ascending, cols ascending]; the output wants
  // rows outermost (row-major matrix) with bit j of each index being
  // targets[j], i.e. [row_{k-1}..row_0, col_{k-1}..col_0].
  const std::size_t k = targets_.size();
  QARCH_CHECK(network.open_labels.size() == 2 * k,
              "cut wires must contribute two labels each");
  std::vector<VarId> final_labels;
  final_labels.reserve(2 * k);
  for (std::size_t j = 0; j < k; ++j)
    final_labels.push_back(network.open_labels[k - 1 - j]);
  for (std::size_t j = 0; j < k; ++j)
    final_labels.push_back(network.open_labels[2 * k - 1 - j]);
  program_ = std::make_unique<ContractionProgram>(
      std::move(network), std::move(final_labels), circuit.num_params(),
      options, "q:rdm" + std::to_string(k));
}

std::vector<cplx> MarginalProgram::rdm(std::span<const double> theta) const {
  std::vector<cplx> out(program_->output_entries());
  program_->run(theta, {}, out);
  return out;
}

std::vector<double> MarginalProgram::probabilities(
    std::span<const double> theta) const {
  const std::vector<cplx> rho = rdm(theta);
  const std::size_t dim = std::size_t{1} << targets_.size();
  std::vector<double> probs(dim);
  for (std::size_t i = 0; i < dim; ++i)
    probs[i] = std::max(0.0, rho[i * dim + i].real());
  return probs;
}

}  // namespace qarch::query

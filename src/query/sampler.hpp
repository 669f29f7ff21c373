// Direct sampling from a parameterized circuit on either engine.
//
// Statevector sampling materializes |psi> once per sample() call and maps
// all of that call's uniforms through sim::sample_basis_states, which
// defines a statevector draw. Tensor-network sampling never materializes
// the state: qubits are drawn one at a time, MSB (qubit n-1) first, each
// from the JOINT marginal p(prefix, bit) contracted directly from the
// network with the already-drawn prefix fixed by rebindable projector caps
// (qtensor::measure_query_network, WireRole::Fix + Diagonal). All n
// per-qubit marginal programs are compiled once per Sampler through the
// shared planner / plan cache and replayed per shot.
//
// Both engines consume exactly ONE rng.uniform() per shot and map it
// through the ascending-index inverse CDF: the statevector engine by its
// running sum, the tensor-network walk by a per-qubit subtractive residue
// (see sample()). So:
//
//   * a given (engine, seed) stream is bit-for-bit deterministic, at every
//     worker count — the contraction kernels compute each output entry on
//     one thread in a fixed order;
//   * on the statevector engine, the same state and the same rng give the
//     same draws as qaoa::expected_best_cut's state overload;
//   * the two engines agree in distribution, and can differ on a draw only
//     when r lands within rounding of a CDF boundary.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "query/program.hpp"
#include "sim/sim_program.hpp"

namespace qarch::query {

/// Which engine draws the samples.
enum class SamplerEngine {
  Statevector,    ///< materialize |psi>, sample the probability vector
  TensorNetwork,  ///< qubit-by-qubit marginal contraction, no statevector
};

/// Compile-time configuration of a Sampler.
struct SamplerOptions {
  SamplerEngine engine = SamplerEngine::Statevector;
  /// Tensor-network engine: compile config for the per-qubit marginal
  /// programs (planner, plan cache, slicing).
  qtensor::ProgramOptions query;
  /// Tensor-network engine: bucket-product kernel spec, checked by
  /// qtensor::check_backend_spec ("serial" is the only valid value); the
  /// twin of qtensor::QTensorOptions::backend.
  std::string tn_backend = "serial";
  /// Statevector engine: compile config and replay workers.
  sim::PlanOptions sv_plan;
  std::size_t sv_workers = 1;
};

/// Compiled basis-state sampler for one ansatz. Thread-safe replays;
/// bit q of a returned sample is the measured value of qubit q.
class Sampler {
 public:
  /// Compiles `ansatz`. On the statevector engine a `tables` cache supplies
  /// the program's phase tables, as in sim::SimProgram: equal runs share
  /// one bit-identical table, so the draws do not depend on it.
  explicit Sampler(const circuit::Circuit& ansatz,
                   const SamplerOptions& options = {},
                   sim::PhaseTableCache* tables = nullptr);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Draws `shots` basis states, one rng.uniform() each.
  [[nodiscard]] std::vector<std::size_t> sample(std::span<const double> theta,
                                                std::size_t shots,
                                                Rng& rng) const;

  /// Exact probability of one basis state: |<basis|psi>|^2 on the
  /// statevector engine, the fully-fixed marginal on the tensor-network
  /// engine.
  [[nodiscard]] double probability(std::span<const double> theta,
                                   std::size_t basis) const;

  [[nodiscard]] std::size_t num_qubits() const;
  [[nodiscard]] SamplerEngine engine() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qarch::query

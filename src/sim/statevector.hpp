// Reference full-statevector simulator.
//
// The QTensor tensor-network backend is the paper's simulator; this
// statevector engine is the ground-truth oracle we verify it against, and is
// also the faster path for the paper's 10-qubit workloads. The per-gate
// StatevectorSimulator is the serial oracle; the compiled sim::SimProgram
// runs the same sim::simd passes, multithreaded (the "inner" level of the
// two-level parallelization scheme).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/matrix.hpp"

namespace qarch::sim {

using linalg::cplx;

/// A normalized pure state on n qubits, little-endian (bit q of the
/// amplitude index is qubit q).
using State = std::vector<cplx>;

/// |0...0> on n qubits.
State zero_state(std::size_t num_qubits);

/// |+>^{⊗n} — the QAOA initial state |s>.
State plus_state(std::size_t num_qubits);

/// Per-gate full-state simulator: the serial reference oracle. Each gate
/// is one sim::simd pass over the whole state on 1 worker: the Single pass
/// (simd::single_pair_range) for a one-qubit gate, the dense 4x4 pass
/// (simd::two_quad_range) for a two-qubit one.
class StatevectorSimulator {
 public:
  /// Applies one gate in place. theta resolves symbolic gate parameters.
  void apply(State& state, const circuit::Gate& gate,
             std::span<const double> theta) const;

  /// Runs the whole circuit on `initial` and returns the final state.
  [[nodiscard]] State run(const circuit::Circuit& circuit,
                          std::span<const double> theta,
                          State initial) const;

  /// Runs the circuit on |+>^n (the QAOA convention).
  [[nodiscard]] State run_from_plus(const circuit::Circuit& circuit,
                                    std::span<const double> theta) const;
};

// -- expectation values ------------------------------------------------------

/// <state| Z_u Z_v |state>.
double expectation_zz(const State& state, std::size_t u, std::size_t v);

/// <state| Z_q |state>.
double expectation_z(const State& state, std::size_t q);

/// Probability of measuring basis state `basis_index`.
double probability(const State& state, std::size_t basis_index);

/// Number of qubits of a state (log2 of its size); validates power of two.
std::size_t state_qubits(const State& state);

// -- instrumentation ---------------------------------------------------------

/// Number of full-state sweeps the expectation kernels have performed since
/// the last reset (one per expectation_zz / expectation_z call, one per
/// batched_expectation_zz call). Thread-safe; used by the bench harnesses to
/// verify the one-pass-total claim of the batched sweep.
std::uint64_t expectation_sweep_count();
void reset_expectation_sweep_count();

namespace detail {
/// Records one full-state expectation sweep (internal instrumentation hook).
void note_expectation_sweep();
}  // namespace detail

}  // namespace qarch::sim

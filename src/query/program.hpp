// Compiled query programs — amplitudes, batched amplitudes and reduced
// density matrices over the one compiled contraction core.
//
// Each wrapper below builds its open-index network once
// (qtensor::amplitude_query_network / measure_query_network, with theta
// rebind points (GateBinding) and basis rebind points (CapBinding)
// recorded), fixes the output layout, and holds a qtensor::ContractionProgram
// compiled from it: the same planner, the same persistent plan cache
// ("q:"-prefixed keys, so the key spaces never collide), the same slicing
// decision, and the same flattened schedule of fused product+sum steps as
// the closed <ZZ> programs. A warm process compiles queries with zero planner
// invocations; a replay costs a per-symbol-gate rebind, a per-cap 2-entry
// rewrite, and the schedule — no network rebuild, no ordering, no
// allocation. Replays are const and thread-safe.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/program.hpp"

namespace qarch::query {

using qtensor::cplx;

/// The ProgramOptions a query derives from the facade / energy-engine
/// option block (forwards to QTensorOptions::program_options()).
[[nodiscard]] inline qtensor::ProgramOptions query_options(
    const qtensor::QTensorOptions& options) {
  return options.program_options();
}

/// A single amplitude <bits|U|+>^n, compiled once and replayable for any
/// (theta, bits).
class AmplitudeProgram {
 public:
  explicit AmplitudeProgram(const circuit::Circuit& circuit,
                            const qtensor::ProgramOptions& options = {});

  /// bits[q] in {0,1}, bits.size() == num_qubits.
  [[nodiscard]] cplx amplitude(std::span<const double> theta,
                               std::span<const int> bits) const;

  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
  [[nodiscard]] const qtensor::ProgramStats& stats() const {
    return program_->stats();
  }

 private:
  std::size_t num_qubits_ = 0;
  std::unique_ptr<qtensor::ContractionProgram> program_;
};

/// A batch of 2^k amplitudes with the qubits in `open_qubits` left free:
/// one replay yields <fixed_bits, *|U|+>^n for every assignment of the open
/// qubits. Output indexing is LSB-first over open_qubits: bit j of the
/// result index is the value of open_qubits[j].
class BatchedAmplitudeProgram {
 public:
  /// `open_qubits` must be sorted, unique, and non-empty.
  BatchedAmplitudeProgram(const circuit::Circuit& circuit,
                          std::span<const std::size_t> open_qubits,
                          const qtensor::ProgramOptions& options = {});

  /// `fixed_bits` has one 0/1 per NON-open qubit, ascending by qubit.
  /// Returns 2^k amplitudes indexed as documented above.
  [[nodiscard]] std::vector<cplx> amplitudes(
      std::span<const double> theta, std::span<const int> fixed_bits) const;

  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
  [[nodiscard]] const std::vector<std::size_t>& open_qubits() const {
    return open_qubits_;
  }
  [[nodiscard]] const qtensor::ProgramStats& stats() const {
    return program_->stats();
  }

 private:
  std::size_t num_qubits_ = 0;
  std::vector<std::size_t> open_qubits_;
  std::unique_ptr<qtensor::ContractionProgram> program_;
};

/// The reduced density matrix of `targets` (sorted, unique, non-empty):
/// rho = Tr_rest |psi><psi| as a row-major 2^k x 2^k matrix,
/// rdm[r * 2^k + c] with bit j of r and c being the value of targets[j].
/// Everything outside the targets' lightcone cancels, so small marginals of
/// shallow circuits stay cheap at any qubit count.
class MarginalProgram {
 public:
  MarginalProgram(const circuit::Circuit& circuit,
                  std::span<const std::size_t> targets,
                  const qtensor::ProgramOptions& options = {});

  [[nodiscard]] std::vector<cplx> rdm(std::span<const double> theta) const;

  /// Diagonal of the RDM as real probabilities (clamped at 0): the marginal
  /// distribution of the targets, indexed LSB-first over `targets`.
  [[nodiscard]] std::vector<double> probabilities(
      std::span<const double> theta) const;

  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
  [[nodiscard]] const std::vector<std::size_t>& targets() const {
    return targets_;
  }
  [[nodiscard]] const qtensor::ProgramStats& stats() const {
    return program_->stats();
  }

 private:
  std::size_t num_qubits_ = 0;
  std::vector<std::size_t> targets_;
  std::unique_ptr<qtensor::ContractionProgram> program_;
};

}  // namespace qarch::query

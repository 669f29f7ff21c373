// Statevector utilities: batched expectation sweeps and batched basis-state
// draws.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/statevector.hpp"

namespace qarch::sim {

/// One Z_u Z_v observable for the batched expectation sweep.
struct ZZPair {
  std::size_t u = 0;
  std::size_t v = 0;
};

/// All <Z_u Z_v> values in ONE pass over the state (vs one full-state pass
/// per pair with expectation_zz). Each amplitude's probability is computed
/// once and scattered into every term with a popcount-parity sign; with
/// `workers` > 1 the state is split into contiguous blocks whose per-thread
/// partial sums are combined in index order (deterministic). Returns values
/// aligned with `pairs`.
std::vector<double> batched_expectation_zz(
    const State& state, std::span<const ZZPair> pairs, std::size_t workers = 1,
    std::size_t parallel_threshold_qubits = 14);

/// Inverse-CDF basis-state draws, one per uniform (result k belongs to
/// uniforms[k]; bit q of an index is qubit q). This is the definition of a
/// statevector draw: uniform r takes the first index whose ascending
/// running sum of |state[i]|^2 exceeds r, and the last index when r is at
/// or past the total mass (float drift):
///
///   s = 0; for i in 0..dim-1: { s += |state[i]|^2; if (r < s) return i; }
///   return dim - 1;
///
/// Cost O(dim + m log m) for m uniforms instead of O(m * dim): the uniforms
/// are sorted and matched against ONE sweep of that running sum. Uniforms
/// must not be NaN.
std::vector<std::size_t> sample_basis_states(const State& state,
                                             std::span<const double> uniforms);

}  // namespace qarch::sim

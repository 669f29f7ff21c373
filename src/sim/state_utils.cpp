#include "sim/state_utils.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/simd.hpp"

namespace qarch::sim {

std::vector<double> batched_expectation_zz(
    const State& state, std::span<const ZZPair> pairs, std::size_t workers,
    std::size_t parallel_threshold_qubits) {
  const std::size_t n = state_qubits(state);
  std::vector<std::size_t> masks(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [u, v] = pairs[k];
    QARCH_REQUIRE(u < n && v < n && u != v, "bad ZZ qubit pair");
    masks[k] = (std::size_t{1} << u) | (std::size_t{1} << v);
  }
  if (pairs.empty()) return {};
  detail::note_expectation_sweep();

  // <Z_u Z_v> = sum_i sign(i) |a_i|^2 with sign +1 when bits u and v agree,
  // i.e. when popcount(i & (mu|mv)) is even. The per-block accumulation is
  // one SIMD pass scattering every amplitude's probability into all terms.
  const auto block = [&](std::size_t lo, std::size_t hi) {
    std::vector<double> partial(masks.size(), 0.0);
    simd::zz_accumulate(state.data(), lo, hi, masks.data(), masks.size(),
                        partial.data());
    return partial;
  };
  const auto combine = [](std::vector<double> acc, std::vector<double> part) {
    for (std::size_t k = 0; k < part.size(); ++k) acc[k] += part[k];
    return acc;
  };

  if (workers <= 1 || n < parallel_threshold_qubits)
    return block(0, state.size());
  return parallel::parallel_reduce(0, state.size(),
                                   std::vector<double>(masks.size(), 0.0),
                                   block, combine, workers);
}

std::vector<std::size_t> sample_basis_states(const State& state,
                                             std::span<const double> uniforms) {
  QARCH_REQUIRE(!state.empty(), "cannot sample an empty state");
  for (const double r : uniforms)
    QARCH_REQUIRE(!std::isnan(r), "NaN uniform");
  std::vector<std::size_t> order(uniforms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return uniforms[a] < uniforms[b];
  });

  // Each sorted uniform takes the first index whose running sum exceeds it.
  std::vector<std::size_t> out(uniforms.size());
  std::size_t k = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < state.size() && k < order.size(); ++i) {
    sum += std::norm(state[i]);
    for (; k < order.size() && uniforms[order[k]] < sum; ++k) out[order[k]] = i;
  }
  // At or past the total mass: the last index.
  for (; k < order.size(); ++k) out[order[k]] = state.size() - 1;
  return out;
}

}  // namespace qarch::sim

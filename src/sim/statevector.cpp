#include "sim/statevector.hpp"

#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/simd.hpp"

namespace qarch::sim {

using linalg::Matrix;

State zero_state(std::size_t num_qubits) {
  QARCH_REQUIRE(num_qubits <= 30, "statevector limited to 30 qubits");
  State s(std::size_t{1} << num_qubits, cplx{0.0, 0.0});
  s[0] = 1.0;
  return s;
}

State plus_state(std::size_t num_qubits) {
  QARCH_REQUIRE(num_qubits <= 30, "statevector limited to 30 qubits");
  const std::size_t dim = std::size_t{1} << num_qubits;
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim));
  return State(dim, cplx{amp, 0.0});
}

std::size_t state_qubits(const State& state) {
  QARCH_REQUIRE(!state.empty() && (state.size() & (state.size() - 1)) == 0,
                "state size must be a power of two");
  std::size_t n = 0;
  while ((std::size_t{1} << n) < state.size()) ++n;
  return n;
}

namespace {

std::atomic<std::uint64_t> g_expectation_sweeps{0};

}  // namespace

std::uint64_t expectation_sweep_count() {
  return g_expectation_sweeps.load(std::memory_order_relaxed);
}

void reset_expectation_sweep_count() {
  g_expectation_sweeps.store(0, std::memory_order_relaxed);
}

namespace detail {
void note_expectation_sweep() {
  g_expectation_sweeps.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

void kernel_single(State& state, std::size_t q, const cplx* m,
                   std::size_t workers, std::size_t parallel_threshold_qubits,
                   bool use_simd) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(q < n, "qubit out of range");
  const std::size_t pairs = state.size() / 2;
  cplx* z = state.data();

  if (workers > 1 && n >= parallel_threshold_qubits) {
    // Pair-index blocks; single_pair_range handles unaligned splits.
    parallel::parallel_for_blocks(
        0, pairs,
        [&](std::size_t klo, std::size_t khi) {
          simd::single_pair_range(z, q, m, klo, khi, use_simd);
        },
        workers, 2048);
  } else {
    simd::single_pair_range(z, q, m, 0, pairs, use_simd);
  }
}

void kernel_two(State& state, std::size_t q0, std::size_t q1, const cplx* m,
                std::size_t workers, std::size_t parallel_threshold_qubits) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(q0 < n && q1 < n && q0 != q1, "bad two-qubit target");
  const std::size_t quads = state.size() / 4;
  cplx* z = state.data();

  if (workers > 1 && n >= parallel_threshold_qubits) {
    parallel::parallel_for_blocks(
        0, quads,
        [&](std::size_t klo, std::size_t khi) {
          simd::two_quad_range(z, q0, q1, m, klo, khi);
        },
        workers, 1024);
  } else {
    simd::two_quad_range(z, q0, q1, m, 0, quads);
  }
}

void kernel_diag1(State& state, std::size_t q, cplx d0, cplx d1,
                  std::size_t workers, std::size_t parallel_threshold_qubits,
                  bool use_simd) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(q < n, "qubit out of range");
  cplx* z = state.data();

  if (workers > 1 && n >= parallel_threshold_qubits) {
    parallel::parallel_for_blocks(
        0, state.size(),
        [&](std::size_t lo, std::size_t hi) {
          simd::diag1_slice(z + lo, hi - lo, lo, q, d0, d1, use_simd);
        },
        workers, 4096);
  } else {
    simd::diag1_slice(z, state.size(), 0, q, d0, d1, use_simd);
  }
}

void kernel_diag2(State& state, std::size_t q0, std::size_t q1, const cplx* d,
                  std::size_t workers, std::size_t parallel_threshold_qubits,
                  bool use_simd) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(q0 < n && q1 < n && q0 != q1, "bad two-qubit target");
  cplx* z = state.data();

  if (workers > 1 && n >= parallel_threshold_qubits) {
    parallel::parallel_for_blocks(
        0, state.size(),
        [&](std::size_t lo, std::size_t hi) {
          simd::diag2_slice(z + lo, hi - lo, lo, q0, q1, d, use_simd);
        },
        workers, 4096);
  } else {
    simd::diag2_slice(z, state.size(), 0, q0, q1, d, use_simd);
  }
}

void StatevectorSimulator::apply(State& state, const circuit::Gate& gate,
                                 std::span<const double> theta) const {
  // One worker never forks, so the threshold argument is inert.
  const Matrix m = gate.matrix(theta);
  if (gate.arity() == 1)
    kernel_single(state, gate.q0, m.data().data(), 1, 0);
  else
    kernel_two(state, gate.q0, gate.q1, m.data().data(), 1, 0);
}

State StatevectorSimulator::run(const circuit::Circuit& circuit,
                                std::span<const double> theta,
                                State initial) const {
  QARCH_REQUIRE(state_qubits(initial) == circuit.num_qubits(),
                "initial state qubit count mismatch");
  QARCH_REQUIRE(theta.size() >= circuit.num_params(),
                "parameter vector too short for circuit");
  for (const auto& g : circuit.gates()) apply(initial, g, theta);
  return initial;
}

State StatevectorSimulator::run_from_plus(const circuit::Circuit& circuit,
                                          std::span<const double> theta) const {
  return run(circuit, theta, plus_state(circuit.num_qubits()));
}

double expectation_zz(const State& state, std::size_t u, std::size_t v) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(u < n && v < n && u != v, "bad ZZ qubit pair");
  detail::note_expectation_sweep();
  const std::size_t mu = std::size_t{1} << u, mv = std::size_t{1} << v;
  double e = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i) {
    const bool bu = (i & mu) != 0, bv = (i & mv) != 0;
    const double sign = (bu == bv) ? 1.0 : -1.0;
    e += sign * std::norm(state[i]);
  }
  return e;
}

double expectation_z(const State& state, std::size_t q) {
  const std::size_t n = state_qubits(state);
  QARCH_REQUIRE(q < n, "qubit out of range");
  detail::note_expectation_sweep();
  const std::size_t mq = std::size_t{1} << q;
  double e = 0.0;
  for (std::size_t i = 0; i < state.size(); ++i)
    e += ((i & mq) ? -1.0 : 1.0) * std::norm(state[i]);
  return e;
}

double probability(const State& state, std::size_t basis_index) {
  QARCH_REQUIRE(basis_index < state.size(), "basis index out of range");
  return std::norm(state[basis_index]);
}

}  // namespace qarch::sim

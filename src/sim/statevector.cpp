#include "sim/statevector.hpp"

#include <atomic>
#include <cmath>

#include "common/error.hpp"
#include "sim/simd.hpp"

namespace qarch::sim {

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

void StatevectorSimulator::apply(State& state, const circuit::Gate& gate,
                                 std::span<const double> theta) const {
  const std::size_t n = state_qubits(state);
  const auto m = circuit::gate_entries(gate.kind, gate.angle(theta));
  if (gate.arity() == 1) {
    QARCH_REQUIRE(gate.q0 < n, "qubit out of range");
    simd::single_pair_range(state.data(), gate.q0, m.data(), 0,
                            state.size() / 2);
  } else {
    QARCH_REQUIRE(gate.q0 < n && gate.q1 < n && gate.q0 != gate.q1,
                  "bad two-qubit target");
    simd::two_quad_range(state.data(), gate.q0, gate.q1, m.data(), 0,
                         state.size() / 4);
  }
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

// Gate library: kinds, parameter expressions, and unitary matrices.
//
// Parameterized gates reference a shared symbolic parameter vector rather
// than storing angles inline — the searched mixer layers apply e.g. RX(2β)
// to every qubit with ONE shared β (Fig. 6/7 of the paper), and the QAOA
// ansatz shares γ_l / β_l across a whole layer.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "linalg/matrix.hpp"

namespace qarch::circuit {

/// Supported gate kinds. One- and two-qubit gates only (QAOA needs no more).
enum class GateKind {
  I,     ///< identity (useful as a search-alphabet no-op)
  X, Y, Z,
  H,
  S, Sdg,
  T, Tdg,
  RX, RY, RZ,   ///< rotation gates exp(-i θ P / 2)
  P,            ///< phase gate diag(1, e^{iθ})
  CX, CZ, SWAP,
  RZZ,          ///< exp(-i θ Z⊗Z / 2) — the QAOA cost-layer gate
};

/// True for gates that take an angle parameter.
bool is_parameterized(GateKind kind);

/// True for two-qubit gates.
bool is_two_qubit(GateKind kind);

/// True for gates whose matrix is diagonal in the computational basis.
/// These get rank-reduced tensors in the QTensor backend
/// (Lykov & Alexeev 2021, "Importance of Diagonal Gates").
bool is_diagonal(GateKind kind);

/// Lower-case mnemonic ("rx", "cz", ...). Matches the paper's alphabet names.
std::string gate_name(GateKind kind);

/// Parses a mnemonic; throws InvalidArgument for unknown names.
GateKind gate_from_name(const std::string& name);

/// An angle expression: either a constant or scale * theta[index] where
/// theta is the circuit's bound parameter vector.
struct ParamExpr {
  enum class Kind { None, Constant, Symbol };

  Kind kind = Kind::None;
  double constant = 0.0;    ///< used when kind == Constant
  std::size_t index = 0;    ///< used when kind == Symbol
  double scale = 1.0;       ///< used when kind == Symbol

  /// No parameter (non-parameterized gates).
  static ParamExpr none() { return {}; }

  /// Fixed numeric angle.
  static ParamExpr constant_angle(double value) {
    return ParamExpr{Kind::Constant, value, 0, 1.0};
  }

  /// scale * theta[index].
  static ParamExpr symbol(std::size_t index, double scale = 1.0) {
    return ParamExpr{Kind::Symbol, 0.0, index, scale};
  }

  /// Evaluates the angle against a bound parameter vector.
  [[nodiscard]] double value(std::span<const double> theta) const;

  friend bool operator==(const ParamExpr&, const ParamExpr&) = default;
};

/// One gate instance inside a circuit.
struct Gate {
  GateKind kind = GateKind::I;
  std::size_t q0 = 0;          ///< target (single) or first qubit
  std::size_t q1 = 0;          ///< second qubit for two-qubit gates
  ParamExpr param;

  /// Number of qubits this gate touches (1 or 2).
  [[nodiscard]] std::size_t arity() const { return is_two_qubit(kind) ? 2 : 1; }

  /// The angle resolved from theta; 0 for a non-parameterized kind.
  [[nodiscard]] double angle(std::span<const double> theta) const;

  /// Unitary matrix (2x2 or 4x4) for the angle resolved from theta.
  [[nodiscard]] linalg::Matrix matrix(std::span<const double> theta) const;

  /// The adjoint gate (same qubits, inverted angle / dual kind).
  [[nodiscard]] Gate inverse() const;

  /// Short rendering, e.g. "rx(2.00*t0) q3" or "cx q0,q1".
  [[nodiscard]] std::string to_string() const;
};

/// The row-major entries of `kind`'s unitary at angle `theta` (ignored for
/// fixed gates): 4 for a one-qubit kind, 16 for a two-qubit one, the rest
/// zero. Allocates nothing, so per-theta rebind paths (compiled statevector
/// ops, tensor-network gate tensors) call it directly; it is inline so that
/// those loops bind a gate at the cost of its formula, not of a call.
inline std::array<linalg::cplx, 16> gate_entries(GateKind kind,
                                                 double theta = 0.0) {
  const linalg::cplx i{0.0, 1.0};
  switch (kind) {
    case GateKind::I:
      return {1, 0, 0, 1};
    case GateKind::X:
      return {0, 1, 1, 0};
    case GateKind::Y:
      return {0, -i, i, 0};
    case GateKind::Z:
      return {1, 0, 0, -1};
    case GateKind::H: {
      const double r = 1.0 / std::sqrt(2.0);
      return {r, r, r, -r};
    }
    case GateKind::S:
      return {1, 0, 0, i};
    case GateKind::Sdg:
      return {1, 0, 0, -i};
    case GateKind::T:
      return {1, 0, 0, std::exp(i * (3.14159265358979323846 / 4))};
    case GateKind::Tdg:
      return {1, 0, 0, std::exp(-i * (3.14159265358979323846 / 4))};
    case GateKind::RX: {
      const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
      return {c, -i * s, -i * s, c};
    }
    case GateKind::RY: {
      const double c = std::cos(theta / 2.0), s = std::sin(theta / 2.0);
      return {c, -s, s, c};
    }
    case GateKind::RZ:
      return {std::exp(-i * (theta / 2)), 0, 0, std::exp(i * (theta / 2))};
    case GateKind::P:
      return {1, 0, 0, std::exp(i * theta)};
    case GateKind::CX:
      return {1, 0, 0, 0,
              0, 1, 0, 0,
              0, 0, 0, 1,
              0, 0, 1, 0};
    case GateKind::CZ:
      return {1, 0, 0, 0,
              0, 1, 0, 0,
              0, 0, 1, 0,
              0, 0, 0, -1};
    case GateKind::SWAP:
      return {1, 0, 0, 0,
              0, 0, 1, 0,
              0, 1, 0, 0,
              0, 0, 0, 1};
    case GateKind::RZZ: {
      // exp(-i θ/2 Z⊗Z) = diag(e^{-iθ/2}, e^{iθ/2}, e^{iθ/2}, e^{-iθ/2})
      const linalg::cplx em = std::exp(-i * (theta / 2)),
                         ep = std::exp(i * (theta / 2));
      return {em, 0, 0, 0,
              0, ep, 0, 0,
              0, 0, ep, 0,
              0, 0, 0, em};
    }
  }
  throw InternalError("unhandled gate kind");
}

/// The unitary of `kind` at angle `theta` (ignored for fixed gates), as a
/// matrix of gate_entries.
linalg::Matrix gate_matrix(GateKind kind, double theta = 0.0);

}  // namespace qarch::circuit

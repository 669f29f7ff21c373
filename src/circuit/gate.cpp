#include "circuit/gate.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace qarch::circuit {

using linalg::cplx;
using linalg::Matrix;

bool is_parameterized(GateKind kind) {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

bool is_two_qubit(GateKind kind) {
  switch (kind) {
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::SWAP:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

bool is_diagonal(GateKind kind) {
  switch (kind) {
    case GateKind::I:
    case GateKind::Z:
    case GateKind::S:
    case GateKind::Sdg:
    case GateKind::T:
    case GateKind::Tdg:
    case GateKind::RZ:
    case GateKind::P:
    case GateKind::CZ:
    case GateKind::RZZ:
      return true;
    default:
      return false;
  }
}

std::string gate_name(GateKind kind) {
  switch (kind) {
    case GateKind::I: return "id";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::P: return "p";
    case GateKind::CX: return "cx";
    case GateKind::CZ: return "cz";
    case GateKind::SWAP: return "swap";
    case GateKind::RZZ: return "rzz";
  }
  return "?";
}

GateKind gate_from_name(const std::string& name) {
  static const std::pair<const char*, GateKind> table[] = {
      {"id", GateKind::I},   {"x", GateKind::X},     {"y", GateKind::Y},
      {"z", GateKind::Z},    {"h", GateKind::H},     {"s", GateKind::S},
      {"sdg", GateKind::Sdg},{"t", GateKind::T},     {"tdg", GateKind::Tdg},
      {"rx", GateKind::RX},  {"ry", GateKind::RY},   {"rz", GateKind::RZ},
      {"p", GateKind::P},    {"cx", GateKind::CX},   {"cz", GateKind::CZ},
      {"swap", GateKind::SWAP}, {"rzz", GateKind::RZZ},
  };
  for (const auto& [n, k] : table)
    if (name == n) return k;
  throw InvalidArgument("unknown gate name: " + name);
}

double ParamExpr::value(std::span<const double> theta) const {
  switch (kind) {
    case Kind::None:
      return 0.0;
    case Kind::Constant:
      return constant;
    case Kind::Symbol:
      QARCH_REQUIRE(index < theta.size(), "parameter index out of range");
      return scale * theta[index];
  }
  return 0.0;
}

Matrix gate_matrix(GateKind kind, double theta) {
  const std::size_t dim = is_two_qubit(kind) ? 4 : 2;
  const std::array<cplx, 16> e = gate_entries(kind, theta);
  return Matrix(dim, dim, std::vector<cplx>(e.begin(), e.begin() + dim * dim));
}

double Gate::angle(std::span<const double> theta) const {
  return is_parameterized(kind) ? param.value(theta) : 0.0;
}

Matrix Gate::matrix(std::span<const double> theta) const {
  return gate_matrix(kind, angle(theta));
}

Gate Gate::inverse() const {
  Gate g = *this;
  switch (kind) {
    case GateKind::S:   g.kind = GateKind::Sdg; return g;
    case GateKind::Sdg: g.kind = GateKind::S;   return g;
    case GateKind::T:   g.kind = GateKind::Tdg; return g;
    case GateKind::Tdg: g.kind = GateKind::T;   return g;
    default:
      break;
  }
  if (is_parameterized(kind)) {
    // Rotation adjoint = rotation by the negated angle.
    switch (g.param.kind) {
      case ParamExpr::Kind::None:
        break;
      case ParamExpr::Kind::Constant:
        g.param.constant = -g.param.constant;
        break;
      case ParamExpr::Kind::Symbol:
        g.param.scale = -g.param.scale;
        break;
    }
    return g;
  }
  // X, Y, Z, H, CX, CZ, SWAP, I are self-inverse.
  return g;
}

std::string Gate::to_string() const {
  std::ostringstream os;
  os << gate_name(kind);
  if (is_parameterized(kind)) {
    os << '(';
    switch (param.kind) {
      case ParamExpr::Kind::None:
        os << '0';
        break;
      case ParamExpr::Kind::Constant:
        os << param.constant;
        break;
      case ParamExpr::Kind::Symbol:
        os << param.scale << "*t" << param.index;
        break;
    }
    os << ')';
  }
  os << " q" << q0;
  if (arity() == 2) os << ",q" << q1;
  return os.str();
}

}  // namespace qarch::circuit

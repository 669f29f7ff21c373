// Diagonal cost Hamiltonians over ±1 spin variables:
//   C(z) = constant + sum_k J_k z_{u_k} z_{v_k} + sum_j h_j z_j
//
// The paper only optimizes MaxCut (Eq. 1):
//   C_MC(z) = 1/2 * sum_{(u,v) in E} w_uv (1 - z_u z_v)
// but the same ZZ+Z+constant form covers weighted MaxCut, maximum
// independent set (with a quadratic edge penalty), and transverse-field-free
// Ising objectives — every named constructor below reduces its combinatorial
// objective to this form via x_i = (1 - z_i) / 2 (so basis bit b=1 means
// z=-1, matching the simulators' bit q = qubit q convention). All objectives
// are MAXIMIZED.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace qarch::qaoa {

/// One Ising coupling term: coefficient * Z_u Z_v.
struct ZZTerm {
  std::size_t u = 0;
  std::size_t v = 0;
  double coefficient = 0.0;
};

/// One field term: coefficient * Z_q.
struct ZTerm {
  std::size_t q = 0;
  double coefficient = 0.0;
};

/// Which named construction produced a Hamiltonian (for cache keys and wire
/// round-trips; the term lists are authoritative for evaluation).
enum class HamiltonianKind { MaxCut, MIS, Ising };

/// Parses "maxcut", "mis", "ising".
HamiltonianKind hamiltonian_kind_from_name(const std::string& name);

/// Canonical name of a kind.
std::string hamiltonian_kind_name(HamiltonianKind kind);

/// A diagonal cost operator C = constant + Σ J_k Z_u Z_v + Σ h_j Z_j.
class Hamiltonian {
 public:
  Hamiltonian() = default;

  /// MaxCut of a graph (the historical constructor): constant = Σ w_e / 2,
  /// ZZ coefficients -w_e / 2, no fields. classical_value == cut weight.
  explicit Hamiltonian(const graph::Graph& g);

  /// Same as the graph constructor, spelled as a factory.
  static Hamiltonian maxcut(const graph::Graph& g);

  /// Maximum independent set with a quadratic penalty:
  ///   C(x) = Σ_i x_i - penalty * Σ_{(u,v) in E} w_uv x_u x_v
  /// with x_i = (1 - z_i)/2 (bit 1 = vertex in the set). With
  /// penalty > 1 every maximizer is an independent set and C equals its size.
  static Hamiltonian mis(const graph::Graph& g, double penalty = 2.0);

  /// Ising objective (maximized):
  ///   C(z) = -coupling * Σ_{(u,v) in E} w_uv z_u z_v - field * Σ_i z_i
  /// i.e. the negated classical Ising energy with uniform longitudinal field.
  static Hamiltonian ising(const graph::Graph& g, double coupling = 1.0,
                           double field = 0.0);

  [[nodiscard]] HamiltonianKind kind() const { return kind_; }

  /// Identity coefficient.
  [[nodiscard]] double constant() const { return constant_; }

  /// ZZ coupling terms.
  [[nodiscard]] const std::vector<ZZTerm>& terms() const { return terms_; }

  /// Single-qubit field terms (empty for MaxCut).
  [[nodiscard]] const std::vector<ZTerm>& z_terms() const { return z_terms_; }

  /// Number of qubits (graph vertices).
  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }

  /// <C> given per-term <Z_u Z_v> values (aligned with terms()) and,
  /// when z_terms() is non-empty, per-term <Z_j> values (aligned with
  /// z_terms()).
  [[nodiscard]] double energy(const std::vector<double>& zz_expectations,
                              const std::vector<double>& z_expectations =
                                  {}) const;

  /// Classical value C(z) for a ±1 assignment. For MaxCut this equals the
  /// cut weight.
  [[nodiscard]] double classical_value(const std::vector<int>& z) const;

  /// Classical value of a computational-basis state: bit q of `basis_index`
  /// is qubit q, with bit b mapping to z = 1 - 2b.
  [[nodiscard]] double classical_value_bits(std::size_t basis_index) const;

 private:
  HamiltonianKind kind_ = HamiltonianKind::MaxCut;
  std::size_t num_qubits_ = 0;
  double constant_ = 0.0;
  std::vector<ZZTerm> terms_;
  std::vector<ZTerm> z_terms_;
};

/// Historical name: the graph constructor builds exactly the MaxCut form.
using MaxCutHamiltonian = Hamiltonian;

/// Widest bucket classical_maximum eliminates: its message then holds
/// 2^25 doubles (256 MB). Every n <= 26 fits.
inline constexpr std::size_t kMaxBucketVars = 26;

/// Exact classical maximum of C over all 2^n assignments, by (max, +)
/// bucket elimination (Dechter 1999): one factor per ZZ and Z term,
/// eliminated in qtensor's greedy min-fill order, so the cost is
/// exponential in that order's width, not in n. The traced-back maximizer
/// z* is scored by classical_value(z*), the term-order sum that
/// classical_value_bits and the statevector cost diagonal compute too. So
/// the result is the enumeration's maximum bit for bit wherever the
/// maximizers' sums agree (unweighted MaxCut, whose sums are exact;
/// weighted MaxCut, whose maximizers are a cut and its flip); where several
/// maximizers tie in exact arithmetic but round differently (weighted MIS),
/// it is one of their sums. Throws InvalidArgument, before allocating any
/// message, when a bucket holds more than kMaxBucketVars variables. The
/// ratio denominator of search::Evaluator on both engines.
double classical_maximum(const Hamiltonian& ham);

/// Buildable description of a Hamiltonian — the SessionConfig / wire /
/// cache-key form. `build()` instantiates it for a concrete graph.
struct HamiltonianSpec {
  HamiltonianKind kind = HamiltonianKind::MaxCut;
  double penalty = 2.0;   ///< MIS edge penalty
  double coupling = 1.0;  ///< Ising ZZ coupling
  double field = 0.0;     ///< Ising longitudinal field

  [[nodiscard]] Hamiltonian build(const graph::Graph& g) const;

  /// True for the MaxCut default — the only spec whose cache keys stay
  /// byte-identical to the pre-objective cache format.
  [[nodiscard]] bool is_default() const { return kind == HamiltonianKind::MaxCut; }

  /// Stable cache-key / wire tag: "maxcut", "mis@<penalty>",
  /// "ising@<coupling>@<field>".
  [[nodiscard]] std::string tag() const;

  /// Parses a tag() string back into a spec.
  static HamiltonianSpec parse_tag(const std::string& tag);

  friend bool operator==(const HamiltonianSpec&, const HamiltonianSpec&) =
      default;
};

}  // namespace qarch::qaoa

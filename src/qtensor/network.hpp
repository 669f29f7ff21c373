// Tensor networks from quantum circuits.
//
// The network for <ψ|O|ψ> with |ψ> = U|+>^n is built directly from the gate
// list: state caps, U's gate tensors, the observable's diagonal tensors, and
// U†'s tensors, all closed (no open indices) so full contraction yields a
// scalar. Two QTensor-specific optimizations are reproduced, and every
// builder below always applies them:
//
//   * Diagonal-gate rank reduction (Lykov & Alexeev 2021): a diagonal gate
//     does not create new wire variables; its tensor is rank-1 (1-qubit) or
//     rank-2 (2-qubit) holding just the diagonal.
//   * Lightcone reduction: for O = Z_u Z_v only gates in the causal cone of
//     {u, v} survive U†·O·U; everything else cancels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "qtensor/tensor.hpp"

namespace qarch::qtensor {

/// Number of tensor networks built (calls to any network builder below)
/// since the last reset. Thread-safe. A compiled qtensor::ContractionProgram
/// builds its network once and rebinds tensors afterwards; benches and
/// tests use this probe to prove that training runs and multistart restarts
/// never rebuild — the qtensor analogue of sim::program_compile_count().
std::uint64_t network_build_count();
void reset_network_build_count();

/// A closed tensor network: contracting over every variable yields a scalar.
struct TensorNetwork {
  std::vector<Tensor> tensors;
  std::size_t num_vars = 0;

  /// All variables that occur in at least one tensor.
  [[nodiscard]] std::vector<VarId> variables() const;

  /// Total number of tensor entries (memory proxy).
  [[nodiscard]] std::size_t total_entries() const;
};

/// Restricts `circuit` to the causal cone of `targets`: scanning the gate
/// list backwards, a gate is kept iff it touches a currently active qubit,
/// and then activates all its qubits. Returns the kept gates in original
/// order; `active` receives the final active-qubit set.
circuit::Circuit lightcone_circuit(const circuit::Circuit& circuit,
                                   const std::vector<std::size_t>& targets,
                                   std::set<std::size_t>* active = nullptr);

/// Ties one network tensor to the SYMBOL-parameterized gate whose matrix
/// fills it. Caps, observables, and fixed/constant-angle gates evaluate to
/// the same data for every theta and are baked at build time; only the
/// tensors listed in a binding vector need their data recomputed when theta
/// changes. `gate` is the effective gate the builder placed (for the U†
/// half of an expectation network it is already the inverse gate), and
/// `diagonal` records whether the rank-reduced diagonal layout was used
/// (it is, for every diagonal gate).
struct GateBinding {
  std::size_t tensor_index = 0;  ///< index into TensorNetwork::tensors
  circuit::Gate gate;            ///< effective (possibly adjoint) gate
  bool diagonal = false;         ///< rank-reduced diagonal tensor layout
};

/// Fills `out` with the tensor data of gate `g` at `theta`, in the layout
/// the network builder uses: diagonal → the 2 (1q) or 4 (2q) diagonal
/// entries; dense → row-major 2x2 (labels [out, in]) or 4x4 (labels
/// [out0, out1, in0, in1]). Returns the number of entries written; `out`
/// must hold at least that many. This is the per-theta rebind kernel of the
/// compiled contraction plans.
std::size_t gate_tensor_data(const circuit::Gate& g,
                             std::span<const double> theta, bool diagonal,
                             std::span<cplx> out);

/// Network for <+|^n U† (Z_u Z_v) U |+>^n with parameters bound to theta.
/// When `bindings` is non-null it receives one GateBinding per
/// symbol-parameterized gate tensor, enabling per-theta rebinds.
TensorNetwork expectation_zz_network(const circuit::Circuit& circuit,
                                     std::span<const double> theta,
                                     std::size_t u, std::size_t v,
                                     std::vector<GateBinding>* bindings =
                                         nullptr);

/// Network for the amplitude <bits| U |+>^n (bits[q] in {0,1}).
TensorNetwork amplitude_network(const circuit::Circuit& circuit,
                                std::span<const double> theta,
                                std::span<const int> bits,
                                std::vector<GateBinding>* bindings = nullptr);

/// Network for <+|^n U† Z_q U |+>^n — the single-qubit analogue of
/// expectation_zz_network, used by Hamiltonians with Z field terms.
TensorNetwork expectation_z_network(const circuit::Circuit& circuit,
                                    std::span<const double> theta,
                                    std::size_t q,
                                    std::vector<GateBinding>* bindings =
                                        nullptr);

// -- open-index query networks ------------------------------------------------
//
// The query programs (src/query/) need networks where some output wires
// stay OPEN (batched amplitudes, marginals, per-qubit sampling steps) and
// where basis choices are RE-BINDABLE per replay the way gate parameters
// already are. Both builders below return the network together with its
// rebind points, as ContractionProgram's open-index form consumes it.

/// Ties one network tensor to a computational-basis choice on one qubit: a
/// rank-1 tensor whose data is [bit==0, bit==1] — a <bit| cap in an
/// amplitude network, a diagonal |bit><bit| projector at the observable
/// point of a measurement network (both have the same data layout, so one
/// rebind kernel serves both). Compiled programs rewrite these two entries
/// per replay instead of rebuilding the network.
struct CapBinding {
  std::size_t tensor_index = 0;  ///< index into TensorNetwork::tensors
  std::size_t qubit = 0;
};

/// Writes the cap/projector data for `bit` into out[0..1].
void cap_tensor_data(int bit, std::span<cplx> out);

/// A network with rebind points and open output variables, as
/// ContractionProgram's open-index form consumes it.
struct QueryNetwork {
  TensorNetwork net;
  std::vector<GateBinding> bindings;  ///< theta-rebindable gate tensors
  std::vector<CapBinding> caps;       ///< bit-rebindable caps / projectors
  /// Open output variables. Contracting every OTHER variable leaves a
  /// tensor over exactly these labels; their order is documented per
  /// builder below.
  std::vector<VarId> open_labels;
};

/// Network for batched amplitudes <bits, *| U |+>^n: every qubit NOT in
/// `open_qubits` ends in a rebindable basis cap (caps ordered by ascending
/// qubit, initially bit 0); each qubit IN `open_qubits` leaves its final
/// wire variable open (open_labels ordered by ascending qubit). Contracting
/// all closed variables yields the 2^k amplitude tensor over the open
/// wires. `open_qubits` must be sorted, unique, and may be empty (plain
/// amplitude).
QueryNetwork amplitude_query_network(const circuit::Circuit& circuit,
                                     std::span<const double> theta,
                                     std::span<const std::size_t> open_qubits);

/// Role of one qubit's output wire in a measurement-query network.
enum class WireRole {
  Trace,     ///< marginalized out (wire passes straight into U†)
  Fix,       ///< rebindable diagonal projector |b><b| (a CapBinding)
  Diagonal,  ///< open diagonal index: output entries are probabilities
  Cut        ///< wire cut open on both sides: a row AND a column RDM index
};

/// Network for <+|^n U† M U |+>^n with per-qubit output treatment `roles`
/// (size = num_qubits). Fix inserts a rebindable projector (caps ordered by
/// ascending qubit); Diagonal inserts a copy tensor with a fresh open index
/// o so the contracted tensor is the probability p(o | fixed bits); Cut
/// opens the ket- and bra-side wires separately, yielding reduced-density-
/// matrix indices. open_labels order: all Diagonal labels (ascending
/// qubit), then all Cut ROW labels (ascending qubit), then all Cut COLUMN
/// labels (ascending qubit). Lightcone reduction applies with targets =
/// every non-Trace qubit.
QueryNetwork measure_query_network(const circuit::Circuit& circuit,
                                   std::span<const double> theta,
                                   std::span<const WireRole> roles);

}  // namespace qarch::qtensor

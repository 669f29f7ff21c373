#include "qtensor/network.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace qarch::qtensor {

using circuit::Gate;
using circuit::GateKind;

namespace {
std::atomic<std::uint64_t> g_network_build_count{0};
}  // namespace

std::uint64_t network_build_count() {
  return g_network_build_count.load(std::memory_order_relaxed);
}

void reset_network_build_count() {
  g_network_build_count.store(0, std::memory_order_relaxed);
}

std::size_t gate_tensor_data(const Gate& g, std::span<const double> theta,
                             bool diagonal, std::span<cplx> out) {
  const std::array<cplx, 16> e = circuit::gate_entries(g.kind, g.angle(theta));
  const std::size_t dim = g.arity() == 1 ? 2 : 4;
  const std::size_t count = diagonal ? dim : dim * dim;
  QARCH_REQUIRE(out.size() >= count, "gate_tensor_data: buffer too small");
  for (std::size_t k = 0; k < count; ++k)
    out[k] = e[diagonal ? k * (dim + 1) : k];
  return count;
}

std::vector<VarId> TensorNetwork::variables() const {
  std::vector<VarId> vars;
  for (const Tensor& t : tensors)
    vars.insert(vars.end(), t.labels().begin(), t.labels().end());
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::size_t TensorNetwork::total_entries() const {
  std::size_t s = 0;
  for (const Tensor& t : tensors) s += t.size();
  return s;
}

circuit::Circuit lightcone_circuit(const circuit::Circuit& circuit,
                                   const std::vector<std::size_t>& targets,
                                   std::set<std::size_t>* active_out) {
  std::set<std::size_t> active(targets.begin(), targets.end());
  const auto& gates = circuit.gates();
  std::vector<bool> keep(gates.size(), false);
  for (std::size_t i = gates.size(); i-- > 0;) {
    const Gate& g = gates[i];
    const bool touches = active.count(g.q0) > 0 ||
                         (g.arity() == 2 && active.count(g.q1) > 0);
    if (touches) {
      keep[i] = true;
      active.insert(g.q0);
      if (g.arity() == 2) active.insert(g.q1);
    }
  }
  circuit::Circuit out(circuit.num_qubits(), circuit.num_params());
  for (std::size_t i = 0; i < gates.size(); ++i)
    if (keep[i]) out.append(gates[i]);
  if (active_out != nullptr) *active_out = std::move(active);
  return out;
}

namespace {

/// Incremental network builder tracking the current wire variable per qubit.
class NetworkBuilder {
 public:
  NetworkBuilder(const std::vector<std::size_t>& qubits,
                 std::vector<GateBinding>* bindings = nullptr)
      : bindings_(bindings) {
    for (std::size_t q : qubits) current_var_[q] = fresh();
  }

  /// Adds the state cap |+> (or <+|) on qubit q's current variable.
  void add_plus_cap(std::size_t q) {
    const double amp = 1.0 / std::sqrt(2.0);
    net_.tensors.emplace_back(std::vector<VarId>{var(q)},
                              std::vector<cplx>{amp, amp});
  }

  /// Adds the basis cap <bit| on qubit q's current variable.
  void add_basis_cap(std::size_t q, int bit) {
    std::vector<cplx> data = bit == 0 ? std::vector<cplx>{1.0, 0.0}
                                      : std::vector<cplx>{0.0, 1.0};
    net_.tensors.emplace_back(std::vector<VarId>{var(q)}, std::move(data));
  }

  /// Adds a rank-1 diagonal factor with arbitrary data on qubit q's current
  /// wire (observables, projectors; never creates variables).
  void add_diagonal(std::size_t q, std::vector<cplx> data) {
    net_.tensors.emplace_back(std::vector<VarId>{var(q)}, std::move(data));
  }

  /// Adds an open-index copy tensor δ(o, w) on qubit q's current wire w.
  /// The wire continues (the tensor is diagonal in w); the fresh index o
  /// stays open and indexes the diagonal of the reduced density matrix —
  /// i.e. the outcome probability p(o) once everything else contracts.
  VarId add_open_projector(std::size_t q) {
    const VarId open = fresh();
    net_.tensors.emplace_back(std::vector<VarId>{open, var(q)},
                              std::vector<cplx>{1.0, 0.0, 0.0, 1.0});
    return open;
  }

  /// Cuts qubit q's wire at the current point: the existing (ket-side)
  /// variable is left open and returned as `row`; a fresh variable becomes
  /// the qubit's current wire for the bra side and is returned as `col`.
  void cut_wire(std::size_t q, VarId* row, VarId* col) {
    *row = var(q);
    *col = fresh();
    current_var_[q] = *col;
  }

  /// Tensors appended so far — the index the NEXT add_* call will occupy
  /// (used to record CapBindings).
  [[nodiscard]] std::size_t tensor_count() const {
    return net_.tensors.size();
  }

  /// Adds a Pauli-Z observable factor (diagonal, never creates variables).
  void add_z_observable(std::size_t q) {
    net_.tensors.emplace_back(std::vector<VarId>{var(q)},
                              std::vector<cplx>{1.0, -1.0});
  }

  /// Appends one gate tensor, threading wire variables. Data layout is
  /// delegated to gate_tensor_data so the per-theta rebind path writes the
  /// exact same bytes the builder does.
  void add_gate(const Gate& g, std::span<const double> theta) {
    const bool diagonal = circuit::is_diagonal(g.kind);
    std::vector<VarId> labels;
    if (g.arity() == 1) {
      if (diagonal) {
        labels = {var(g.q0)};
      } else {
        const VarId in = var(g.q0), out = fresh();
        current_var_[g.q0] = out;
        labels = {out, in};  // data[o*2+i] = m(o, i)
      }
    } else if (diagonal) {
      // Rank-2 diagonal tensor over the two current wire variables.
      labels = {var(g.q0), var(g.q1)};
    } else {
      const VarId in0 = var(g.q0), in1 = var(g.q1);
      const VarId out0 = fresh(), out1 = fresh();
      current_var_[g.q0] = out0;
      current_var_[g.q1] = out1;
      // labels [out0, out1, in0, in1]; data[((o0*2+o1)*2+i0)*2+i1]
      labels = {out0, out1, in0, in1};
    }
    std::vector<cplx> data(std::size_t{1} << labels.size());
    gate_tensor_data(g, theta, diagonal, data);
    if (bindings_ != nullptr &&
        g.param.kind == circuit::ParamExpr::Kind::Symbol)
      bindings_->push_back({net_.tensors.size(), g, diagonal});
    net_.tensors.emplace_back(std::move(labels), std::move(data));
  }

  [[nodiscard]] VarId var(std::size_t q) const {
    const auto it = current_var_.find(q);
    QARCH_CHECK(it != current_var_.end(), "qubit has no wire variable");
    return it->second;
  }

  TensorNetwork take() {
    net_.num_vars = next_var_;
    return std::move(net_);
  }

 private:
  VarId fresh() { return next_var_++; }

  std::vector<GateBinding>* bindings_;
  std::map<std::size_t, VarId> current_var_;
  VarId next_var_ = 0;
  TensorNetwork net_;
};

}  // namespace

TensorNetwork expectation_zz_network(const circuit::Circuit& circuit,
                                     std::span<const double> theta,
                                     std::size_t u, std::size_t v,
                                     std::vector<GateBinding>* bindings) {
  QARCH_REQUIRE(u < circuit.num_qubits() && v < circuit.num_qubits() && u != v,
                "bad ZZ pair");
  g_network_build_count.fetch_add(1, std::memory_order_relaxed);
  std::set<std::size_t> active;
  const circuit::Circuit effective =
      lightcone_circuit(circuit, {u, v}, &active);
  // Qubits outside the lightcone contribute <+|+> = 1 and are dropped.
  active.insert(u);
  active.insert(v);
  std::vector<std::size_t> qubits(active.begin(), active.end());

  NetworkBuilder b(qubits, bindings);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  for (const Gate& g : effective.gates()) b.add_gate(g, theta);
  b.add_z_observable(u);
  b.add_z_observable(v);
  const circuit::Circuit adjoint = effective.inverse();
  for (const Gate& g : adjoint.gates()) b.add_gate(g, theta);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  return b.take();
}

TensorNetwork amplitude_network(const circuit::Circuit& circuit,
                                std::span<const double> theta,
                                std::span<const int> bits,
                                std::vector<GateBinding>* bindings) {
  QARCH_REQUIRE(bits.size() == circuit.num_qubits(),
                "amplitude: bit string length mismatch");
  for (int bit : bits)
    QARCH_REQUIRE(bit == 0 || bit == 1, "amplitude: bits must be 0 or 1");
  g_network_build_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t> qubits(circuit.num_qubits());
  for (std::size_t q = 0; q < qubits.size(); ++q) qubits[q] = q;

  NetworkBuilder b(qubits, bindings);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  for (const Gate& g : circuit.gates()) b.add_gate(g, theta);
  for (std::size_t q : qubits) b.add_basis_cap(q, bits[q]);
  return b.take();
}

TensorNetwork expectation_z_network(const circuit::Circuit& circuit,
                                    std::span<const double> theta,
                                    std::size_t q,
                                    std::vector<GateBinding>* bindings) {
  QARCH_REQUIRE(q < circuit.num_qubits(), "bad Z target");
  g_network_build_count.fetch_add(1, std::memory_order_relaxed);
  std::set<std::size_t> active;
  const circuit::Circuit effective = lightcone_circuit(circuit, {q}, &active);
  active.insert(q);
  std::vector<std::size_t> qubits(active.begin(), active.end());

  NetworkBuilder b(qubits, bindings);
  for (std::size_t i : qubits) b.add_plus_cap(i);
  for (const Gate& g : effective.gates()) b.add_gate(g, theta);
  b.add_z_observable(q);
  const circuit::Circuit adjoint = effective.inverse();
  for (const Gate& g : adjoint.gates()) b.add_gate(g, theta);
  for (std::size_t i : qubits) b.add_plus_cap(i);
  return b.take();
}

void cap_tensor_data(int bit, std::span<cplx> out) {
  QARCH_REQUIRE(out.size() >= 2, "cap_tensor_data: buffer too small");
  out[0] = bit == 0 ? 1.0 : 0.0;
  out[1] = bit == 0 ? 0.0 : 1.0;
}

QueryNetwork amplitude_query_network(const circuit::Circuit& circuit,
                                     std::span<const double> theta,
                                     std::span<const std::size_t> open_qubits) {
  for (std::size_t i = 0; i < open_qubits.size(); ++i) {
    QARCH_REQUIRE(open_qubits[i] < circuit.num_qubits(),
                  "open qubit out of range");
    QARCH_REQUIRE(i == 0 || open_qubits[i - 1] < open_qubits[i],
                  "open qubits must be sorted and unique");
  }
  g_network_build_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t> qubits(circuit.num_qubits());
  for (std::size_t q = 0; q < qubits.size(); ++q) qubits[q] = q;

  QueryNetwork out;
  NetworkBuilder b(qubits, &out.bindings);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  for (const Gate& g : circuit.gates()) b.add_gate(g, theta);
  std::size_t next_open = 0;
  for (std::size_t q : qubits) {
    if (next_open < open_qubits.size() && open_qubits[next_open] == q) {
      out.open_labels.push_back(b.var(q));
      ++next_open;
      continue;
    }
    out.caps.push_back({b.tensor_count(), q});
    b.add_basis_cap(q, 0);
  }
  out.net = b.take();
  return out;
}

QueryNetwork measure_query_network(const circuit::Circuit& circuit,
                                   std::span<const double> theta,
                                   std::span<const WireRole> roles) {
  QARCH_REQUIRE(roles.size() == circuit.num_qubits(),
                "measure_query_network: one role per qubit");
  g_network_build_count.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::size_t> targets;
  for (std::size_t q = 0; q < roles.size(); ++q)
    if (roles[q] != WireRole::Trace) targets.push_back(q);

  std::set<std::size_t> active;
  const circuit::Circuit effective =
      lightcone_circuit(circuit, targets, &active);
  active.insert(targets.begin(), targets.end());
  std::vector<std::size_t> qubits(active.begin(), active.end());

  QueryNetwork out;
  NetworkBuilder b(qubits, &out.bindings);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  for (const Gate& g : effective.gates()) b.add_gate(g, theta);
  // Observable point: per-qubit output treatment, recorded in the
  // documented open-label order (Diagonal, then Cut rows, then Cut cols).
  std::vector<VarId> rows, cols;
  for (std::size_t q : qubits) {
    switch (roles[q]) {
      case WireRole::Trace:
        break;
      case WireRole::Fix: {
        // A diagonal projector has the cap data layout on the live wire;
        // the wire continues into U† (diagonal ⇒ no fresh variable).
        out.caps.push_back({b.tensor_count(), q});
        std::vector<cplx> data(2);
        cap_tensor_data(0, data);
        b.add_diagonal(q, std::move(data));
        break;
      }
      case WireRole::Diagonal:
        out.open_labels.push_back(b.add_open_projector(q));
        break;
      case WireRole::Cut: {
        VarId row = 0, col = 0;
        b.cut_wire(q, &row, &col);
        rows.push_back(row);
        cols.push_back(col);
        break;
      }
    }
  }
  out.open_labels.insert(out.open_labels.end(), rows.begin(), rows.end());
  out.open_labels.insert(out.open_labels.end(), cols.begin(), cols.end());
  const circuit::Circuit adjoint = effective.inverse();
  for (const Gate& g : adjoint.gates()) b.add_gate(g, theta);
  for (std::size_t q : qubits) b.add_plus_cap(q);
  out.net = b.take();
  return out;
}

}  // namespace qarch::qtensor

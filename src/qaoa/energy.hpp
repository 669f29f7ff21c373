// QAOA energy evaluation (SIMULATE_QAOA of Algorithm 1).
//
// Two engines compute <γ,β| C |γ,β>, and BOTH compile once per ansatz
// structure and rebind per theta (see plan_for's contract below):
//   * Statevector — the ansatz is compiled ONCE into a sim::SimProgram
//     (diagonal-phase kernels, fused single-qubit runs, cached matrices);
//     each energy(theta) replays the program and reads <C> off the final
//     state as ONE dot product, constant + sum_x |a_x|^2 (C(x) - constant),
//     with the cost diagonal the evaluator builds once per graph
//     (cost_diagonal()). The replay kernels use `inner_workers` threads;
//     the dot product runs serially with a fixed lane order, so <C> is
//     bit-identical at every worker count and SIMD policy.
//     zz_expectations()/z_expectations() — and energy() above the table
//     guard — read every <Z_u Z_v> off one batched sweep instead.
//   * TensorNetwork — one lightcone network per edge, compiled ONCE into a
//     qtensor::ContractionProgram (network built once, contraction order
//     planned once, slicing decided once, fused product+fold schedule over
//     pooled scratch); each energy(theta) rebinds the parameterized gate
//     tensors and replays. Per-edge replays run in parallel across
//     `inner_workers` threads (the inner level of the two-level scheme).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "graph/graph.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qtensor/contraction.hpp"
#include "sim/sim_program.hpp"
#include "sim/statevector.hpp"

namespace qarch::qaoa {

/// Which simulator computes expectation values.
enum class EngineKind { Statevector, TensorNetwork };

/// Evaluation configuration — the full toggle surface of both engines.
/// `sv_*` fields affect EngineKind::Statevector only, `qtensor` affects
/// EngineKind::TensorNetwork only; everything else is engine-agnostic.
struct EnergyOptions {
  /// Which simulator computes <Z_u Z_v>. TensorNetwork (the paper's choice)
  /// scales with circuit structure (lightcone contraction width);
  /// Statevector scales with 2^n and wins at small n or large p.
  EngineKind engine = EngineKind::TensorNetwork;
  /// Threads INSIDE one energy(theta) call — statevector replay kernels and
  /// batched <Z_u Z_v> sweeps, or concurrent per-edge tensor contractions.
  /// This is the inner level of the paper's two-level scheme; the outer
  /// level (concurrent candidates) is search::EvalService's worker pool
  /// (SessionConfig::workers). The statevector <C> dot product over the
  /// cost diagonal stays serial, so statevector energies do not depend on
  /// this count (it is not part of any result-cache or checkpoint key).
  std::size_t inner_workers = 1;
  /// Statevector compiled-plan kernel toggles (diagonal kernels, fusion,
  /// phase tables, SIMD, cache blocking) — see sim::PlanOptions. Its
  /// phase_table_max_qubits also guards the evaluator's cost diagonal.
  sim::PlanOptions sv_plan;
  /// Tensor-network engine configuration: compiled contraction programs
  /// (planner, slicing, shape dedup, plan cache) and the bucket-product
  /// backend — see qtensor::QTensorOptions.
  qtensor::QTensorOptions qtensor;
  /// Capacity of the evaluator's ansatz→plan LRU cache used by plan_for()
  /// (0 disables caching: every plan_for call compiles fresh).
  std::size_t plan_cache_capacity = 16;
};

/// Compile-time facts about one plan (probed by tests and benches).
/// `compiled_programs`/`distinct_shapes` are tensor-network-plan notions;
/// both stay 0 for statevector plans.
struct EnergyPlanInfo {
  std::size_t terms = 0;              ///< Hamiltonian terms served
  std::size_t compiled_programs = 0;  ///< ContractionPrograms actually built
  std::size_t distinct_shapes = 0;    ///< distinct lightcone shape keys
};

/// A reusable evaluation plan bound to one ansatz STRUCTURE: repeated
/// energy(theta) calls share precomputed state. The tensor-network plan
/// holds one compiled qtensor::ContractionProgram per lightcone-shape
/// EQUIVALENCE CLASS of edges (network, contraction order, slicing, and
/// scratch layout all depend only on the network structure, not on
/// parameter values; symmetric edges have provably equal <Z_u Z_v>), so a
/// 200-step training run pays for building and ordering once per distinct
/// shape — the same contraction-tree reuse QTensor performs, plus buffer
/// reuse across steps and edges.
class EnergyPlan {
 public:
  virtual ~EnergyPlan() = default;

  /// <γ,β| C |γ,β> at the given parameters.
  [[nodiscard]] virtual double energy(std::span<const double> theta) const = 0;

  /// Per-term <Z_u Z_v>, aligned with the evaluator's hamiltonian().terms().
  [[nodiscard]] virtual std::vector<double> zz_expectations(
      std::span<const double> theta) const = 0;

  /// Per-term <Z_q>, aligned with hamiltonian().z_terms(). Empty when the
  /// Hamiltonian has no field terms (the MaxCut case), so the default suits
  /// plans over field-free Hamiltonians.
  [[nodiscard]] virtual std::vector<double> z_expectations(
      std::span<const double> theta) const {
    (void)theta;
    return {};
  }

  /// The final state |γ,β> at the given parameters, replayed by this
  /// plan's own compilation, or nullptr on engines that never materialize
  /// it (tensor network, the default). The state lives in this thread's
  /// replay scratch: it stays valid until the thread's next statevector
  /// replay.
  [[nodiscard]] virtual const sim::State* state(
      std::span<const double> theta) const {
    (void)theta;
    return nullptr;
  }

  /// Compile-time facts (shape dedup accounting); zeros by default.
  [[nodiscard]] virtual EnergyPlanInfo info() const { return {}; }
};

/// Evaluator of <C> over a fixed graph.
///
/// Plan-caching contract: plan_for() compiles at most once per distinct
/// ansatz STRUCTURE (gate kinds, qubits, parameter wiring — a bit-exact
/// fingerprint) and hands back a shared plan; new thetas rebind scalars at
/// energy() time, never recompile. Cached plans are owned by the evaluator's
/// LRU cache (plus whoever holds the returned shared_ptr) and reference this
/// evaluator's Hamiltonian and cost diagonal, so they must not outlive it.
/// Rebinding invalidates nothing; only destroying the evaluator (or evicting
/// under plan_cache_capacity pressure once every external reference drops)
/// ends a plan's life. Thread-safe: the cache lock is taken once per plan_for()
/// call — per-candidate, never per theta — and plans themselves are
/// const/shareable with per-thread scratch statevectors.
class EnergyEvaluator {
 public:
  explicit EnergyEvaluator(const graph::Graph& g, EnergyOptions options = {});

  /// Generalized form: evaluate <C> for any diagonal ZZ+Z+constant
  /// Hamiltonian (MIS, Ising, weighted variants). The graph constructor is
  /// this with Hamiltonian(g).
  explicit EnergyEvaluator(Hamiltonian ham, EnergyOptions options = {});
  ~EnergyEvaluator();

  /// Builds an UNCACHED plan the caller exclusively owns. Prefer plan_for()
  /// — this exists for benches that measure compilation itself.
  [[nodiscard]] std::unique_ptr<EnergyPlan> make_plan(
      const circuit::Circuit& ansatz) const;

  /// The cached plan for this ansatz structure: compiles on first sight,
  /// returns the shared plan on every later call (training loops, multistart
  /// restarts, landscape scans all hit the same compilation).
  [[nodiscard]] std::shared_ptr<const EnergyPlan> plan_for(
      const circuit::Circuit& ansatz) const;

  /// One-shot convenience: <γ,β| C |γ,β> through the plan cache.
  [[nodiscard]] double energy(const circuit::Circuit& ansatz,
                              std::span<const double> theta) const;

  /// One-shot per-term <Z_u Z_v> values aligned with hamiltonian().terms().
  [[nodiscard]] std::vector<double> zz_expectations(
      const circuit::Circuit& ansatz, std::span<const double> theta) const;

  [[nodiscard]] const MaxCutHamiltonian& hamiltonian() const { return ham_; }
  [[nodiscard]] const EnergyOptions& options() const { return options_; }

  /// C(x) for every basis state x (bit q of x is qubit q), equal bit for bit
  /// to hamiltonian().classical_value_bits(x). Built once by the constructor
  /// on the statevector engine up to sv_plan.phase_table_max_qubits qubits
  /// (8·2^n bytes), and empty otherwise. Statevector plans read <C> off it;
  /// its maximum is the exact classical optimum.
  [[nodiscard]] std::span<const double> cost_diagonal() const { return diag_; }

 private:
  MaxCutHamiltonian ham_;
  EnergyOptions options_;
  std::vector<double> diag_;
  struct PlanCache;
  std::unique_ptr<PlanCache> cache_;
};

}  // namespace qarch::qaoa

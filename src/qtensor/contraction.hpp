// Bucket-elimination contraction and the high-level QTensor simulator facade.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "qtensor/network.hpp"
#include "qtensor/ordering.hpp"
#include "qtensor/planner.hpp"
#include "qtensor/program.hpp"

namespace qarch::qtensor {

/// Outcome of a full network contraction.
struct ContractionResult {
  cplx value{0.0, 0.0};   ///< scalar value of the closed network
  std::size_t width = 0;  ///< max intermediate tensor rank encountered
};

/// Contracts a closed network by eliminating variables in `order`
/// (must cover every variable of the network); each bucket is one
/// product() summed over its variable.
ContractionResult contract(const TensorNetwork& network,
                           const std::vector<VarId>& order);

/// Configuration for the QTensor simulator facade AND the qtensor energy
/// engine selected through qaoa::EnergyOptions (engine=TensorNetwork).
struct QTensorOptions {
  /// Bucket-product kernel spec, checked by check_backend_spec: "serial",
  /// the only kernel, is the only valid value.
  std::string backend = "serial";
  PlannerOptions planner;        ///< heuristics competing at program compile
  /// Compile-time slicing decision of every compiled program: slice when
  /// the planned width exceeds this (0 disables; see ProgramOptions).
  std::size_t slice_above_width = 30;
  std::size_t max_slice_vars = 4;
  /// Shared store of planned orders, consulted before every program compile
  /// and fed by every live plan. Injected by search::EvalService (which
  /// also persists it when SessionConfig::plan_cache_path is set); null
  /// disables plan reuse across programs.
  std::shared_ptr<PlanCache> plan_cache;

  /// The ProgramOptions a compiled path derives from these fields — the ONE
  /// reconciliation point, so new program knobs cannot silently diverge
  /// from the energy-plan wiring.
  [[nodiscard]] ProgramOptions program_options() const {
    ProgramOptions po;
    po.planner = planner;
    po.slice_above_width = slice_above_width;
    po.max_slice_vars = max_slice_vars;
    po.plan_cache = plan_cache;
    return po;
  }
};

/// Throws InvalidArgument for any bucket-product kernel spec but "serial"
/// (QTensorOptions::backend, query::SamplerOptions::tn_backend): the
/// constructors of QTensorSimulator, the tensor-network energy plan and the
/// tensor-network query::Sampler check their spec with it.
void check_backend_spec(const std::string& spec);

/// High-level tensor-network simulator: the C++ stand-in for QTensor, and
/// the one-shot reference the compiled programs are tested against. Every
/// call builds its network, orders it with order_greedy_degree, and runs
/// the reference contractor; callers replaying one circuit structure
/// at many thetas or bit strings should hold a ContractionProgram or a
/// query:: program instead.
///
/// Thread-safe for concurrent calls (each call builds its own network and
/// contraction state).
class QTensorSimulator {
 public:
  explicit QTensorSimulator(QTensorOptions options = {});

  /// <+|^n U† Z_u Z_v U |+>^n. Real part returned (imaginary part is
  /// numerically ~0 for a Hermitian observable and is asserted small).
  [[nodiscard]] double expectation_zz(const circuit::Circuit& circuit,
                                      std::span<const double> theta,
                                      std::size_t u, std::size_t v) const;

  /// Amplitude <bits| U |+>^n (bits[q] in {0,1}).
  [[nodiscard]] cplx amplitude(const circuit::Circuit& circuit,
                               std::span<const double> theta,
                               std::span<const int> bits) const;

  [[nodiscard]] const QTensorOptions& options() const { return options_; }

 private:
  QTensorOptions options_;
};

}  // namespace qarch::qtensor

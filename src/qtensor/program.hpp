// Compiled contraction programs — the qtensor analogue of sim::SimProgram,
// and the one compiled contraction core behind both energies and queries.
//
// A ContractionProgram compiles one tensor network ONCE. The network is
// either closed (the <Z_u Z_v> / <Z_q> lightcones behind QAOA energies:
// every variable eliminated, scalar out) or a QueryNetwork with OPEN output
// labels and rebindable basis caps (the amplitudes, marginals and sampling
// steps of src/query/, in the cuQuantum NetworkState mold):
//
//   * the tensor network is built a single time (topology, simplified
//     lightcone, diagonal rank reduction) and its tensors baked, except the
//     handful whose gates carry symbolic parameters (GateBinding) or whose
//     basis choice is rebound per replay (CapBinding);
//   * the contraction order comes from the plan cache or the planner
//     (planner.cpp competing the ordering.cpp heuristics under the exact
//     FLOP cost model); open labels are output axes, dropped from the order;
//   * the slicing decision is taken at compile time: if the planned width
//     exceeds the budget, slice variables (closed ones only) are chosen and
//     the schedule is compiled against the projected structure;
//   * bucket elimination is flattened into a static schedule of fused
//     product+sum steps over preallocated scratch buffers, each step with
//     its index map (where every factor label sits in the product) fixed
//     at compile time; the surviving open-label slots are laid out into
//     the caller's 2^k output along an index map fixed the same way.
//
// A new theta then costs only a per-symbol-gate rebind (a few trig calls),
// a per-cap 2-entry rewrite, plus the replay — no network rebuild, no
// ordering, no label search, and (unsliced) no allocation. Replays
// are const and thread-safe: concurrent callers lease per-thread scratch
// workspaces from an internal pool, so one program can be shared across
// search workers and per-edge parallel_for lanes. qaoa::EnergyEvaluator
// keys programs into its plan_for fingerprint cache, giving
// `backend=qtensor` the same one-compile-per-candidate contract the
// statevector engine has (probe: network_build_count()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/annotations.hpp"
#include "qtensor/network.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"

namespace qarch::qtensor {

/// Ceiling on every program's scheduled width (intermediate rank, output
/// rank included), checked after the slicing decision: a wider schedule
/// would allocate 2^30+ entries (16 GiB) per intermediate, so compiling it
/// fails instead.
inline constexpr std::size_t kMaxProgramWidth = 30;

/// Compile-time configuration of a ContractionProgram.
struct ProgramOptions {
  PlannerOptions planner;   ///< which ordering heuristics compete
  /// Slicing decision: when the planned contraction width exceeds this,
  /// slice variables are chosen (greedy max-degree, re-planning after each)
  /// until the projected width fits or max_slice_vars is reached. The
  /// threshold is a width (intermediate-tensor rank): 30 ≈ 16 GiB, far above
  /// any QAOA lightcone this repo contracts, so slicing is effectively a
  /// safety valve by default. 0 disables slicing entirely.
  std::size_t slice_above_width = 30;
  std::size_t max_slice_vars = 4;  ///< at most 2^this sub-contractions
  /// When set, compile() consults this shared store before invoking the
  /// planner (keyed by shape key + network structure hash) and records the
  /// winning order after a live plan. Cached orders skip planning entirely
  /// — the warm-run path of the persistent plan cache.
  std::shared_ptr<PlanCache> plan_cache;
  /// Circuit forms only: canonical lightcone shape key of (circuit, u, v)
  /// when the caller has already computed it (energy.cpp's dedup pass has);
  /// empty = compute on demand when a plan_cache is attached.
  std::string shape_key;
};

/// Compile-time facts about one program (reported by benches/tests).
struct ProgramStats {
  std::size_t tensors = 0;        ///< network tensors (inputs)
  std::size_t bound_tensors = 0;  ///< tensors rebound per theta
  std::size_t cap_tensors = 0;    ///< caps / projectors rebound per replay
  std::size_t open_labels = 0;    ///< open output variables (output rank)
  std::size_t steps = 0;          ///< bucket-elimination steps
  std::size_t width = 0;          ///< max intermediate rank (incl. output)
  double est_flops = 0.0;         ///< planner cost model, per slice
  std::size_t slice_vars = 0;     ///< 0 = unsliced
  std::size_t scratch_entries = 0;  ///< preallocated cplx entries per lease
  std::string heuristic;          ///< winning ordering heuristic
  bool plan_cached = false;       ///< order came from the plan cache
  std::string shape_key;          ///< plan-cache key (if computed)
};

/// One tensor network compiled against fixed circuit structure, replayable
/// for any theta (and, for query networks, any cap bits).
class ContractionProgram {
 public:
  /// Closed <Z_u Z_v> expectation. Plan-cache keyed under the canonical
  /// lightcone shape key + structure hash.
  ContractionProgram(const circuit::Circuit& circuit, std::size_t u,
                     std::size_t v, const ProgramOptions& options = {});

  /// Single-qubit form: compiles <Z_q> instead of <Z_u Z_v> (Hamiltonians
  /// with field terms). Plan-cache keyed under "z:q" + structure hash;
  /// everything else is identical.
  ContractionProgram(const circuit::Circuit& circuit, std::size_t q,
                     const ProgramOptions& options = {});

  /// Open-index form over a query network (amplitude_query_network /
  /// measure_query_network). `final_labels` must permute network.open_labels
  /// and fixes the output layout (first label outermost); `shape_key` keys
  /// the plan cache (the network structure hash guards exact
  /// applicability).
  ContractionProgram(QueryNetwork network, std::vector<VarId> final_labels,
                     std::size_t num_params, const ProgramOptions& options,
                     std::string shape_key);
  ~ContractionProgram();

  // Non-copyable and non-movable (the scratch pool is address-stable);
  // containers hold programs through unique_ptr.
  ContractionProgram(const ContractionProgram&) = delete;
  ContractionProgram& operator=(const ContractionProgram&) = delete;

  /// Rebinds gates to `theta` and caps to `cap_bits` (one 0 or 1 per cap,
  /// in the network's cap order — ascending qubit for both query builders),
  /// replays the compiled schedule, and writes the 2^k output tensor over
  /// the final labels into `out` (out.size() == output_entries()); a sliced
  /// program sums its 2^s partial outputs. Thread-safe. The bucket steps
  /// run the program's own fused kernel; product_walk (tensor.hpp) lays
  /// the open-label survivors out along the final labels.
  void run(std::span<const double> theta, std::span<const int> cap_bits,
           std::span<cplx> out) const;

  /// Closed networks: the scalar value of the contraction at `theta`.
  [[nodiscard]] cplx contract(std::span<const double> theta) const;

  /// contract() with the Hermitian-expectation check applied: the imaginary
  /// part is asserted ~0 and the real part returned.
  [[nodiscard]] double expectation_zz(std::span<const double> theta) const;

  [[nodiscard]] const ProgramStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_params() const { return num_params_; }
  [[nodiscard]] std::size_t output_entries() const {
    return std::size_t{1} << final_labels_.size();
  }
  /// Variables fixed per slice (closed variables only; empty = unsliced).
  [[nodiscard]] const std::vector<VarId>& slice_vars() const {
    return slice_vars_;
  }

 private:
  /// One flattened bucket-elimination step: the product of its factors over
  /// the bucket's union labels (eliminated variable first), folded over
  /// that variable as it is produced and written as 2^(rank-1) entries
  /// straight into slot `out_slot` — the full product is never
  /// materialized. The step's factors are factor_slots_[first_factor, +
  /// num_factors); each one's labels, in its own order, sit at the product
  /// positions label_pos_[first_label, ...), one run per factor.
  struct Step {
    std::uint32_t first_factor = 0;
    std::uint32_t num_factors = 0;
    std::uint32_t first_label = 0;
    std::uint32_t rank = 0;  ///< product rank, eliminated variable included
    std::uint32_t out_slot = 0;
  };

  /// Per-replay workspace: slot tensors (inputs + intermediates),
  /// unprojected copies of slice-carrying inputs, and one slice's output.
  struct Scratch;
  struct ScratchLease;

  void compile(TensorNetwork net, std::string shape_key);
  void init_scratch(Scratch& s) const;
  [[nodiscard]] Tensor& rebind_target(Scratch& s, std::size_t input) const;
  void run_step(Scratch& s, const Step& step) const;
  void run_schedule(Scratch& s, cplx* out) const;
  [[nodiscard]] ScratchLease lease() const;

  ProgramOptions options_;
  std::size_t num_params_ = 0;
  std::vector<Tensor> inputs_;          ///< baked network tensors (unprojected)
  std::vector<GateBinding> bindings_;   ///< theta-dependent inputs
  std::vector<CapBinding> caps_;        ///< bit-dependent inputs
  std::vector<VarId> final_labels_;     ///< output label order (empty = scalar)
  std::vector<VarId> slice_vars_;
  std::vector<std::size_t> sliced_inputs_;  ///< inputs carrying a slice var
  std::vector<Step> steps_;
  std::vector<std::uint32_t> factor_slots_;  ///< every step's factor slots
  std::vector<std::uint8_t> label_pos_;      ///< every factor label's product
                                             ///< position (< kMaxProgramWidth)
  std::vector<std::size_t> final_slots_;    ///< live slots after elimination
  std::vector<std::uint8_t> final_pos_;     ///< every survivor label's
                                            ///< position in final_labels_
  std::size_t num_slots_ = 0;
  std::size_t max_factors_ = 0;  ///< most factors of a step or the layout
  ProgramStats stats_;

  mutable Mutex pool_mutex_{60, "cache.scratch"};
  mutable std::vector<std::unique_ptr<Scratch>> pool_
      QARCH_GUARDED_BY(pool_mutex_);
};

}  // namespace qarch::qtensor

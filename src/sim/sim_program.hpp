// Compiled statevector simulation plans.
//
// A SimProgram pre-compiles a circuit::Circuit ONCE into a short sequence of
// specialized ops, so that the thousands of per-candidate energy evaluations
// of the architecture search pay circuit analysis once instead of per call:
//
//   * Diagonal gates (RZ/P/Z/S/T/CZ/RZZ — the QAOA cost layer is pure RZZ)
//     compile to streaming phase kernels: ONE complex multiply per amplitude,
//     no pair/quad index shuffling and no 2x2/4x4 matrix allocation. This is
//     the statevector analogue of QTensor's diagonal-gate rank reduction
//     (Lykov & Alexeev 2021), which the tensor backend already exploits.
//   * Runs of adjacent single-qubit gates on the same wire fuse into one
//     cached 2x2 matrix (the numeric counterpart of circuit::optimize's
//     symbolic rotation merging, which runs first as a pre-pass).
//   * Matrices of non-parameterized ops are computed at compile time;
//     parameterized ops cache their source gates and rebind a handful of
//     scalars per theta — never re-deriving the gate list.
//
// Every optimizer step, landscape scan, and search-engine call path inherits
// the compiled path through qaoa::EnergyEvaluator (EngineKind::Statevector).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "sim/statevector.hpp"

namespace qarch::sim {

/// Compilation toggles (all on by default; the abl_* benches switch them off
/// to measure each specialization in isolation). This is the statevector
/// half of the compiled-plan toggle surface reached through
/// qaoa::EnergyOptions::sv_plan; the tensor-network analogue is
/// qtensor::QTensorOptions (planner / slicing / shape dedup).
struct PlanOptions {
  /// Compile diagonal gates (RZ/P/Z/S/T/CZ/RZZ) to streaming phase kernels:
  /// one complex multiply per amplitude, no pair/quad index shuffling.
  bool diagonal_kernels = true;
  /// Merge each run of adjacent single-qubit gates on one wire into a
  /// single cached 2x2 matrix.
  bool fuse_single_qubit = true;
  /// Run circuit::optimize before compiling. search::Evaluator turns this
  /// off when it already pre-simplified the candidate
  /// (EvaluatorOptions::effective_energy).
  bool presimplify = true;
  /// Fold each run of consecutive diagonal ops sharing at most one symbolic
  /// parameter (e.g. an entire QAOA cost layer) into ONE streaming pass: a
  /// per-amplitude phase-class table baked at compile time plus a per-theta
  /// phase lookup rebuilt from a handful of scalars. Requires
  /// diagonal_kernels.
  bool phase_tables = true;
  /// Per-amplitude table memory guard: above this many qubits a program
  /// bakes no phase tables, and a statevector qaoa::EnergyEvaluator builds
  /// no cost diagonal (its plans then read <C> off the batched <ZZ> sweep).
  std::size_t phase_table_max_qubits = 22;
  std::size_t parallel_threshold_qubits = 14;  ///< serial below this size
  /// Use the AVX2/FMA streaming bodies when the build and CPU support them
  /// (sim::simd); false forces the scalar fallback everywhere in this plan.
  bool simd = true;
  /// Cache-blocked replay: runs of consecutive ops that act within (or
  /// diagonally across) a 2^block_qubits-amplitude block are replayed block
  /// by block, streaming each L2-resident block through the WHOLE run per
  /// memory pass instead of sweeping the full state once per op.
  bool cache_blocking = true;
  std::size_t block_qubits = 15;  ///< 2^15 amplitudes = 512 KiB per block

  /// The fully de-specialized configuration: per-gate dense kernels, no
  /// fusion, scalar bodies, no blocking. The compiled-plan machinery with
  /// none of its optimizations — equivalence tests replay it against the
  /// specialized program. Outside SimProgram, the per-gate
  /// StatevectorSimulator is the serial oracle both are checked against.
  static PlanOptions generic() {
    PlanOptions o;
    o.diagonal_kernels = false;
    o.fuse_single_qubit = false;
    o.presimplify = false;
    o.phase_tables = false;
    o.simd = false;
    o.cache_blocking = false;
    return o;
  }
};

/// One compiled operation. Non-parameterized ops carry their final
/// coefficients; parameterized ops additionally keep the source gates they
/// were fused from and recompute the coefficients per theta.
struct CompiledOp {
  enum class Kind {
    Diag1,      ///< streaming diag(d0, d1) on q0       (coeffs[0..1])
    Diag2,      ///< streaming 2q diagonal on (q0, q1)  (coeffs[0..3])
    DiagTable,  ///< phase-class table for a whole diagonal run
    Single,     ///< dense 2x2 on q0, row-major         (coeffs[0..3])
    Two,        ///< dense 4x4 on (q0, q1), row-major, q0 = high basis bit
  };

  Kind kind = Kind::Single;
  std::size_t q0 = 0;
  std::size_t q1 = 0;
  bool parameterized = false;
  std::array<linalg::cplx, 16> coeffs{};
  std::vector<circuit::Gate> sources;  ///< gates fused into this op

  // DiagTable payload. The op applies state[i] *= exp(i * (class_const[c] +
  // class_scale[c] * theta[symbol_index])) with c = classes[i]; the class
  // table depends only on circuit structure, so a new theta costs one
  // exp() per CLASS instead of per amplitude.
  std::vector<std::uint16_t> classes;  ///< per-amplitude phase-class id
  std::vector<double> class_const;     ///< per-class constant angle
  std::vector<double> class_scale;     ///< per-class theta coefficient
  std::vector<linalg::cplx> lut;       ///< baked phases when !has_symbol
  bool has_symbol = false;
  std::size_t symbol_index = 0;
};

/// Per-program compilation statistics (reported by the benches).
struct ProgramStats {
  std::size_t source_gates = 0;  ///< gates after the presimplify pass
  std::size_t ops = 0;
  std::size_t diag1_ops = 0;
  std::size_t diag2_ops = 0;
  std::size_t diag_table_ops = 0;
  std::size_t single_ops = 0;
  std::size_t two_ops = 0;
  std::size_t fused_gates = 0;   ///< source gates absorbed into multi-gate ops
  std::size_t exec_groups = 0;   ///< replay groups (see cache_blocking)
  std::size_t blocked_ops = 0;   ///< ops replayed block-by-block
  std::size_t memory_passes = 0; ///< full-state sweeps per replay (groups
                                 ///< count once; the blocking win metric)
};

/// Number of SimProgram compilations since the last reset. Thread-safe. The
/// plan-reuse benches and tests use this to prove that a whole training run
/// (multistart restarts included) costs exactly one compilation.
std::uint64_t program_compile_count();
void reset_program_compile_count();

/// A circuit compiled against fixed structure, replayable for any theta.
/// Thread-safe after construction: run() binds parameterized coefficients
/// into locals, so one program may be shared across search workers.
///
/// Thread-safety contract: SimProgram owns NO qarch::Mutex — all members
/// are immutable after the constructor returns, so concurrent run() calls
/// need no synchronization (the compile counter above is a lone
/// std::atomic, and per-replay scratch is thread_local). If a future change
/// adds mutable shared state, it must take an annotated qarch::Mutex with a
/// rank from common/lock_order.hpp, not a raw std::mutex.
class SimProgram {
 public:
  explicit SimProgram(const circuit::Circuit& circuit, PlanOptions options = {});

  [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
  [[nodiscard]] std::size_t num_params() const { return num_params_; }
  [[nodiscard]] const std::vector<CompiledOp>& ops() const { return ops_; }
  [[nodiscard]] const ProgramStats& stats() const { return stats_; }
  [[nodiscard]] const PlanOptions& options() const { return options_; }

  /// Replays the program on `state` in place with up to `workers` threads.
  void apply_inplace(State& state, std::span<const double> theta,
                     std::size_t workers = 1) const;

  /// Runs on `initial` and returns the final state.
  [[nodiscard]] State run(std::span<const double> theta, State initial,
                          std::size_t workers = 1) const;

  /// Runs on |+>^n (the QAOA convention).
  [[nodiscard]] State run_from_plus(std::span<const double> theta,
                                    std::size_t workers = 1) const;

 private:
  /// One replay unit: ops [begin, end). Blocked groups stream every
  /// 2^block_qubits-amplitude block of the state through all their ops in
  /// one memory pass; unblocked groups sweep the full state once per op.
  struct ExecGroup {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool blocked = false;
  };

  std::size_t num_qubits_ = 0;
  std::size_t num_params_ = 0;
  PlanOptions options_;
  std::vector<CompiledOp> ops_;
  std::vector<ExecGroup> groups_;
  ProgramStats stats_;
};

}  // namespace qarch::sim

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
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/annotations.hpp"
#include "sim/statevector.hpp"

namespace qarch::sim {

/// Compilation settings. Diagonal gates (RZ/P/Z/S/T/CZ/RZZ) always compile
/// to streaming phase kernels, and runs of adjacent single-qubit gates on
/// one wire always fuse into one cached 2x2; these fields hold what callers
/// vary. This is the statevector half of the compiled-plan settings reached
/// through qaoa::EnergyOptions::sv_plan; the tensor-network analogue is
/// qtensor::QTensorOptions (planner / slicing). Whether the replay runs the
/// AVX2 or the scalar bodies is the process-wide sim::simd::active().
struct PlanOptions {
  /// Run circuit::optimize before compiling. search::Evaluator turns this
  /// off when it already pre-simplified the candidate
  /// (EvaluatorOptions::effective_energy).
  bool presimplify = true;
  /// Fold each run of consecutive diagonal ops, whatever symbolic
  /// parameters it carries (an entire QAOA cost layer, or a whole
  /// all-diagonal ansatz), into ONE streaming pass: a per-amplitude
  /// phase-class table (a PhaseTable) baked at compile time plus a
  /// per-theta phase lookup rebuilt from a few scalars per class. A run
  /// whose classes overflow the table's 16-bit index stays plain
  /// Diag1/Diag2 ops. A program compiled through a PhaseTableCache shares
  /// the table of each run of at most one symbol with every other program
  /// of that cache that folds an equal run.
  bool phase_tables = true;
  /// Per-amplitude table memory guard: above this many qubits a program
  /// bakes no phase tables, and a statevector qaoa::EnergyEvaluator builds
  /// no cost diagonal (its plans then read <C> off the batched <ZZ> sweep).
  std::size_t phase_table_max_qubits = 22;
  std::size_t parallel_threshold_qubits = 14;  ///< serial below this size
  /// Cache-blocked replay: runs of consecutive ops that act within (or
  /// diagonally across) a 2^block_qubits-amplitude block are replayed block
  /// by block, streaming each L2-resident block through the WHOLE run per
  /// memory pass instead of sweeping the full state once per op.
  bool cache_blocking = true;
  std::size_t block_qubits = 15;  ///< 2^15 amplitudes = 512 KiB per block
};

/// The structural half of a DiagTable op: per-amplitude phase-class ids and
/// each class's angle terms. It depends only on which gates the diagonal
/// run holds and on which symbol SLOT (rank among the run's symbols) each
/// gate reads, never on the theta indices, so one table serves every cost
/// layer of a graph: γ₁'s layer and γ₂'s alike.
struct PhaseTable {
  std::vector<std::uint16_t> classes;  ///< per-amplitude phase-class id
  std::vector<double> class_const;     ///< per-class constant angle
  std::vector<double> class_scale;     ///< classes x S slot coefficients
  std::vector<linalg::cplx> lut;       ///< baked phases when S == 0
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

  // DiagTable payload. With S = symbols.size() and t = *table, the op
  // applies
  //   state[i] *= exp(i * (t.class_const[c] +
  //                        sum_s t.class_scale[c * S + s] * theta[symbols[s]]))
  // with c = t.classes[i]; a new theta costs one exp() per CLASS instead of
  // per amplitude. The theta indices stay per op; the table is read-only
  // and may be shared with every op (of this program, or of another
  // compiled through the same PhaseTableCache) that folds an equal run.
  std::vector<std::size_t> symbols;  ///< ascending theta indices
  std::shared_ptr<const PhaseTable> table;
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

/// Number of phase tables built since the process started, through a
/// PhaseTableCache or not. Thread-safe. Tests take differences of it to
/// prove that a graph's cost-layer table is built once for all its
/// candidates.
std::uint64_t phase_table_build_count();

/// A fixed-capacity LRU of the phase tables that recur across programs,
/// keyed by everything a table's build reads: the qubit count, the number
/// of symbols, and per source gate its qubits, arity, four per-selector
/// angle terms and symbol slot. Equal keys give bit-identical tables, so
/// every program compiled through one cache shares one table per distinct
/// diagonal run; a graph's cost-layer table is built once for all its
/// candidates (qaoa::EnergyEvaluator owns one cache per graph). Only runs
/// of at most one symbol go through it: in a QAOA ansatz a run over two or
/// more spans a mixer's angles, so its table belongs to one candidate and
/// its program keeps it alone.
///
/// Thread-safe. Tables build outside the lock; when two compilations race
/// on one key, both build and the table cached first is the one both get.
/// Lock tier cache.phasetables (rank 55 in common/lock_order.hpp): taken
/// only while a SimProgram compiles, never on the replay path.
class PhaseTableCache {
 public:
  /// Tables kept: a graph's cost layer plus a few one-symbol mixer runs (a
  /// diagonal mixer gate after a non-diagonal one). Each holds 2 bytes per
  /// amplitude.
  static constexpr std::size_t kCapacity = 4;

  /// The table cached under `key`, or `build()` (cached in its place) on a
  /// miss. A null table, for a run whose classes overflow, is cached too.
  std::shared_ptr<const PhaseTable> get(
      const std::string& key,
      const std::function<std::shared_ptr<const PhaseTable>()>& build);

 private:
  /// Moves `key`'s entry to the front; false when there is none.
  bool touch(const std::string& key) QARCH_REQUIRES(mutex_);

  Mutex mutex_{55, "cache.phasetables"};
  /// Most recently used first.
  std::list<std::pair<std::string, std::shared_ptr<const PhaseTable>>>
      entries_ QARCH_GUARDED_BY(mutex_);
};

/// A circuit compiled against fixed structure, replayable for any theta.
/// Thread-safe after construction: run() binds parameterized coefficients
/// into locals, so one program may be shared across search workers.
///
/// Thread-safety contract: SimProgram owns NO qarch::Mutex — all members
/// are immutable after the constructor returns, so concurrent run() calls
/// need no synchronization (the compile counter above is a lone
/// std::atomic, per-replay scratch is thread_local, and shared phase tables
/// are const). If a future change adds mutable shared state, it must take
/// an annotated qarch::Mutex with a rank from common/lock_order.hpp, not a
/// raw std::mutex.
class SimProgram {
 public:
  /// Compiles `circuit`. With a `tables` cache, phase tables come from (and
  /// go to) it; without one, a cache local to this compile shares a table
  /// between equal runs (an ansatz's p cost layers). The program keeps only
  /// the tables, not the cache.
  explicit SimProgram(const circuit::Circuit& circuit, PlanOptions options = {},
                      PhaseTableCache* tables = nullptr);

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

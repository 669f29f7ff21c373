#include "sim/sim_program.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <utility>

#include <atomic>

#include "circuit/optimizer.hpp"
#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "sim/simd.hpp"

namespace qarch::sim {

using circuit::Gate;
using circuit::GateKind;

namespace {

/// Computes an op's coefficients for one theta. Used once at compile time
/// for non-parameterized ops and per run() for parameterized ones.
std::array<cplx, 16> bind_op(const CompiledOp& op,
                             std::span<const double> theta) {
  std::array<cplx, 16> out{};
  switch (op.kind) {
    case CompiledOp::Kind::DiagTable:
      throw InternalError("DiagTable ops bind a per-class lookup, not coeffs");
    case CompiledOp::Kind::Diag1: {
      cplx d0{1, 0}, d1{1, 0};
      for (const Gate& g : op.sources) {
        const auto e = circuit::gate_entries(g.kind, g.angle(theta));
        d0 *= e[0];
        d1 *= e[3];
      }
      out[0] = d0;
      out[1] = d1;
      return out;
    }
    case CompiledOp::Kind::Diag2: {
      out[0] = out[1] = out[2] = out[3] = cplx{1, 0};
      for (const Gate& g : op.sources) {
        const auto e = circuit::gate_entries(g.kind, g.angle(theta));
        // The diagonal, indexed by (bit_q0 << 1) | bit_q1 in the gate's own
        // qubit orientation. Remap when the source is oriented (q1, q0)
        // relative to the op: swapping the qubits swaps |01> and |10>.
        const bool swapped = g.q0 != op.q0;
        out[0] *= e[0];
        out[1] *= e[swapped ? 10 : 5];
        out[2] *= e[swapped ? 5 : 10];
        out[3] *= e[15];
      }
      return out;
    }
    case CompiledOp::Kind::Single: {
      // Product m_last * ... * m_first of the fused run (2x2 matmuls).
      std::array<cplx, 4> acc = {cplx{1, 0}, cplx{0, 0}, cplx{0, 0},
                                 cplx{1, 0}};
      for (const Gate& g : op.sources) {
        const auto m = circuit::gate_entries(g.kind, g.angle(theta));
        const std::array<cplx, 4> prev = acc;
        acc[0] = m[0] * prev[0] + m[1] * prev[2];
        acc[1] = m[0] * prev[1] + m[1] * prev[3];
        acc[2] = m[2] * prev[0] + m[3] * prev[2];
        acc[3] = m[2] * prev[1] + m[3] * prev[3];
      }
      for (std::size_t k = 0; k < 4; ++k) out[k] = acc[k];
      return out;
    }
    case CompiledOp::Kind::Two: {
      QARCH_CHECK(op.sources.size() == 1, "dense two-qubit op fuses nothing");
      const Gate& g = op.sources.front();
      return circuit::gate_entries(g.kind, g.angle(theta));
    }
  }
  throw InternalError("unhandled compiled-op kind");
}

bool any_symbolic(const std::vector<Gate>& gates) {
  for (const Gate& g : gates)
    if (g.param.kind == circuit::ParamExpr::Kind::Symbol) return true;
  return false;
}

// -- phase-table folding -----------------------------------------------------
//
// Every diagonal gate here has unit-modulus entries whose phase ANGLE is
// affine in its bound parameter: angle(sel) = factor(sel) * theta for
// RZ/P/RZZ (no intercept) and a constant for Z/S/Sdg/T/Tdg/CZ/I. A run of
// consecutive diagonal ops therefore applies, per amplitude i,
//   state[i] *= exp(i * (base(i) + sum_s coef_s(i) * theta[symbols[s]]))
// where base/coef_s depend only on circuit structure. We bake the distinct
// (base, coef_0, ..., coef_{S-1}) rows into a per-amplitude class table once
// at compile time; a new theta then costs one exp() per CLASS (e.g. 41
// classes for a 40-edge unweighted cost layer) plus a single streaming
// multiply pass.

bool is_diag_op(const CompiledOp& op) {
  return op.kind == CompiledOp::Kind::Diag1 ||
         op.kind == CompiledOp::Kind::Diag2;
}

/// One source gate's angle term per selector sel (its qubits' bits): a
/// constant angle (`slot` = kNoSlot) or the coefficient of
/// theta[symbols[slot]]. A symbolic gate's constant part is exactly zero.
struct GateAngles {
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  std::size_t q0 = 0;
  std::size_t q1 = 0;  ///< 0 for a one-qubit gate
  bool two = false;
  double terms[4] = {0, 0, 0, 0};
  std::size_t slot = kNoSlot;
};

GateAngles gate_angles(const Gate& g, std::span<const std::size_t> symbols) {
  GateAngles out;
  out.two = g.arity() == 2;
  out.q0 = g.q0;
  out.q1 = out.two ? g.q1 : 0;
  const std::size_t sels = out.two ? 4 : 2;
  // Phase angles of the entries at angle 1 (parameterized kinds, whose
  // angles are linear in it) or of the fixed entries.
  const double at = circuit::is_parameterized(g.kind) ? 1.0 : 0.0;
  // The diagonal sits at stride sels + 1 of the row-major entries.
  const auto e = circuit::gate_entries(g.kind, at);
  double arg[4] = {0, 0, 0, 0};
  for (std::size_t s = 0; s < sels; ++s) arg[s] = std::arg(e[s * (sels + 1)]);
  if (!circuit::is_parameterized(g.kind)) {
    for (std::size_t s = 0; s < sels; ++s) out.terms[s] = arg[s];
    return out;
  }
  switch (g.param.kind) {
    case circuit::ParamExpr::Kind::None:
      break;  // angle 0 contributes nothing
    case circuit::ParamExpr::Kind::Constant:
      for (std::size_t s = 0; s < sels; ++s)
        out.terms[s] = arg[s] * g.param.constant;
      break;
    case circuit::ParamExpr::Kind::Symbol:
      for (std::size_t s = 0; s < sels; ++s)
        out.terms[s] = arg[s] * g.param.scale;
      out.slot = static_cast<std::size_t>(
          std::lower_bound(symbols.begin(), symbols.end(), g.param.index) -
          symbols.begin());
      break;
  }
  return out;
}

std::size_t gate_sel(const GateAngles& g, std::size_t i) {
  return g.two ? ((((i >> g.q0) & 1) << 1) | ((i >> g.q1) & 1))
               : ((i >> g.q0) & 1);
}

/// Adds `g`'s term to dst[k] for each amplitude lo + k of [lo, lo + len),
/// where len is a power of two and lo a multiple of it. The selector is
/// constant on aligned runs of 2^(lowest gate qubit) amplitudes. Runs
/// shorter than kPattern amplitudes add a fixed kPattern-amplitude pattern
/// instead, which holds across each aligned 2^(other gate qubit) stretch
/// (or the whole range).
void add_gate_terms(const GateAngles& g, std::size_t lo, std::size_t len,
                    double* dst) {
  constexpr std::size_t kPattern = 8;
  const std::size_t low = g.two ? std::min(g.q0, g.q1) : g.q0;
  if ((std::size_t{1} << low) < kPattern && len >= kPattern) {
    const std::size_t high = g.two ? std::max(g.q0, g.q1) : 0;
    const std::size_t period = (std::size_t{1} << high) >= kPattern
                                   ? std::min(std::size_t{1} << high, len)
                                   : len;
    for (std::size_t b = 0; b < len; b += period) {
      double t[kPattern];
      for (std::size_t j = 0; j < kPattern; ++j)
        t[j] = g.terms[gate_sel(g, lo + b + j)];
      for (std::size_t k = b; k < b + period; k += kPattern)
        for (std::size_t j = 0; j < kPattern; ++j) dst[k + j] += t[j];
    }
    return;
  }
  const std::size_t run = std::min(std::size_t{1} << low, len);
  for (std::size_t b = 0; b < len; b += run) {
    const double term = g.terms[gate_sel(g, lo + b)];
    for (std::size_t k = b; k < b + run; ++k) dst[k] += term;
  }
}

/// First-seen numbering of (double, double) keys, compared by bit pattern
/// in an open-addressing table with linear probing. The build's sums start
/// from +0.0 and class ids are non-negative, so no key holds a -0.0 and
/// bit equality is value equality.
class FirstSeenIds {
 public:
  static constexpr std::uint32_t kFull = static_cast<std::uint32_t>(-1);

  explicit FirstSeenIds(std::size_t max_ids)
      : max_ids_(max_ids), slots_(64, kEmpty) {}

  /// The id of (a, b), numbering it next when unseen; kFull when unseen and
  /// max_ids keys are numbered already.
  std::uint32_t id(double a, double b) {
    const Key key{std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b)};
    std::size_t s = slot_of(key);
    for (; slots_[s] != kEmpty; s = (s + 1) & (slots_.size() - 1))
      if (keys_[slots_[s]] == key) return slots_[s];
    if (keys_.size() >= max_ids_) return kFull;
    const auto fresh = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[s] = fresh;
    if (2 * keys_.size() > slots_.size()) grow();
    return fresh;
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// The key numbered `id`.
  [[nodiscard]] std::pair<double, double> key(std::size_t id) const {
    return {std::bit_cast<double>(keys_[id].first),
            std::bit_cast<double>(keys_[id].second)};
  }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);

  /// The keys' entropy sits in their high bits (exponents, leading
  /// mantissa bits, small class ids), so a splitmix64 finalizer folds it
  /// down into the slot bits.
  std::size_t slot_of(const Key& key) const {
    std::uint64_t h = key.first * 0x9e3779b97f4a7c15ULL + key.second;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t s = slot_of(keys_[id]);
      while (slots_[s] != kEmpty) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = id;
    }
  }

  std::size_t max_ids_;
  std::vector<std::uint32_t> slots_;  ///< id per slot, or kEmpty
  std::vector<Key> keys_;             ///< keys_[id], first seen first
};

std::atomic<std::uint64_t> g_phase_table_builds{0};

/// Builds the phase table of a diagonal run from its gates' angle terms, or
/// null when the run has more phase classes than the table can index.
///
/// Classes are numbered by refinement, one round per symbol: round 0 keys on
/// (constant angle, coefficient of slot 0); round r keys on (class from
/// round r - 1, coefficient of slot r). Each round refines the last, so the
/// final round's ids are the distinct rows and no round outgrows the final
/// class count. The amplitudes are walked chunk by chunk with one
/// coefficient buffer reused across rounds, so the build's scratch is a few
/// chunk-sized buffers whatever the number of symbols; each amplitude's
/// angles sum their gates' terms in gate order.
std::shared_ptr<const PhaseTable> build_phase_table(
    std::span<const GateAngles> gates, std::size_t num_qubits,
    std::size_t num_syms) {
  constexpr std::size_t kMaxClasses = 65535;
  constexpr std::size_t kChunk = 1024;
  const std::size_t rounds = std::max<std::size_t>(num_syms, 1);
  g_phase_table_builds.fetch_add(1, std::memory_order_relaxed);

  auto out = std::make_shared<PhaseTable>();
  std::vector<FirstSeenIds> numbering(rounds, FirstSeenIds(kMaxClasses));
  const std::size_t dim = std::size_t{1} << num_qubits;
  const std::size_t chunk = std::min(dim, kChunk);
  std::vector<double> base(chunk), coef(chunk);
  out->classes.resize(dim);
  for (std::size_t lo = 0; lo < dim; lo += chunk) {
    std::uint16_t* cls = out->classes.data() + lo;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (r == 0) std::fill(base.begin(), base.end(), 0.0);
      std::fill(coef.begin(), coef.end(), 0.0);
      for (const GateAngles& g : gates) {
        if (g.slot == r)
          add_gate_terms(g, lo, chunk, coef.data());
        else if (r == 0 && g.slot == GateAngles::kNoSlot)
          add_gate_terms(g, lo, chunk, base.data());
      }
      FirstSeenIds& ids = numbering[r];
      for (std::size_t k = 0; k < chunk; ++k) {
        const std::uint32_t id =
            ids.id(r == 0 ? base[k] : static_cast<double>(cls[k]), coef[k]);
        if (id == FirstSeenIds::kFull) return nullptr;
        cls[k] = static_cast<std::uint16_t>(id);
      }
    }
  }

  // Unwind each final class through the rounds into its (constant,
  // coefficients) row.
  const std::size_t num_classes = numbering.back().size();
  out->class_const.resize(num_classes);
  out->class_scale.resize(num_classes * num_syms);
  for (std::size_t c = 0; c < num_classes; ++c) {
    std::size_t id = c;
    for (std::size_t r = rounds; r-- > 0;) {
      const auto [prev, scale] = numbering[r].key(id);
      if (num_syms > 0) out->class_scale[c * num_syms + r] = scale;
      if (r == 0)
        out->class_const[c] = prev;
      else
        id = static_cast<std::size_t>(prev);
    }
  }
  if (num_syms == 0) {
    // Fully constant run: bake the per-class phases once at compile time.
    out->lut.resize(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c)
      out->lut[c] = std::polar(1.0, out->class_const[c]);
  }
  return out;
}

/// The PhaseTableCache key of a run: exactly the inputs of
/// build_phase_table, byte for byte.
std::string phase_table_key(std::span<const GateAngles> gates,
                            std::size_t num_qubits, std::size_t num_syms) {
  std::string key;
  key.reserve(16 + gates.size() * 64);
  const auto put = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t head[2] = {num_qubits, num_syms};
  put(head, sizeof(head));
  for (const GateAngles& g : gates) {
    const std::uint64_t ids[4] = {g.q0, g.q1, g.two ? 1u : 0u, g.slot};
    put(ids, sizeof(ids));
    put(g.terms, sizeof(g.terms));
  }
  return key;
}

/// One DiagTable op replacing the diagonal ops in `run`, or nullopt when
/// the run overflows the table. A run of at most one symbol takes its table
/// from `cache`; in a QAOA ansatz a run over more spans a mixer's angles,
/// which no other candidate shares, so it builds its own.
std::optional<CompiledOp> fold_run(std::span<const CompiledOp> run,
                                   std::size_t num_qubits,
                                   PhaseTableCache& cache) {
  CompiledOp out;
  out.kind = CompiledOp::Kind::DiagTable;
  for (const CompiledOp& op : run)
    for (const Gate& g : op.sources)
      if (g.param.kind == circuit::ParamExpr::Kind::Symbol)
        out.symbols.push_back(g.param.index);
  std::sort(out.symbols.begin(), out.symbols.end());
  out.symbols.erase(std::unique(out.symbols.begin(), out.symbols.end()),
                    out.symbols.end());
  out.parameterized = !out.symbols.empty();

  std::vector<GateAngles> gates;
  for (const CompiledOp& op : run)
    for (const Gate& g : op.sources)
      gates.push_back(gate_angles(g, out.symbols));
  const auto build = [&] {
    return build_phase_table(gates, num_qubits, out.symbols.size());
  };
  out.table = out.symbols.size() <= 1
                  ? cache.get(phase_table_key(gates, num_qubits,
                                              out.symbols.size()),
                              build)
                  : build();
  if (out.table == nullptr) return std::nullopt;
  for (const CompiledOp& op : run)
    out.sources.insert(out.sources.end(), op.sources.begin(),
                       op.sources.end());
  return out;
}

/// Replaces each eligible run of >= 2 diagonal ops with one DiagTable op.
/// A run may extend past intervening non-diagonal ops on DISJOINT qubits
/// (they commute, so the gathered diagonals legally move to the run's start);
/// any op touching a qubit blocks it for the rest of the gather.
std::vector<CompiledOp> fold_phase_tables(std::vector<CompiledOp> ops,
                                          std::size_t num_qubits,
                                          PhaseTableCache& cache) {
  std::vector<CompiledOp> out;
  out.reserve(ops.size());
  std::size_t i = 0;
  while (i < ops.size()) {
    if (!is_diag_op(ops[i])) {
      out.push_back(std::move(ops[i++]));
      continue;
    }
    std::vector<CompiledOp> run, skipped;
    std::vector<bool> blocked(num_qubits, false);
    std::size_t free_qubits = num_qubits;
    std::size_t j = i;
    for (; j < ops.size() && free_qubits > 0; ++j) {
      CompiledOp& op = ops[j];
      const bool two = op.kind != CompiledOp::Kind::Diag1 &&
                       op.kind != CompiledOp::Kind::Single;
      const bool touches_blocked =
          blocked[op.q0] || (two && blocked[op.q1]);
      if (is_diag_op(op) && !touches_blocked) {
        run.push_back(std::move(op));
        continue;
      }
      // Every skipped op blocks its qubits: later gathered diagonals are
      // disjoint from it and every earlier skipped op, so hoisting them to
      // the run's start preserves the circuit's action.
      if (!blocked[op.q0]) { blocked[op.q0] = true; --free_qubits; }
      if (two && !blocked[op.q1]) { blocked[op.q1] = true; --free_qubits; }
      skipped.push_back(std::move(op));
    }
    std::optional<CompiledOp> table;
    if (run.size() >= 2)
      table = fold_run(run, num_qubits, cache);
    if (table.has_value()) {
      out.push_back(std::move(*table));
    } else {
      // Ineligible: keep the gathered diagonals as plain streaming ops.
      // Emitting them before the skipped tail is still action-preserving —
      // each gathered op is disjoint from every skipped op it moved past.
      for (auto& op : run) out.push_back(std::move(op));
    }
    for (auto& op : skipped) out.push_back(std::move(op));
    i = j;
  }
  return out;
}

/// True when the op can run inside one 2^block_qubits-amplitude block
/// without touching any other block: diagonal ops are elementwise (any
/// qubits), dense ops only mix amplitudes within a block when every target
/// bit lies below the block boundary.
bool op_is_blockable(const CompiledOp& op, std::size_t block_qubits) {
  switch (op.kind) {
    case CompiledOp::Kind::Diag1:
    case CompiledOp::Kind::Diag2:
    case CompiledOp::Kind::DiagTable:
      return true;
    case CompiledOp::Kind::Single:
      return op.q0 < block_qubits;
    case CompiledOp::Kind::Two:
      return op.q0 < block_qubits && op.q1 < block_qubits;
  }
  return false;
}

/// log2 of the amplitudes one unit of an op's pass covers: a diagonal op
/// scales one amplitude at a time, a Single op mixes a pair and a Two op a
/// quad.
std::size_t unit_qubits(CompiledOp::Kind kind) {
  if (kind == CompiledOp::Kind::Single) return 1;
  if (kind == CompiledOp::Kind::Two) return 2;
  return 0;
}

std::atomic<std::uint64_t> g_program_compiles{0};

}  // namespace

std::uint64_t program_compile_count() {
  return g_program_compiles.load(std::memory_order_relaxed);
}

void reset_program_compile_count() {
  g_program_compiles.store(0, std::memory_order_relaxed);
}

std::uint64_t phase_table_build_count() {
  return g_phase_table_builds.load(std::memory_order_relaxed);
}

bool PhaseTableCache::touch(const std::string& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->first == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return true;
    }
  return false;
}

std::shared_ptr<const PhaseTable> PhaseTableCache::get(
    const std::string& key,
    const std::function<std::shared_ptr<const PhaseTable>()>& build) {
  {
    LockGuard lock(mutex_);
    if (touch(key)) return entries_.front().second;
  }
  std::shared_ptr<const PhaseTable> table = build();
  LockGuard lock(mutex_);
  if (touch(key)) return entries_.front().second;
  entries_.emplace_front(key, std::move(table));
  if (entries_.size() > kCapacity) entries_.pop_back();
  return entries_.front().second;
}

SimProgram::SimProgram(const circuit::Circuit& circuit, PlanOptions options,
                       PhaseTableCache* tables)
    : num_qubits_(circuit.num_qubits()),
      num_params_(circuit.num_params()),
      options_(options) {
  circuit::Circuit simplified;
  const circuit::Circuit* source = &circuit;
  if (options_.presimplify) {
    simplified = circuit::optimize(circuit);
    source = &simplified;
  }
  stats_.source_gates = source->num_gates();

  // Emits one op for a fused run of single-qubit gates on one wire.
  const auto emit_single_run = [&](std::vector<Gate>& run) {
    if (run.empty()) return;
    CompiledOp op;
    op.q0 = run.front().q0;
    bool all_diagonal = true;
    for (const Gate& g : run)
      if (!circuit::is_diagonal(g.kind)) all_diagonal = false;
    op.kind =
        all_diagonal ? CompiledOp::Kind::Diag1 : CompiledOp::Kind::Single;
    op.parameterized = any_symbolic(run);
    op.sources = std::move(run);
    run.clear();
    if (!op.parameterized) op.coeffs = bind_op(op, {});
    ops_.push_back(std::move(op));
  };

  std::vector<std::vector<Gate>> pending(num_qubits_);
  const bool fold_tables = options_.phase_tables &&
                           num_qubits_ <= options_.phase_table_max_qubits;

  for (const Gate& g : source->gates()) {
    if (g.arity() == 1) {
      pending[g.q0].push_back(g);
      continue;
    }

    if (circuit::is_diagonal(g.kind) && fold_tables) {
      // Flush every pending single-qubit run, not just this gate's wires:
      // a two-qubit diagonal gate usually starts a cost layer, and keeping
      // that layer contiguous lets the phase-table fold absorb it whole.
      // (Emitting a pending run early is always valid — it only moves
      // across ops on disjoint wires.)
      for (auto& run : pending) emit_single_run(run);
    } else {
      emit_single_run(pending[g.q0]);
      emit_single_run(pending[g.q1]);
    }

    if (circuit::is_diagonal(g.kind)) {
      // Consecutive diagonal gates on the same (unordered) pair merge into
      // one streaming op — diagonal matrices commute and multiply entrywise.
      if (!ops_.empty()) {
        CompiledOp& back = ops_.back();
        const bool same_pair =
            back.kind == CompiledOp::Kind::Diag2 &&
            ((back.q0 == g.q0 && back.q1 == g.q1) ||
             (back.q0 == g.q1 && back.q1 == g.q0));
        if (same_pair) {
          back.sources.push_back(g);
          back.parameterized = any_symbolic(back.sources);
          if (!back.parameterized) back.coeffs = bind_op(back, {});
          continue;
        }
      }
      CompiledOp op;
      op.kind = CompiledOp::Kind::Diag2;
      op.q0 = g.q0;
      op.q1 = g.q1;
      op.parameterized = g.param.kind == circuit::ParamExpr::Kind::Symbol;
      op.sources = {g};
      if (!op.parameterized) op.coeffs = bind_op(op, {});
      ops_.push_back(std::move(op));
    } else {
      CompiledOp op;
      op.kind = CompiledOp::Kind::Two;
      op.q0 = g.q0;
      op.q1 = g.q1;
      op.parameterized = g.param.kind == circuit::ParamExpr::Kind::Symbol;
      op.sources = {g};
      if (!op.parameterized) op.coeffs = bind_op(op, {});
      ops_.push_back(std::move(op));
    }
  }

  for (auto& run : pending) emit_single_run(run);

  if (fold_tables) {
    // Without a caller's cache, one local to this compile still shares a
    // table between equal runs, such as the p cost layers of an ansatz.
    PhaseTableCache local;
    PhaseTableCache& cache = tables != nullptr ? *tables : local;
    // Folding a run shrinks ops_, which can bring further diagonal ops into
    // adjacency; iterate to a fixed point (a handful of rounds at most).
    for (int round = 0; round < 4; ++round) {
      const std::size_t before = ops_.size();
      ops_ = fold_phase_tables(std::move(ops_), num_qubits_, cache);
      if (ops_.size() == before) break;
    }
  }

  stats_.ops = ops_.size();
  for (const CompiledOp& op : ops_) {
    switch (op.kind) {
      case CompiledOp::Kind::Diag1: ++stats_.diag1_ops; break;
      case CompiledOp::Kind::Diag2: ++stats_.diag2_ops; break;
      case CompiledOp::Kind::DiagTable: ++stats_.diag_table_ops; break;
      case CompiledOp::Kind::Single: ++stats_.single_ops; break;
      case CompiledOp::Kind::Two: ++stats_.two_ops; break;
    }
    if (op.sources.size() > 1) stats_.fused_gates += op.sources.size();
  }

  // Partition the op list into replay groups. Blocking only pays when the
  // state is bigger than a block; below that the whole state is one block
  // and plain per-op sweeps are already cache-resident.
  const bool blocking = options_.cache_blocking &&
                        num_qubits_ > options_.block_qubits;
  std::size_t i = 0;
  while (i < ops_.size()) {
    const bool can_block =
        blocking && op_is_blockable(ops_[i], options_.block_qubits);
    std::size_t j = i + 1;
    while (j < ops_.size() &&
           (blocking && op_is_blockable(ops_[j], options_.block_qubits)) ==
               can_block)
      ++j;
    if (can_block && j - i >= 2) {
      groups_.push_back({i, j, true});
      stats_.blocked_ops += j - i;
      ++stats_.memory_passes;
    } else {
      groups_.push_back({i, j, false});
      stats_.memory_passes += j - i;
    }
    i = j;
  }
  stats_.exec_groups = groups_.size();

  g_program_compiles.fetch_add(1, std::memory_order_relaxed);
}

void SimProgram::apply_inplace(State& state, std::span<const double> theta,
                               std::size_t workers) const {
  QARCH_REQUIRE(state_qubits(state) == num_qubits_,
                "state qubit count mismatch");
  QARCH_REQUIRE(theta.size() >= num_params_,
                "parameter vector too short for program");
  if (workers == 0) workers = 1;
  const bool parallel =
      workers > 1 && num_qubits_ >= options_.parallel_threshold_qubits;

  // -- bind phase ------------------------------------------------------------
  // Every op binds ONCE per call into its slot of per-thread scratch (a
  // shared program stays thread-safe and const, and the hot loop — hundreds
  // of energy(theta) calls per candidate — reuses the buffers instead of
  // reallocating): a parameterized op its coefficients, a symbolic DiagTable
  // its per-class lookup; the rest point at what they compiled. Binding
  // must precede replay: a blocked group revisits each op once per block.
  struct Slot {
    const cplx* data = nullptr;  ///< what the op's pass reads
    std::array<cplx, 16> coeffs{};
    std::vector<cplx> lut;
  };
  static thread_local std::vector<Slot> slots;
  if (slots.size() < ops_.size()) slots.resize(ops_.size());
  for (std::size_t oi = 0; oi < ops_.size(); ++oi) {
    const CompiledOp& op = ops_[oi];
    Slot& slot = slots[oi];
    if (op.kind == CompiledOp::Kind::DiagTable && !op.symbols.empty()) {
      const std::size_t num_syms = op.symbols.size();
      const PhaseTable& table = *op.table;
      slot.lut.resize(table.class_const.size());
      for (std::size_t c = 0; c < slot.lut.size(); ++c) {
        const double* scale = table.class_scale.data() + c * num_syms;
        double angle = table.class_const[c];
        for (std::size_t s = 0; s < num_syms; ++s)
          angle += scale[s] * theta[op.symbols[s]];
        slot.lut[c] = std::polar(1.0, angle);
      }
      slot.data = slot.lut.data();
    } else if (op.kind == CompiledOp::Kind::DiagTable) {
      slot.data = op.table->lut.data();
    } else if (op.parameterized) {
      slot.coeffs = bind_op(op, theta);
      slot.data = slot.coeffs.data();
    } else {
      slot.data = op.coeffs.data();
    }
  }

  // -- replay phase ----------------------------------------------------------
  // Applies op oi to its units [lo, hi), indexed over the whole state (a
  // unit is 2^unit_qubits amplitudes). Both replay modes run through it:
  // the one rule that maps an op onto the state. Helpers read the caller's
  // slots, so the pointer is taken here, not inside the lambda.
  cplx* const z = state.data();
  const Slot* const bound = slots.data();
  const auto run_op = [this, z, bound](std::size_t oi, std::size_t lo,
                                       std::size_t hi) {
    const CompiledOp& op = ops_[oi];
    const cplx* c = bound[oi].data;
    switch (op.kind) {
      case CompiledOp::Kind::Diag1:
        simd::diag1_slice(z + lo, hi - lo, lo, op.q0, c[0], c[1]);
        break;
      case CompiledOp::Kind::Diag2:
        simd::diag2_slice(z + lo, hi - lo, lo, op.q0, op.q1, c);
        break;
      case CompiledOp::Kind::DiagTable:
        simd::table_slice(z + lo, op.table->classes.data() + lo, c, hi - lo);
        break;
      case CompiledOp::Kind::Single:
        simd::single_pair_range(z, op.q0, c, lo, hi);
        break;
      case CompiledOp::Kind::Two:
        simd::two_quad_range(z, op.q0, op.q1, c, lo, hi);
        break;
    }
  };

  // The forks hand parallel_for lambdas of at most two references, which fit
  // std::function's local buffer, so a replay allocates nothing.
  const std::size_t bq = options_.block_qubits;
  for (const ExecGroup& grp : groups_) {
    if (grp.blocked) {
      // One memory pass for the whole group: each L2-resident block streams
      // through every op before the next block is touched. Blocks are
      // independent (all ops act within a block), so they parallelize.
      const auto run_block = [&](std::size_t b) {
        for (std::size_t oi = grp.begin; oi < grp.end; ++oi) {
          const std::size_t s = unit_qubits(ops_[oi].kind);
          run_op(oi, (b << bq) >> s, ((b + 1) << bq) >> s);
        }
      };
      const std::size_t num_blocks = state.size() >> bq;
      if (parallel)
        parallel::parallel_for(
            0, num_blocks, [&run_block](std::size_t b) { run_block(b); },
            workers, 1);
      else
        for (std::size_t b = 0; b < num_blocks; ++b) run_block(b);
      continue;
    }
    // One full sweep per op; a fork splits it into runs of 4096 amplitudes.
    for (std::size_t oi = grp.begin; oi < grp.end; ++oi) {
      const std::size_t s = unit_qubits(ops_[oi].kind);
      if (parallel)
        parallel::parallel_for_blocks(
            0, state.size() >> s,
            [&run_op, &oi](std::size_t lo, std::size_t hi) {
              run_op(oi, lo, hi);
            },
            workers, std::size_t{4096} >> s);
      else
        run_op(oi, 0, state.size() >> s);
    }
  }
}

State SimProgram::run(std::span<const double> theta, State initial,
                      std::size_t workers) const {
  apply_inplace(initial, theta, workers);
  return initial;
}

State SimProgram::run_from_plus(std::span<const double> theta,
                                std::size_t workers) const {
  return run(theta, plus_state(num_qubits_), workers);
}

const State& SimProgram::replay_from_plus(std::span<const double> theta,
                                          std::size_t workers) const {
  static thread_local State scratch;
  const std::size_t dim = std::size_t{1} << num_qubits_;
  if (scratch.capacity() > dim * 4) {
    State released;
    scratch.swap(released);
  }
  const double amp = 1.0 / std::sqrt(static_cast<double>(dim));
  scratch.assign(dim, cplx{amp, 0.0});
  apply_inplace(scratch, theta, workers);
  return scratch;
}

}  // namespace qarch::sim

#include "qaoa/energy.hpp"

#include <cstring>
#include <list>
#include <set>
#include <string>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "qtensor/program.hpp"
#include "qtensor/shape.hpp"
#include "sim/simd.hpp"
#include "sim/state_utils.hpp"

namespace qarch::qaoa {

namespace {

/// Statevector plan: the ansatz is compiled once into a SimProgram
/// (specialized kernels, fused gates, cached matrices, phase tables shared
/// through the evaluator's PhaseTableCache); every energy(theta)
/// replays it and reads <C> off the final state as one serial dot product
/// with the evaluator's cost diagonal `diag`. `inner_workers` drives the gate
/// kernels and the batched <ZZ> sweep behind zz_expectations(); energy()
/// falls back to that sweep when `diag` is empty (above the table guard).
class StatevectorPlan final : public EnergyPlan {
 public:
  StatevectorPlan(const circuit::Circuit& ansatz, const MaxCutHamiltonian& ham,
                  std::span<const double> diag, const EnergyOptions& options,
                  sim::PhaseTableCache* tables)
      : ham_(ham),
        diag_(diag),
        options_(options),
        program_(ansatz, options_.sv_plan, tables) {
    pairs_.reserve(ham_.terms().size());
    for (const auto& t : ham_.terms()) pairs_.push_back({t.u, t.v});
  }

  double energy(std::span<const double> theta) const override {
    const sim::State& state = run_state(theta);
    if (!diag_.empty()) {
      // constant + sum_x |a_x|^2 (C(x) - constant): Hamiltonian::energy's
      // sum regrouped by basis state. The constant is C's mean over x, so
      // the partial sums stay small and round less than the raw sum of
      // |a_x|^2 C(x); that noise would otherwise keep COBYLA probing longer
      // near its final trust radius.
      const double c = ham_.constant();
      return c + sim::simd::diag_expectation(state.data(), diag_.data(), c,
                                             state.size());
    }
    // One state computation serves both the ZZ sweep and the Z fields.
    return ham_.energy(zz_from_state(state), z_from_state(state));
  }

  std::vector<double> zz_expectations(
      std::span<const double> theta) const override {
    return zz_from_state(run_state(theta));
  }

  std::vector<double> z_expectations(
      std::span<const double> theta) const override {
    return z_from_state(run_state(theta));
  }

  const sim::State* state(std::span<const double> theta) const override {
    return &run_state(theta);
  }

 private:
  /// The final state in this thread's replay buffer: repeated
  /// energy(theta) calls (hundreds per training run) reuse one allocation,
  /// and concurrent search workers each get their own — no locks anywhere
  /// on the evaluation path.
  const sim::State& run_state(std::span<const double> theta) const {
    return program_.replay_from_plus(theta, options_.inner_workers);
  }

  std::vector<double> zz_from_state(const sim::State& state) const {
    return sim::batched_expectation_zz(
        state, pairs_, options_.inner_workers,
        options_.sv_plan.parallel_threshold_qubits);
  }

  std::vector<double> z_from_state(const sim::State& state) const {
    const auto& zs = ham_.z_terms();
    std::vector<double> z(zs.size());
    for (std::size_t k = 0; k < zs.size(); ++k)
      z[k] = sim::expectation_z(state, zs[k].q);
    return z;
  }

  const MaxCutHamiltonian& ham_;
  std::span<const double> diag_;  ///< the evaluator's C(x), or empty
  EnergyOptions options_;
  sim::SimProgram program_;
  std::vector<sim::ZZPair> pairs_;
};

/// Tensor-network plan: each edge's lightcone contraction is compiled ONCE
/// into a qtensor::ContractionProgram — network built once, order planned
/// once, slicing decided once, intermediate buffers preallocated — and
/// every energy(theta) only rebinds the handful of parameterized gate
/// tensors and replays. The qtensor mirror of the compiled statevector path
/// (sim::SimProgram).
///
/// Per-edge replays fan out over parallel::parallel_for (inner_workers);
/// each program leases per-thread scratch from its internal pool, so a
/// shared plan runs lock-free on the contraction hot path.
class TensorNetworkPlan final : public EnergyPlan {
 public:
  TensorNetworkPlan(circuit::Circuit ansatz, const MaxCutHamiltonian& ham,
                    const EnergyOptions& options)
      : ansatz_(std::move(ansatz)), ham_(ham), options_(options) {
    qtensor::check_backend_spec(options_.qtensor.backend);
    // Shape deduplication: group terms whose lightcones are isomorphic and
    // compile ONE program per group. The canonical shape key buckets
    // candidates cheaply; an exact isomorphism check against the group's
    // representative guards against key collisions, so members of one group
    // have literally equal <Z_u Z_v> for every theta.
    const auto& terms = ham_.terms();
    term_group_.resize(terms.size());
    std::unordered_map<std::string, std::vector<std::size_t>> by_key;
    for (std::size_t k = 0; k < terms.size(); ++k) {
      const auto shape =
          qtensor::lightcone_shape(ansatz_, terms[k].u, terms[k].v);
      std::size_t gid = groups_.size();
      for (std::size_t cand : by_key[shape.key]) {
        const auto& rep = terms[groups_[cand].rep_term];
        if (qtensor::lightcone_equivalent(ansatz_, rep.u, rep.v, terms[k].u,
                                          terms[k].v)) {
          gid = cand;
          break;
        }
      }
      if (gid == groups_.size()) {
        groups_.push_back({k, shape.key});
        by_key[shape.key].push_back(gid);
      }
      term_group_[k] = gid;
    }

    // Compile the group representatives — speculatively parallel across
    // groups; with a single group the planner itself fans its heuristic
    // competitors across the inner workers instead.
    qtensor::ProgramOptions po = options_.qtensor.program_options();
    if (groups_.size() == 1 && po.planner.workers <= 1)
      po.planner.workers = std::max<std::size_t>(1, options_.inner_workers);
    programs_.resize(groups_.size());
    parallel::parallel_for(
        0, groups_.size(),
        [&](std::size_t g) {
          qtensor::ProgramOptions local = po;
          local.shape_key = groups_[g].key;
          const auto& rep = terms[groups_[g].rep_term];
          programs_[g] = std::make_unique<qtensor::ContractionProgram>(
              ansatz_, rep.u, rep.v, local);
        },
        options_.inner_workers);
    // Field terms compile one single-qubit <Z_q> program each; the shared
    // plan cache dedups the planning across equal lightcone structures.
    const auto& zs = ham_.z_terms();
    z_programs_.resize(zs.size());
    parallel::parallel_for(
        0, zs.size(),
        [&](std::size_t k) {
          z_programs_[k] = std::make_unique<qtensor::ContractionProgram>(
              ansatz_, zs[k].q, options_.qtensor.program_options());
        },
        options_.inner_workers);
  }

  double energy(std::span<const double> theta) const override {
    return ham_.energy(zz_expectations(theta), z_expectations(theta));
  }

  std::vector<double> zz_expectations(
      std::span<const double> theta) const override {
    // One replay per GROUP, broadcast to every member edge — symmetric
    // edges share both the compilation and the runtime contraction.
    const auto& terms = ham_.terms();
    std::vector<double> group_value(programs_.size());
    parallel::parallel_for(
        0, programs_.size(),
        [&](std::size_t g) {
          group_value[g] = programs_[g]->expectation_zz(theta);
        },
        options_.inner_workers);
    std::vector<double> zz(terms.size());
    for (std::size_t k = 0; k < terms.size(); ++k)
      zz[k] = group_value[term_group_[k]];
    return zz;
  }

  std::vector<double> z_expectations(
      std::span<const double> theta) const override {
    std::vector<double> z(z_programs_.size());
    if (z.empty()) return z;
    parallel::parallel_for(
        0, z_programs_.size(),
        [&](std::size_t k) {
          z[k] = z_programs_[k]->expectation_zz(theta);
        },
        options_.inner_workers);
    return z;
  }

  EnergyPlanInfo info() const override {
    EnergyPlanInfo i;
    i.terms = ham_.terms().size();
    i.compiled_programs = programs_.size() + z_programs_.size();
    std::set<std::string> keys;
    for (const ShapeGroup& g : groups_) keys.insert(g.key);
    i.distinct_shapes = keys.size();
    return i;
  }

 private:
  /// One lightcone-shape equivalence class of Hamiltonian terms.
  struct ShapeGroup {
    std::size_t rep_term = 0;  ///< index of the compiled representative
    std::string key;           ///< canonical lightcone shape key
  };

  circuit::Circuit ansatz_;
  const MaxCutHamiltonian& ham_;
  EnergyOptions options_;
  /// One program per shape group, aligned with groups_, plus one
  /// single-qubit program per field term.
  std::vector<std::unique_ptr<qtensor::ContractionProgram>> programs_;
  std::vector<std::unique_ptr<qtensor::ContractionProgram>> z_programs_;
  std::vector<ShapeGroup> groups_;
  std::vector<std::size_t> term_group_;  ///< term index -> group index
};

/// Bit-exact structural key for one circuit: gate kinds, qubit wiring, and
/// parameter expressions (double payloads byte-copied, so -0.0 vs 0.0 and
/// NaN patterns never alias). Two circuits with equal fingerprints compile
/// to identical programs.
std::string circuit_fingerprint(const circuit::Circuit& c) {
  std::string key;
  key.reserve(16 + c.num_gates() * 32);
  const auto put = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t head[2] = {c.num_qubits(), c.num_params()};
  put(head, sizeof(head));
  for (const circuit::Gate& g : c.gates()) {
    const std::uint64_t ids[4] = {static_cast<std::uint64_t>(g.kind), g.q0,
                                  g.q1,
                                  static_cast<std::uint64_t>(g.param.kind)};
    put(ids, sizeof(ids));
    const double vals[2] = {g.param.constant, g.param.scale};
    put(vals, sizeof(vals));
    const std::uint64_t idx = g.param.index;
    put(&idx, sizeof(idx));
  }
  return key;
}

/// C(x) for every basis state, filled term by term in Hamiltonian order —
/// the constant, then ±c per ZZ term, then ±c per Z term — so every entry
/// equals Hamiltonian::classical_value_bits(x) bit for bit (each add is an
/// exact ±c).
std::vector<double> build_cost_diagonal(const Hamiltonian& ham) {
  const std::size_t dim = std::size_t{1} << ham.num_qubits();
  std::vector<double> diag(dim, ham.constant());
  for (const ZZTerm& t : ham.terms()) {
    const double pm[2] = {t.coefficient, -t.coefficient};
    for (std::size_t x = 0; x < dim; ++x)
      diag[x] += pm[((x >> t.u) ^ (x >> t.v)) & 1];
  }
  for (const ZTerm& t : ham.z_terms()) {
    const double pm[2] = {t.coefficient, -t.coefficient};
    for (std::size_t x = 0; x < dim; ++x) diag[x] += pm[(x >> t.q) & 1];
  }
  return diag;
}

}  // namespace

/// LRU map fingerprint → shared plan. Locked only in plan_for(), i.e. once
/// per (candidate, training run) — never per energy(theta) call.
struct EnergyEvaluator::PlanCache {
  Mutex mutex{50, "cache.energyplans"};
  std::list<std::pair<std::string, std::shared_ptr<const EnergyPlan>>> order
      QARCH_GUARDED_BY(mutex);
  std::unordered_map<std::string, decltype(order)::iterator> by_key
      QARCH_GUARDED_BY(mutex);
};

EnergyEvaluator::EnergyEvaluator(const graph::Graph& g, EnergyOptions options)
    : EnergyEvaluator(Hamiltonian(g), std::move(options)) {}

EnergyEvaluator::EnergyEvaluator(Hamiltonian ham, EnergyOptions options)
    : ham_(std::move(ham)),
      options_(std::move(options)),
      cache_(std::make_unique<PlanCache>()) {
  if (ham_.num_qubits() > options_.sv_plan.phase_table_max_qubits) return;
  tables_ = std::make_unique<sim::PhaseTableCache>();
  if (options_.engine == EngineKind::Statevector)
    diag_ = build_cost_diagonal(ham_);
}

EnergyEvaluator::~EnergyEvaluator() = default;

std::unique_ptr<EnergyPlan> EnergyEvaluator::make_plan(
    const circuit::Circuit& ansatz) const {
  QARCH_REQUIRE(ansatz.num_qubits() == ham_.num_qubits(),
                "ansatz/Hamiltonian qubit mismatch");
  if (options_.engine == EngineKind::Statevector)
    return std::make_unique<StatevectorPlan>(ansatz, ham_, cost_diagonal(),
                                             options_, phase_tables());
  return std::make_unique<TensorNetworkPlan>(ansatz, ham_, options_);
}

std::shared_ptr<const EnergyPlan> EnergyEvaluator::plan_for(
    const circuit::Circuit& ansatz) const {
  if (options_.plan_cache_capacity == 0) return make_plan(ansatz);
  const std::string key = circuit_fingerprint(ansatz);
  {
    LockGuard lock(cache_->mutex);
    const auto it = cache_->by_key.find(key);
    if (it != cache_->by_key.end()) {
      cache_->order.splice(cache_->order.begin(), cache_->order, it->second);
      return it->second->second;
    }
  }
  // Compile outside the lock so concurrent workers never serialize on each
  // other's compilations; a racing duplicate is possible but harmless (one
  // of the two plans simply wins the cache slot).
  std::shared_ptr<const EnergyPlan> plan = make_plan(ansatz);
  LockGuard lock(cache_->mutex);
  const auto it = cache_->by_key.find(key);
  if (it != cache_->by_key.end()) return it->second->second;
  cache_->order.emplace_front(key, plan);
  cache_->by_key.emplace(key, cache_->order.begin());
  while (cache_->order.size() > options_.plan_cache_capacity) {
    cache_->by_key.erase(cache_->order.back().first);
    cache_->order.pop_back();
  }
  return plan;
}

double EnergyEvaluator::energy(const circuit::Circuit& ansatz,
                               std::span<const double> theta) const {
  return plan_for(ansatz)->energy(theta);
}

std::vector<double> EnergyEvaluator::zz_expectations(
    const circuit::Circuit& ansatz, std::span<const double> theta) const {
  return plan_for(ansatz)->zz_expectations(theta);
}

}  // namespace qarch::qaoa

// SessionConfig: the single front-end configuration facade of the library.
//
// Callers used to thread four overlapping option structs — qaoa::EnergyOptions,
// sim::PlanOptions, qtensor::QTensorOptions, and search::EvaluatorOptions — to
// reach the compiled-plan fast paths, each wired slightly differently by every
// driver. SessionConfig owns the backend / optimizer / budget knobs in ONE
// place and derives the fully reconciled per-engine option structs from them:
//
//   SessionConfig cfg;                 // top-level knobs only
//   cfg.backend = BackendChoice::Auto; // per-candidate engine selection
//   cfg.workers = 8;                   // service worker pool width
//   cfg.training_evals = 200;          // COBYLA budget per candidate
//   search::EvalService service(cfg);  // every search driver is a client
//
// `evaluator_options()` / `energy_options()` are the only reconciliation
// points: they absorb the old EvaluatorOptions::effective_energy() contract
// (evaluator-level pre-simplification wins over the plan-level toggle) so the
// four structs can never silently diverge again. Deep engine toggles
// (sv_plan.*, qtensor.*, restart jitter) remain reachable through `base`.
#pragma once

#include <cstddef>
#include <string>

#include "search/evaluator.hpp"

namespace qarch {

/// Which simulation engine evaluates candidates. Unlike qaoa::EngineKind this
/// includes Auto: the evaluation service picks statevector vs tensor-network
/// PER CANDIDATE from the qubit count and an edge-lightcone size estimate
/// (see search::auto_engine_choice).
enum class BackendChoice { Statevector, TensorNetwork, Auto };

/// Parses "sv"/"statevector", "tn"/"qtensor"/"tensor-network", "auto".
BackendChoice backend_from_name(const std::string& name);

/// Canonical short name: "sv", "tn", or "auto".
std::string backend_name(BackendChoice backend);

/// The one configuration struct every search driver and example wires.
struct SessionConfig {
  // -- backend selection -----------------------------------------------------
  BackendChoice backend = BackendChoice::Auto;
  /// Auto: instances with at most this many qubits always run on the
  /// statevector engine (2^n is small; README documents the crossover n≈14).
  std::size_t auto_statevector_qubits = 14;
  /// Auto: above the qubit cutoff, the tensor-network engine is chosen when
  /// the widest edge-lightcone touches at most this many qubits (contraction
  /// cost scales with lightcone width, not with n); otherwise statevector.
  std::size_t auto_lightcone_qubits = 12;

  // -- parallelism (the paper's two-level scheme) ----------------------------
  // Fig. 2 of the paper splits work across nodes of Polaris (one graph or
  // search job per node) and, within a node, across CPUs (one candidate
  // circuit per process), with the simulator optionally on a GPU. On one
  // machine the same structure is two nested thread groups, so a core
  // budget C splits as workers × inner_workers = C (bench/abl_two_level
  // sweeps the split; fig4/fig5 time it).
  /// Outer level: evaluation-service worker threads running whole candidates
  /// concurrently (0 = hardware concurrency).
  std::size_t workers = 1;
  /// Inner level: threads inside one energy(theta) call — statevector
  /// replay kernels, or concurrent per-edge contractions.
  std::size_t inner_workers = 1;

  // -- training budget -------------------------------------------------------
  std::size_t training_evals = 200;  ///< COBYLA objective calls per candidate
  std::size_t restarts = 1;          ///< multistart splits of that budget
  bool simplify_circuit = true;      ///< peephole-optimize each candidate

  // -- Eq. 3 sampled scoring -------------------------------------------------
  std::size_t shots = 128;           ///< samples per <C_max> batch
  std::size_t sample_trials = 8;     ///< batches averaged for <C_max>

  // -- objective / Hamiltonian (src/query generalized objectives) ------------
  /// Training objective: exact <C> (default), CVaR-α over sampled values, or
  /// best-of-shots. Non-default objectives train on draws from a compiled
  /// query::Sampler on the candidate's engine. Per-job overridable through
  /// search::JobOptions::objective.
  qaoa::ObjectiveSpec objective;
  /// Cost Hamiltonian: MaxCut (default), MIS with quadratic penalty, or an
  /// Ising objective. Per-job overridable through
  /// search::JobOptions::hamiltonian.
  qaoa::HamiltonianSpec hamiltonian;

  // -- evaluation-service caches ---------------------------------------------
  /// Capacity of the service's (graph, engine, budget) → Evaluator LRU.
  std::size_t evaluator_cache = 16;
  /// Capacity of the candidate-result cache keyed by (graph fingerprint,
  /// mixer encoding, p, budget); duplicate proposals return the cached
  /// CandidateResult instead of retraining. 0 disables result caching.
  std::size_t result_cache = 4096;
  /// On-disk home of the candidate-result cache (JSON). When non-empty the
  /// service loads it at construction — repeated fig8/fig9 or dataset runs
  /// warm-start instead of retraining identical candidates — and rewrites it
  /// atomically at shutdown. Corrupt, missing, or stale files (older cache
  /// code version) are ignored, never fatal. Empty disables persistence.
  std::string cache_path;
  /// Write the (possibly grown) result cache back to cache_path when the
  /// service shuts down. false = read-only warm start: load but never touch
  /// the file (useful for concurrent processes sharing one cache).
  bool cache_write = true;
  /// On-disk home of the qtensor contraction-plan cache (JSON): planned
  /// elimination orders keyed by (lightcone shape, network structure hash).
  /// When non-empty the service loads it at construction — a warm run
  /// compiles its programs with ZERO planner invocations — and rewrites it
  /// atomically at shutdown (gated by `cache_write`, like the result
  /// cache). Corrupt/missing/stale files are ignored. Orthogonal to
  /// cache_path: the result cache skips retraining identical CANDIDATES,
  /// the plan cache skips re-planning identical lightcone SHAPES, which
  /// pays off even when every candidate is new. Empty disables persistence
  /// (in-process plan sharing stays on).
  std::string plan_cache_path;
  /// When > 0 and `cache_path` is set, the service RE-READS the result
  /// cache file at most every this-many seconds (checked at submit time)
  /// and merges entries it does not already hold — cross-pollination
  /// between concurrent processes sharing one cache file, without waiting
  /// for either to restart. Entries this process already computed always
  /// win over disk state. 0 keeps the constructor-only load.
  double cache_refresh_seconds = 0.0;

  // -- robustness: preemption, checkpoints, retries --------------------------
  /// Preemption quantum for running evaluations, in service-clock seconds.
  /// When > 0 a training run that has held its worker this long is parked at
  /// the optimizer's next safe point — checkpoint captured, worker freed,
  /// job requeued with its fair-share deficit preserved — whenever another
  /// client has queued work. 0 disables parking (jobs run to completion).
  double preempt_quantum_seconds = 0.0;
  /// Checkpoint cadence in objective evaluations: when > 0, a running job
  /// snapshots its optimizer state every this-many training evals (and
  /// persists it when `checkpoint_path` is set). Eval-count based, so the
  /// cadence is deterministic across machines. 0 disables mid-run
  /// checkpointing (park/drain still checkpoint at the parking point).
  std::size_t checkpoint_evals = 0;
  /// On-disk home of in-flight training checkpoints (JSON, atomic rewrite,
  /// version-gated and corruption-tolerant like the result cache). With a
  /// path set, a killed process restarted on the same paths resumes every
  /// checkpointed candidate mid-training instead of from step 0, and
  /// completed results are flushed to `cache_path` as they finish rather
  /// than only at shutdown. Empty disables checkpoint persistence.
  std::string checkpoint_path;
  /// Default bounded retry budget for failed evaluations (overridable per
  /// job via JobOptions::max_retries). 0 = fail fast.
  int eval_retries = 0;
  /// Base delay of the exponential retry backoff: attempt k reruns after
  /// retry_backoff_seconds * 2^(k-1).
  double retry_backoff_seconds = 0.05;

  // -- qarchd network front-end ----------------------------------------------
  // Defaults applied by server::QarchServer to every tenant that does not
  // override them in its TenantSpec, plus the daemon's wire limits. They live
  // here so one SessionConfig fully describes a deployment (evaluation
  // semantics AND serving posture) and persists/compares as one unit.
  /// Connection-handling threads of the daemon (each serves one request at a
  /// time; long-polls occupy a thread for their wait).
  std::size_t server_io_threads = 8;
  /// Largest accepted request body; bigger submits are rejected 413 before
  /// the JSON parser ever sees them.
  std::size_t server_max_body_bytes = 1 << 20;
  /// Cap on the ?wait_ms= long-poll: a client asking for more waits this
  /// long and polls again (bounds how long a connection can pin an IO
  /// thread).
  double server_max_wait_seconds = 30.0;
  /// Default tenant token-bucket refill rate in requests/second
  /// (0 = no refill: tenants spend their burst and are then rejected 429).
  double server_rate = 0.0;
  /// Default tenant bucket capacity; 0 disables rate limiting entirely for
  /// tenants that do not set their own burst.
  double server_burst = 0.0;
  /// Default per-tenant quota of outstanding (unresolved) tickets; a tenant
  /// at its quota gets 429 on submit until results resolve. 0 = unlimited.
  std::size_t server_max_inflight = 0;

  // -- escape hatch ----------------------------------------------------------
  /// Deep engine toggles (sv_plan.*, qtensor.*, optimizer details, restart
  /// jitter) start from this base; the named knobs above override the
  /// corresponding fields in evaluator_options().
  search::EvaluatorOptions base;

  /// The fully wired EvaluatorOptions for one resolved engine. `training`
  /// overrides `training_evals` when non-zero (successive halving varies the
  /// budget per round through the same reconciliation).
  [[nodiscard]] search::EvaluatorOptions evaluator_options(
      qaoa::EngineKind engine, std::size_t training = 0) const;

  /// The reconciled EnergyOptions the engine actually simulates with — the
  /// session-level home of the old EvaluatorOptions::effective_energy()
  /// contract (pre-simplified candidates must not re-run circuit::optimize
  /// inside the compiled statevector plan).
  [[nodiscard]] qaoa::EnergyOptions energy_options(
      qaoa::EngineKind engine) const;
};

}  // namespace qarch

// EvalService: the asynchronous candidate-evaluation service every search
// driver is a client of.
//
// The paper's scalability story (Fig. 3's parallel search over a process
// pool) is the outer level of its two-level scheme. EvalService is this
// repository's only outer level: every search driver (SearchEngine,
// successive halving, the dataset search), qarchd, and every figure harness
// submits candidates through ONE shared, thread-safe submit/future surface:
//
//   EvalService service(session);                 // one pool, shared caches
//   EvalTicket t = service.submit(g, mixer, p);   // enqueue, don't block
//   ...                                           // submit more, any thread
//   const CandidateResult& r = t.wait();          // collect when needed
//
// Behind the front-end sit
//   * one parallel::ThreadPool (`session.workers` wide) running candidates,
//     each evaluation using `session.inner_workers` simulator threads;
//   * one search::Scheduler (scheduler.hpp), the service's whole scheduling
//     policy: weighted fair-share queues (register_client) served by
//     deficit round robin in training_evals units, JobOptions::priority
//     inside one client's queue, retry backoff, and the park / checkpoint /
//     expire verdicts of a running slice. Unregistered submissions share
//     the default weight-1 queue, which is plain FIFO;
//   * a cross-graph LRU of search::Evaluator instances keyed by
//     (graph fingerprint, engine, budget), so concurrent searches over one
//     graph share an evaluator and its compiled-plan cache;
//   * a candidate-result cache keyed by (graph fingerprint, mixer, p,
//     budget): duplicates return the cached CandidateResult, and concurrent
//     duplicates attach to the one in-flight run. With
//     SessionConfig::cache_path it warm-starts from disk and is rewritten
//     at shutdown, gated by engine and by the cache code version;
//   * a shared qtensor::PlanCache of contraction orders, persisted with
//     SessionConfig::plan_cache_path;
//   * the BackendChoice::Auto engine decision (auto_engine_choice below);
//   * cooperative preemption and fault tolerance: with
//     SessionConfig::preempt_quantum_seconds a run that held its worker for
//     a quantum parks at the optimizer's next safe point while another
//     client waits, and later resumes bit-identically from its checkpoint;
//     checkpoint_evals / checkpoint_path bank and persist checkpoints, so a
//     killed process resumes mid-training; JobOptions adds deadlines and
//     bounded retries; drain() parks everything for a graceful shutdown.
//
// src/search/README.md has the full job lifecycle and cache semantics.
//
// Tickets carry service-side timestamps (submit / start / finish on the
// service clock), so drivers report queue-wait and evaluation latency without
// re-implementing timing.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "qaoa/mixer.hpp"
#include "search/evaluator.hpp"
#include "session.hpp"

namespace qarch::search {

namespace detail {
struct EvalJob;
struct ServiceState;
struct TicketHandle;
}  // namespace detail

/// Structural identity of a graph (vertex count + exact edge list with
/// weights, byte-exact). Two graphs with equal fingerprints share Evaluator
/// instances and cached candidate results inside the service.
std::string graph_fingerprint(const graph::Graph& g);

/// The BackendChoice::Auto decision rule, exposed for tests and benches:
/// statevector when the instance is small (2^n cheap), otherwise
/// tensor-network iff the widest edge-lightcone of the candidate's ansatz
/// touches few enough qubits for the contraction to stay narrow.
qaoa::EngineKind auto_engine_choice(const SessionConfig& config,
                                    const graph::Graph& g,
                                    const qaoa::MixerSpec& mixer,
                                    std::size_t p);

/// Per-job overrides applied on top of the service's SessionConfig.
struct JobOptions {
  /// COBYLA budget for this job (0 = the session's training_evals).
  /// Successive halving submits the same candidates at growing budgets.
  std::size_t training_evals = 0;
  /// Fair-share queue this job belongs to (EvalClient::id()). 0 — or a
  /// client that has since unregistered — lands in the default weight-1
  /// queue shared by every anonymous submission.
  std::size_t client = 0;
  /// Ordering INSIDE the client's queue: higher runs first, FIFO among
  /// equals (cross-client fairness is the scheduler's job, not this
  /// knob's).
  int priority = 0;
  /// Wall-clock budget from SUBMISSION, in service-clock seconds. Past it
  /// the job resolves Expired — whether still queued (wait_for expires it)
  /// or mid-run (the preemption token aborts the slice). 0 = no deadline.
  double deadline_seconds = 0.0;
  /// Wall-clock budget for the EVALUATION itself (summed across preemption
  /// slices, excluding queue wait). 0 = unbounded.
  double max_eval_seconds = 0.0;
  /// Bounded retry budget for failed evaluations; attempt k reruns after
  /// retry_backoff × 2^(k−1). −1 = the session's eval_retries default.
  int max_retries = -1;
  /// Base backoff delay in seconds; −1 = the session's
  /// retry_backoff_seconds default.
  double retry_backoff_seconds = -1.0;
  /// Training objective for this job (nullopt = the session's objective).
  /// Part of candidate identity: jobs with different objectives never share
  /// cache entries, in-flight runs, or checkpoints — the default spec keeps
  /// the pre-objective key format byte-identical.
  std::optional<qaoa::ObjectiveSpec> objective;
  /// Cost Hamiltonian for this job (nullopt = the session's hamiltonian).
  /// Part of candidate identity like `objective`.
  std::optional<qaoa::HamiltonianSpec> hamiltonian;
};

/// RAII registration of one fair-share scheduler queue. Move-only; the queue
/// unregisters when the handle is destroyed (jobs already queued under it
/// still run, then the queue is reclaimed). Obtained from
/// EvalService::register_client.
class EvalClient {
 public:
  EvalClient() = default;
  ~EvalClient();
  EvalClient(EvalClient&& other) noexcept;
  EvalClient& operator=(EvalClient&& other) noexcept;
  EvalClient(const EvalClient&) = delete;
  EvalClient& operator=(const EvalClient&) = delete;

  /// The id to put in JobOptions::client. 0 for a default-constructed
  /// (unregistered) handle — submissions then use the default queue.
  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  friend class EvalService;
  EvalClient(std::shared_ptr<detail::ServiceState> state, std::size_t id)
      : state_(std::move(state)), id_(id) {}

  std::shared_ptr<detail::ServiceState> state_;
  std::size_t id_ = 0;
};

/// Future-like handle for one submitted candidate evaluation.
///
/// Copyable and cheap; all copies refer to the same submission. A ticket
/// whose candidate was already in flight (submitted concurrently by another
/// client) or already cached resolves from the shared evaluation — see
/// cache_hit().
class EvalTicket {
 public:
  EvalTicket() = default;

  /// False for a default-constructed ticket.
  [[nodiscard]] bool valid() const { return handle_ != nullptr; }

  /// Blocks until the evaluation finished and returns its result. Throws
  /// Error if this ticket was cancelled, the evaluation failed, or the
  /// job's deadline expired.
  const CandidateResult& wait() const;

  /// Bounded wait: blocks at most `timeout_seconds` (negative = forever).
  /// Returns the result once resolved, or nullptr when the timeout passed
  /// with the job still queued/running. Throws like wait() on cancellation,
  /// failure, or deadline expiry. Deadlines are enforced from the waiter
  /// side too: a job whose deadline passes while it is still QUEUED is
  /// expired here rather than left hanging behind a flooded queue.
  const CandidateResult* wait_for(double timeout_seconds) const;

  /// Non-blocking: true once wait() would not block (done, failed,
  /// expired, or cancelled).
  [[nodiscard]] bool ready() const;

  /// Cancels a still-queued evaluation. Returns true when this ticket is now
  /// cancelled (wait() will throw); false when the evaluation already
  /// started or finished. The underlying job is only withdrawn from the
  /// queue once every ticket attached to it cancelled.
  bool cancel();

  /// True when cancel() succeeded on this ticket.
  [[nodiscard]] bool cancelled() const;

  /// True when the job resolved by blowing its JobOptions::deadline_seconds
  /// budget (wait() on such a ticket throws).
  [[nodiscard]] bool expired() const;

  /// True when the result came from the service's candidate cache or an
  /// in-flight duplicate rather than a fresh evaluation of this submission.
  [[nodiscard]] bool cache_hit() const;

  /// Service-clock timestamps in seconds (monotonic, 0 = service creation).
  [[nodiscard]] double submitted_at() const;
  [[nodiscard]] double finished_at() const;

 private:
  friend class EvalService;
  explicit EvalTicket(std::shared_ptr<detail::TicketHandle> handle)
      : handle_(std::move(handle)) {}

  std::shared_ptr<detail::TicketHandle> handle_;
};

/// The shared evaluation service. Thread-safe: any number of client threads
/// may submit and wait concurrently; one instance is meant to be shared by
/// every concurrent search of a process.
class EvalService {
 public:
  explicit EvalService(SessionConfig config = {});
  ~EvalService();

  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Enqueues one (graph, mixer, p) candidate evaluation.
  EvalTicket submit(const graph::Graph& g, const qaoa::MixerSpec& mixer,
                    std::size_t p, const JobOptions& options = {});

  /// Enqueues one evaluation per mixer; tickets align with `mixers`.
  std::vector<EvalTicket> submit_batch(
      const graph::Graph& g, const std::vector<qaoa::MixerSpec>& mixers,
      std::size_t p, const JobOptions& options = {});

  /// Blocks until every ticket resolved; results in ticket order. Tickets
  /// that were CANCELLED or DEADLINE-EXPIRED are skipped (the surviving
  /// results still come back in ticket order), so one withdrawn or expired
  /// submission does not discard a whole batch. Evaluation FAILURES still
  /// throw.
  std::vector<CandidateResult> collect(
      const std::vector<EvalTicket>& tickets) const;

  /// Bounded collect: one overall deadline shared by the whole batch
  /// (negative = forever). Tickets still unresolved when it passes are
  /// skipped, like cancelled ones.
  std::vector<CandidateResult> collect(const std::vector<EvalTicket>& tickets,
                                       double timeout_seconds) const;

  /// Registers a weighted fair-share queue. Workers serve queues by
  /// deficit-weighted round robin with training_evals as the cost unit: over
  /// time each busy client receives compute proportional to its weight.
  /// `name` is for diagnostics only; `weight` must be in [0.001, 1000] (the
  /// lower bound caps the scheduler's per-dispatch rotation count).
  EvalClient register_client(const std::string& name, double weight = 1.0);

  /// Service-lifetime accounting (monotonic counters).
  struct Stats {
    std::size_t submitted = 0;          ///< submit() calls accepted
    std::size_t completed = 0;          ///< evaluations run to completion
    std::size_t cancelled = 0;          ///< jobs withdrawn before running
    std::size_t failed = 0;             ///< evaluations that threw
    std::size_t cache_hits = 0;         ///< submissions served without a run
    std::size_t cache_misses = 0;       ///< submissions that scheduled a run
    std::size_t picked_statevector = 0;    ///< per-run resolved engine counts
    std::size_t picked_tensornetwork = 0;  ///< (Auto decision accounting)
    std::size_t evaluators_built = 0;   ///< Evaluator LRU misses
    std::size_t cache_loaded = 0;       ///< results warm-started from disk
    std::size_t plans_loaded = 0;       ///< contraction plans loaded from disk
    std::size_t clients_registered = 0; ///< register_client() calls
    std::size_t parked = 0;             ///< preemptions: job checkpointed,
                                        ///< worker freed, job requeued
    std::size_t resumed = 0;            ///< dispatches that continued from a
                                        ///< checkpoint instead of step 0
    std::size_t retried = 0;            ///< failed evaluations rescheduled
                                        ///< with backoff
    std::size_t deadline_expired = 0;   ///< jobs resolved past their deadline
    std::size_t checkpoints_loaded = 0; ///< in-flight checkpoints warm-started
                                        ///< from checkpoint_path
    std::size_t checkpoints_discarded = 0;  ///< checkpoints dropped (engine
                                            ///< mismatch on resume)
    std::size_t cache_refreshes = 0;    ///< timed result-cache file re-reads
                                        ///< (cache_refresh_seconds)
  };
  [[nodiscard]] Stats stats() const;

  /// Live view of one fair-share queue, for monitoring front-ends
  /// (qarchd's /v1/stats reports these per tenant).
  struct ClientInfo {
    std::size_t id = 0;        ///< EvalClient::id(), 0 = the default queue
    std::string name;          ///< register_client() diagnostic name
    double weight = 1.0;
    std::size_t queued = 0;    ///< jobs waiting in this queue right now
  };

  /// Snapshot of every registered (and the default) queue. Order: default
  /// queue first, then registration order is not guaranteed — sort by id.
  [[nodiscard]] std::vector<ClientInfo> clients() const;

  /// Jobs submitted but not yet terminally resolved: queued, running, or
  /// sleeping in a retry backoff. Cache hits never count. A monitoring
  /// probe, not a synchronization primitive.
  [[nodiscard]] std::size_t pending() const;

  /// Graceful preemption of the whole service: stops dispatching, parks every
  /// running evaluation at its next safe point (checkpoint captured, worker
  /// freed), cancels what is still queued, then persists checkpoints and
  /// caches via save_cache(). Waits at most `timeout_seconds` for running
  /// slices to reach a safe point. Returns the number of jobs parked. Meant
  /// for signal handlers / shutdown paths: after drain() the service only
  /// serves cache hits — destroy it and build a new one to resume.
  std::size_t drain(double timeout_seconds);

  /// Writes the candidate-result cache to SessionConfig::cache_path (atomic
  /// tmp-file + rename; no-op when the path is empty). Called automatically
  /// at destruction when cache_write is set; exposed for mid-run
  /// checkpointing. Returns the number of entries written.
  std::size_t save_cache() const;

  /// Worker threads in the service pool.
  [[nodiscard]] std::size_t workers() const { return pool_.size(); }

  [[nodiscard]] const SessionConfig& config() const;

  /// Seconds since service creation on the service clock (the time base of
  /// EvalTicket::submitted_at / finished_at).
  [[nodiscard]] double now() const;

 private:
  // state_ is shared with worker tasks and outstanding tickets, so the pool
  // (declared last, destroyed first) can drain safely during destruction and
  // tickets stay valid after the service is gone.
  std::shared_ptr<detail::ServiceState> state_;
  parallel::ThreadPool pool_;
};

}  // namespace qarch::search

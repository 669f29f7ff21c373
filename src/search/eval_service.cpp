#include "search/eval_service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "optim/optimizer.hpp"
#include "search/fault.hpp"
#include "search/report_io.hpp"

namespace qarch::search {

namespace detail {

/// Bumped whenever evaluation semantics change (optimizer, scoring, plan
/// numerics): a persisted result cache written under a different version is
/// ignored wholesale, because its results are no longer reproducible by a
/// fresh run.
constexpr const char* kCacheCodeVersion = "qarch-eval-v7";

/// Version gate of the persisted contraction-plan cache. Independent of the
/// result-cache version: planning decisions stay valid across evaluation-
/// semantics changes (an order is sound for any tensor data), but must be
/// invalidated when the planner's cost model or the network builder's
/// structure changes.
constexpr const char* kPlanCacheCodeVersion = "qarch-plan-v1";

/// Version gate of persisted in-flight checkpoints. Tied to optimizer-state
/// layout (OptimState packing of each optimizer), which can change
/// independently of result semantics.
constexpr const char* kCheckpointCodeVersion = "qarch-ckpt-v1";

class JobToken;

/// One submitted (graph, mixer, p, budget) evaluation. Several tickets may
/// attach to one job (concurrent duplicate submissions); the job runs once.
struct EvalJob {
  enum class Status { Queued, Running, Done, Cancelled, Failed, Expired };

  // Immutable after construction.
  std::string key;            ///< result-cache key
  std::string graph_key;      ///< graph-fingerprint prefix of `key`
  graph::Graph graph;
  qaoa::MixerSpec mixer;
  std::size_t p = 1;
  std::size_t training_evals = 0;  ///< resolved budget (never 0)
  qaoa::ObjectiveSpec objective;       ///< resolved from JobOptions/session
  qaoa::HamiltonianSpec hamiltonian;   ///< resolved from JobOptions/session
  std::shared_ptr<ServiceState> service;

  // Robustness knobs, resolved from JobOptions/SessionConfig at publication
  // and immutable afterwards.
  double deadline_at = 0.0;       ///< service-clock expiry (0 = none)
  double max_eval_seconds = 0.0;  ///< run-time budget across slices (0 = none)
  int max_retries = 0;            ///< failed-evaluation rerun budget
  double retry_backoff = 0.05;    ///< base of the exponential backoff

  // Scheduler coordinates, fixed when the job is published (guarded by the
  // SERVICE mutex like the queues they index into — a cross-object guard the
  // static analysis cannot express, so these carry no QARCH_GUARDED_BY; the
  // runtime lock-order checker and the TSan CI leg cover them).
  std::size_t client_id = 0;  ///< fair-share queue this job sits in
  int priority = 0;           ///< intra-client ordering (higher first)
  std::uint64_t seq = 0;      ///< FIFO tiebreak among equal priorities

  // Preemption / retry bookkeeping, guarded by the SERVICE mutex (the
  // dispatching worker copies the checkpoint in and out under it; between
  // slices nothing else touches these).
  int attempts = 0;               ///< failed attempts so far
  std::size_t evals_done = 0;     ///< training evals banked in `checkpoint`
  double run_seconds = 0.0;       ///< wall time consumed across slices
  optim::OptimState checkpoint;   ///< resume point (fresh() = none)
  std::string checkpoint_engine;  ///< engine that produced it ("sv" / "tn")
  std::shared_ptr<JobToken> token;  ///< live while a slice is running

  // Guarded by `mutex` (tier service.job, rank 40 — see
  // common/lock_order.hpp; the only nesting with the service mutex is
  // service.state -> service.job, e.g. submit()'s done-cache path).
  Mutex mutex{40, "service.job"};
  CondVar cv;
  Status status QARCH_GUARDED_BY(mutex) = Status::Queued;
  std::size_t waiters QARCH_GUARDED_BY(mutex) = 1;  ///< live tickets attached
  CandidateResult result QARCH_GUARDED_BY(mutex);
  std::string error QARCH_GUARDED_BY(mutex);
  // Timing marks: submitted_at is set before publication and immutable
  // afterwards; started_at is written once by the dispatching worker and read
  // only by that worker while the job runs.
  double submitted_at = 0.0;  ///< service-clock seconds
  double started_at = 0.0;
  double finished_at QARCH_GUARDED_BY(mutex) = 0.0;
};

/// Per-submission view of a job: cancellation is a property of the TICKET
/// (this submission no longer wants the result), not of the shared job, and
/// a ticket attached to another client's in-flight job keeps its OWN
/// submission timestamp (the shared job records the original submitter's).
struct TicketHandle {
  std::shared_ptr<EvalJob> job;
  std::atomic<bool> abandoned{false};
  bool hit = false;  ///< served from cache / attached to an in-flight run
  double submitted_at = 0.0;  ///< service-clock time of THIS submission
};

/// Everything the workers and tickets share. Owned jointly by the service,
/// the in-flight worker tasks, and every outstanding job, so destruction
/// order never dangles.
struct ServiceState {
  SessionConfig config;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::atomic<bool> stopping{false};
  /// drain() in progress or finished: dispatch stops (pop_next refuses),
  /// running slices park at their next safe point, retries turn terminal.
  std::atomic<bool> draining{false};
  /// Serializes checkpoint/cache file writes so a slower older snapshot can
  /// never overwrite a newer one. Taken BEFORE `mutex` (writers snapshot
  /// under `mutex` while holding this); never taken while holding `mutex`.
  Mutex io_mutex{20, "service.io"};

  // Shared store of planned contraction orders, injected into every
  // evaluator this service builds (all tensor-network programs of all
  // clients deduplicate planning through it). Internally synchronized —
  // accessed OUTSIDE `mutex`. Loaded from / persisted to
  // config.plan_cache_path when set.
  std::shared_ptr<qtensor::PlanCache> plan_cache =
      std::make_shared<qtensor::PlanCache>();

  Mutex mutex{30, "service.state"};  // guards everything below
  EvalService::Stats stats QARCH_GUARDED_BY(mutex);
  // Result cache: key → result + provenance, LRU-bounded by
  // config.result_cache. graph_fp / training_evals / engine ride along so
  // entries can be persisted without re-parsing the composite key.
  struct CachedResult {
    CandidateResult result;
    std::string graph_fp;
    std::size_t training_evals = 0;
    std::string engine;  ///< resolved engine the run used ("sv" / "tn")
    std::string objective;    ///< ObjectiveSpec::tag(), "" = default
    std::string hamiltonian;  ///< HamiltonianSpec::tag(), "" = default
  };
  std::list<std::pair<std::string, CachedResult>> done_order
      QARCH_GUARDED_BY(mutex);
  std::unordered_map<std::string, decltype(done_order)::iterator> done_by_key
      QARCH_GUARDED_BY(mutex);
  // Persisted entries this service cannot hold in done_order — another
  // engine's results (backend gate), over-capacity leftovers, LRU
  // evictions. Carried so a cache_write shutdown rewrites the WHOLE file
  // instead of destroying warm starts other runs rely on. Deduplicated on
  // insert by (candidate key, engine), so memory tracks the number of
  // DISTINCT persisted candidates, not the eviction churn.
  std::vector<CacheEntry> foreign_entries QARCH_GUARDED_BY(mutex);
  std::unordered_map<std::string, std::size_t> foreign_by_identity
      QARCH_GUARDED_BY(mutex);
  // Stash bound for NEW entries added by LRU eviction: what the file held
  // at load (foreign_floor) plus one result_cache's worth of extras. Keeps
  // rewrite durability for everything that was on disk while capping a long
  // run's memory at O(file + 2 × result_cache) instead of O(evictions).
  std::size_t foreign_floor QARCH_GUARDED_BY(mutex) = 0;
  /// Service-clock time of the last cache_refresh_seconds file re-read
  /// (submit-time cross-pollination between processes sharing cache_path).
  double last_cache_refresh QARCH_GUARDED_BY(mutex) = 0.0;
  // In-flight dedup: key → queued/running job.
  std::unordered_map<std::string, std::weak_ptr<EvalJob>> inflight
      QARCH_GUARDED_BY(mutex);
  // -- fair-share scheduler --------------------------------------------------
  // Every published job waits in its client's queue; pool workers run
  // generic drainer tasks that pick the next job by deficit-weighted round
  // robin over the active (non-empty) queues, with training_evals as the
  // cost unit. Client 0 is the always-present default queue.
  struct ClientQueue {
    std::string name;
    double weight = 1.0;
    double deficit = 0.0;    ///< budget units this queue may spend
    bool closed = false;     ///< handle destroyed; reclaim once drained
    // (−priority, seq) → job: pop order is priority desc, FIFO among equals.
    std::map<std::pair<int, std::uint64_t>, std::shared_ptr<EvalJob>> jobs;
  };
  std::unordered_map<std::size_t, ClientQueue> clients
      QARCH_GUARDED_BY(mutex);
  std::vector<std::size_t> rr_order
      QARCH_GUARDED_BY(mutex);  ///< ids with non-empty queues
  std::size_t rr_cursor QARCH_GUARDED_BY(mutex) = 0;  ///< rr_order position
  bool rr_granted QARCH_GUARDED_BY(mutex) =
      false;  ///< cursor's queue already drew this visit's quantum
  std::uint64_t next_seq QARCH_GUARDED_BY(mutex) = 0;
  // -- preemption / retry / checkpoint state ---------------------------------
  /// Jobs rescheduled with a retry backoff: runnable once now() passes
  /// not_before. pop_next promotes due entries into the fair-share queues
  /// and sleeps on sched_cv for the earliest one when nothing else is
  /// runnable.
  struct DelayedJob {
    double not_before = 0.0;
    std::shared_ptr<EvalJob> job;
  };
  std::vector<DelayedJob> delayed QARCH_GUARDED_BY(mutex);
  CondVar sched_cv;  ///< wakes backoff sleepers (new work, drain, shutdown)
  /// Jobs with a slice currently on a worker; drain() waits on drain_cv for
  /// this to empty.
  std::unordered_set<EvalJob*> running QARCH_GUARDED_BY(mutex);
  CondVar drain_cv;
  /// In-flight training checkpoints by result key: captured at every park /
  /// cadence checkpoint, erased on completion or terminal failure, persisted
  /// to config.checkpoint_path, and consulted by submit() so a resubmitted
  /// candidate (same process or a restarted one) resumes mid-training.
  std::unordered_map<std::string, TrainingCheckpoint> checkpoints
      QARCH_GUARDED_BY(mutex);
  // Evaluator LRU: (graph fp, engine, budget) → construction slot. The slot
  // indirection lets workers build evaluators OUTSIDE this mutex (an
  // Evaluator constructor is exponential in n: the 2^n cost diagonal or the
  // exact max-cut solver) while still guaranteeing one construction per key:
  // racing requesters block on the slot's once-flag, not on the whole
  // service.
  struct EvaluatorSlot {
    std::once_flag once;
    std::shared_ptr<const Evaluator> evaluator;
  };
  std::list<std::pair<std::string, std::shared_ptr<EvaluatorSlot>>>
      eval_order QARCH_GUARDED_BY(mutex);
  std::unordered_map<std::string, decltype(eval_order)::iterator> eval_by_key
      QARCH_GUARDED_BY(mutex);

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }
};

/// The service-side PreemptToken handed to a running training slice. Polled
/// by the optimizer at its safe points (loop tops, ≥ 1 objective call
/// apart); decides whether the slice should stop and why:
///   Checkpoint — cadence reached; the worker snapshots and keeps going.
///   Park       — another client is waiting (quantum expired) or the service
///                is draining; snapshot, free the worker, requeue.
///   Expire     — the job blew its deadline or run-time budget.
class JobToken final : public optim::PreemptToken {
 public:
  enum class Reason { None, Checkpoint, Park, Expire };

  JobToken(ServiceState* state, EvalJob* job, double slice_start,
           double run_before)
      : state_(state),
        job_(job),
        slice_start_(slice_start),
        run_before_(run_before) {}

  /// Asks the slice to park at its next safe point (used by tests; drain()
  /// reaches running slices through ServiceState::draining instead).
  void force_park() { forced_.store(true); }

  [[nodiscard]] Reason reason() const { return reason_; }

  bool should_stop(std::size_t evaluations) override {
    // The optimizer's counter can restart (multistart resets it per inner
    // run), so accumulate deltas instead of trusting the absolute value.
    const std::size_t delta =
        evaluations >= last_evals_ ? evaluations - last_evals_ : evaluations;
    last_evals_ = evaluations;
    acc_evals_ += delta;
    if (forced_.load() || state_->draining.load()) {
      reason_ = Reason::Park;
      return true;
    }
    const double now = state_->now();
    if (job_->deadline_at > 0.0 && now >= job_->deadline_at) {
      reason_ = Reason::Expire;
      return true;
    }
    if (job_->max_eval_seconds > 0.0 &&
        run_before_ + (now - slice_start_) >= job_->max_eval_seconds) {
      reason_ = Reason::Expire;
      return true;
    }
    if (const std::size_t cadence = state_->config.checkpoint_evals;
        cadence > 0 && acc_evals_ >= cadence) {
      acc_evals_ = 0;
      reason_ = Reason::Checkpoint;
      return true;
    }
    const double quantum = state_->config.preempt_quantum_seconds;
    if (quantum > 0.0 && now - slice_start_ >= quantum &&
        now >= next_probe_) {
      bool contended = false;
      {
        // Park only when some OTHER client has queued work: preempting for
        // the job's own queue would just thrash (DWRR already ordered it),
        // and an uncontended service runs every job straight through.
        LockGuard lock(state_->mutex);
        for (const std::size_t id : state_->rr_order)
          if (id != job_->client_id) {
            contended = true;
            break;
          }
      }
      if (contended) {
        reason_ = Reason::Park;
        return true;
      }
      // Nobody waiting: probe again half a quantum later instead of taking
      // the service mutex on every objective call.
      next_probe_ = now + quantum * 0.5;
    }
    return false;
  }

 private:
  ServiceState* state_;
  EvalJob* job_;
  std::atomic<bool> forced_{false};
  Reason reason_ = Reason::None;
  double slice_start_ = 0.0;
  double run_before_ = 0.0;   ///< run_seconds banked before this slice
  double next_probe_ = 0.0;
  std::size_t last_evals_ = 0;
  std::size_t acc_evals_ = 0;
};

namespace {

/// The composite result-cache key. Every byte of candidate identity that
/// affects the result is in here; the code version gating the PERSISTED form
/// lives at the file level (kCacheCodeVersion).
std::string result_key(const std::string& graph_key,
                       const qaoa::MixerSpec& mixer, std::size_t p,
                       std::size_t evals) {
  return graph_key + '\x1e' + mixer.to_string() + "@p" + std::to_string(p) +
         "@e" + std::to_string(evals);
}

/// Objective/Hamiltonian identity suffix from persisted tag strings (empty =
/// default spec). Appended only when non-default, so the default path's keys
/// — and therefore every cache file written before generalized objectives
/// existed — stay byte-identical.
std::string tag_suffix(const std::string& objective_tag,
                       const std::string& hamiltonian_tag) {
  std::string s;
  if (!objective_tag.empty()) s += "@o" + objective_tag;
  if (!hamiltonian_tag.empty()) s += "@h" + hamiltonian_tag;
  return s;
}

/// The same suffix from resolved specs.
std::string spec_suffix(const qaoa::ObjectiveSpec& objective,
                        const qaoa::HamiltonianSpec& hamiltonian) {
  return tag_suffix(objective.is_default() ? std::string() : objective.tag(),
                    hamiltonian.is_default() ? std::string()
                                             : hamiltonian.tag());
}

/// Identity of a persisted entry: the result key (with spec suffix) plus the
/// engine that produced it (one candidate may have an sv and a tn twin on
/// disk).
std::string cache_identity(const CacheEntry& e) {
  return result_key(e.graph_fp, e.result.mixer, e.result.p,
                    e.training_evals) +
         tag_suffix(e.objective, e.hamiltonian) + '\x1f' + e.engine;
}

/// Adds (or refreshes) one entry in the to-be-persisted overflow set:
/// entries the in-memory cache cannot hold but the next rewrite must keep.
/// Deduplicated by identity so eviction churn cannot grow it. Requires
/// state.mutex held.
void stash_foreign(ServiceState& state, CacheEntry entry)
    QARCH_REQUIRES(state.mutex) {
  const std::string id = cache_identity(entry);
  if (const auto it = state.foreign_by_identity.find(id);
      it != state.foreign_by_identity.end()) {
    state.foreign_entries[it->second] = std::move(entry);
  } else {
    state.foreign_by_identity.emplace(id, state.foreign_entries.size());
    state.foreign_entries.push_back(std::move(entry));
  }
}

/// Shared-evaluator lookup. Two workers racing to build the same evaluator
/// must not each get a private plan cache (candidate plans would compile
/// twice, breaking the one-compile-per-(candidate, graph) contract), so a
/// key's first requester constructs inside the slot's call_once while later
/// requesters block on that SLOT only — the service mutex is never held
/// across construction, which is exponential in n: a statevector evaluator
/// fills its 2^n cost diagonal and takes the optimum from it, a
/// tensor-network one runs the maxcut_exact (or classical_maximum) solver.
std::shared_ptr<const Evaluator> evaluator_for(
    ServiceState& state, const std::string& graph_key, const graph::Graph& g,
    qaoa::EngineKind engine, std::size_t training_evals,
    const qaoa::ObjectiveSpec& objective,
    const qaoa::HamiltonianSpec& hamiltonian) {
  const std::string key =
      graph_key + '\x1f' +
      (engine == qaoa::EngineKind::Statevector ? "sv" : "tn") + '\x1f' +
      std::to_string(training_evals) + spec_suffix(objective, hamiltonian);
  std::shared_ptr<ServiceState::EvaluatorSlot> slot;
  {
    LockGuard lock(state.mutex);
    if (const auto it = state.eval_by_key.find(key);
        it != state.eval_by_key.end()) {
      state.eval_order.splice(state.eval_order.begin(), state.eval_order,
                              it->second);
      slot = it->second->second;
    } else {
      slot = std::make_shared<ServiceState::EvaluatorSlot>();
      state.eval_order.emplace_front(key, slot);
      state.eval_by_key[key] = state.eval_order.begin();
      const std::size_t capacity =
          std::max<std::size_t>(1, state.config.evaluator_cache);
      while (state.eval_order.size() > capacity) {
        state.eval_by_key.erase(state.eval_order.back().first);
        state.eval_order.pop_back();  // builders hold their own slot ref
      }
    }
  }
  bool built = false;
  std::call_once(slot->once, [&] {
    auto options = state.config.evaluator_options(engine, training_evals);
    // Per-job specs override the session defaults the facade copied in.
    options.objective = objective;
    options.hamiltonian = hamiltonian;
    // Every evaluator shares the service's plan store: tensor-network
    // programs reuse orders across candidates, clients, and (when
    // plan_cache_path is set) across processes.
    options.energy.qtensor.plan_cache = state.plan_cache;
    slot->evaluator = std::make_shared<const Evaluator>(g, options);
    built = true;
  });
  if (built) {
    LockGuard lock(state.mutex);
    ++state.stats.evaluators_built;
  }
  return slot->evaluator;
}

/// Removes `id` from the round-robin rotation (its queue just drained) and
/// reclaims the queue entirely when its handle was already destroyed.
/// Requires state.mutex held.
void deactivate_client(ServiceState& state, std::size_t id)
    QARCH_REQUIRES(state.mutex) {
  const auto pos =
      std::find(state.rr_order.begin(), state.rr_order.end(), id);
  if (pos != state.rr_order.end()) {
    const auto index =
        static_cast<std::size_t>(pos - state.rr_order.begin());
    state.rr_order.erase(pos);
    // The cursor keeps pointing at the next not-yet-visited queue; a fresh
    // visit starts there, so the stale grant flag must not carry over.
    if (index < state.rr_cursor)
      --state.rr_cursor;
    else if (index == state.rr_cursor)
      state.rr_granted = false;
  }
  const auto cit = state.clients.find(id);
  if (cit != state.clients.end()) {
    cit->second.deficit = 0.0;  // no banking credit across idle periods
    if (cit->second.closed && id != 0) state.clients.erase(cit);
  }
}

/// Inserts a published job into its client's fair-share queue. Requires
/// state.mutex held; the caller resolved client_id/priority/seq already.
void enqueue_job(ServiceState& state, const std::shared_ptr<EvalJob>& job)
    QARCH_REQUIRES(state.mutex) {
  ServiceState::ClientQueue& queue = state.clients[job->client_id];
  const bool was_empty = queue.jobs.empty();
  queue.jobs.emplace(std::make_pair(-job->priority, job->seq), job);
  if (was_empty) state.rr_order.push_back(job->client_id);
}

/// A service-clock timestamp as a steady_clock time point (for cv waits).
std::chrono::steady_clock::time_point service_time(const ServiceState& state,
                                                   double seconds) {
  return state.epoch +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

/// Remaining training budget of a job — the fair-share cost unit. A parked
/// job already banked evals_done of its budget, so requeueing it charges
/// only the remainder (net, a client pays for the evals its slices actually
/// consumed). Requires state.mutex held (evals_done).
double job_cost(const EvalJob& job) {
  return static_cast<double>(job.training_evals > job.evals_done
                                 ? job.training_evals - job.evals_done
                                 : 1);
}

/// The persistable form of a job's current checkpoint. Requires state.mutex
/// held (reads nothing mutable, but callers are there anyway).
TrainingCheckpoint checkpoint_record(const EvalJob& job,
                                     const std::string& engine_name,
                                     const optim::OptimState& training) {
  TrainingCheckpoint ck;
  ck.graph_fp = job.graph_key;
  ck.mixer = job.mixer;
  ck.p = job.p;
  ck.training_evals = job.training_evals;
  ck.engine = engine_name;
  if (!job.objective.is_default()) ck.objective = job.objective.tag();
  if (!job.hamiltonian.is_default()) ck.hamiltonian = job.hamiltonian.tag();
  ck.state = training;
  return ck;
}

/// Atomically rewrites config.checkpoint_path with the current in-flight
/// checkpoint set (no-op without a path). Best-effort: a write failure is
/// logged, not thrown — the in-memory checkpoint still resumes within this
/// process. io_mutex serializes writers so an older snapshot can never land
/// on top of a newer one.
void persist_checkpoints(ServiceState& state)
    QARCH_EXCLUDES(state.io_mutex, state.mutex) {
  if (state.config.checkpoint_path.empty()) return;
  LockGuard io(state.io_mutex);
  std::vector<TrainingCheckpoint> entries;
  {
    LockGuard lock(state.mutex);
    entries.reserve(state.checkpoints.size());
    for (const auto& [key, ck] : state.checkpoints) entries.push_back(ck);
  }
  try {
    save_checkpoints(entries, state.config.checkpoint_path,
                     kCheckpointCodeVersion);
  } catch (const std::exception& e) {
    log::warn("checkpoints not persisted: ", e.what());
  }
}

/// Deficit-weighted round robin over the client queues: each visit grants
/// the queue weight × quantum budget units (quantum = the widest head job
/// currently queued, so every rotation lets someone dispatch); a queue keeps
/// dispatching while its deficit covers its head job's REMAINING budget,
/// then the cursor moves on. Also the retry pump: due delayed (backoff)
/// jobs are promoted into their queues first, and when only not-yet-due
/// entries remain the caller sleeps here until the earliest comes due.
/// Returns nullptr when nothing is left to serve — surplus drainers (their
/// job was cancelled, or served by the result cache on resubmission) just
/// retire — or when drain() stopped dispatch.
std::shared_ptr<EvalJob> pop_next(ServiceState& state)
    QARCH_EXCLUDES(state.mutex) {
  UniqueLock lock(state.mutex);
  for (;;) {
    if (state.draining.load() && !state.stopping.load()) return nullptr;
    const double now = state.now();
    if (!state.delayed.empty()) {
      auto it = state.delayed.begin();
      while (it != state.delayed.end()) {
        // Shutdown promotes everything immediately: run_job resolves the
        // promoted jobs as Cancelled instead of leaving tickets hanging.
        if (state.stopping.load() || now >= it->not_before) {
          enqueue_job(state, it->job);
          it = state.delayed.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!state.rr_order.empty()) break;
    if (state.delayed.empty()) return nullptr;
    double next_due = state.delayed.front().not_before;
    for (const ServiceState::DelayedJob& d : state.delayed)
      next_due = std::min(next_due, d.not_before);
    state.sched_cv.wait_until(lock, service_time(state, next_due));
  }
  double quantum = 1.0;
  for (const std::size_t id : state.rr_order) {
    const ServiceState::ClientQueue& q = state.clients[id];
    quantum = std::max(quantum, job_cost(*q.jobs.begin()->second));
  }
  for (;;) {
    if (state.rr_cursor >= state.rr_order.size()) state.rr_cursor = 0;
    const std::size_t id = state.rr_order[state.rr_cursor];
    ServiceState::ClientQueue& queue = state.clients[id];
    const auto head = queue.jobs.begin();
    const double cost = job_cost(*head->second);
    if (queue.deficit < cost && !state.rr_granted) {
      queue.deficit += queue.weight * quantum;
      state.rr_granted = true;
    }
    if (queue.deficit < cost) {  // grant spent: next queue's turn
      ++state.rr_cursor;
      state.rr_granted = false;
      continue;
    }
    queue.deficit -= cost;
    std::shared_ptr<EvalJob> job = head->second;
    queue.jobs.erase(head);
    if (queue.jobs.empty()) deactivate_client(state, id);
    return job;
  }
}

void finish_cancelled(ServiceState& state,
                      const std::shared_ptr<EvalJob>& job)
    QARCH_EXCLUDES(state.mutex) {
  {
    LockGuard lock(state.mutex);
    // Erase by identity, not by key: a duplicate resubmission may already
    // have replaced this key's in-flight entry with a fresh job.
    const auto it = state.inflight.find(job->key);
    if (it != state.inflight.end() && it->second.lock() == job)
      state.inflight.erase(it);
    ++state.stats.cancelled;
    // Withdraw from the scheduler so no drainer picks the job up (a no-op
    // when a drainer already popped it — run_job rechecks the status).
    const auto cit = state.clients.find(job->client_id);
    if (cit != state.clients.end()) {
      cit->second.jobs.erase(std::make_pair(-job->priority, job->seq));
      if (cit->second.jobs.empty()) deactivate_client(state, job->client_id);
    }
  }
  job->cv.notify_all();
}

/// Terminal bookkeeping of a deadline-expired job. The caller already set
/// Status::Expired (and finished_at) under the JOB mutex; this mirrors
/// finish_cancelled — inflight/queue withdrawal — plus the checkpoint record
/// is dropped: past its deadline the partial training is dead weight.
void finish_expired(ServiceState& state,
                    const std::shared_ptr<EvalJob>& job)
    QARCH_EXCLUDES(state.mutex) {
  {
    LockGuard lock(state.mutex);
    const auto it = state.inflight.find(job->key);
    if (it != state.inflight.end() && it->second.lock() == job)
      state.inflight.erase(it);
    ++state.stats.deadline_expired;
    state.checkpoints.erase(job->key);
    const auto cit = state.clients.find(job->client_id);
    if (cit != state.clients.end()) {
      cit->second.jobs.erase(std::make_pair(-job->priority, job->seq));
      if (cit->second.jobs.empty()) deactivate_client(state, job->client_id);
    }
  }
  job->cv.notify_all();
}

/// Snapshot-and-write of the plan and result caches: the body of
/// EvalService::save_cache, shared with the completion-time durability flush
/// in run_job. io_mutex serializes writers (see persist_checkpoints).
std::size_t persist_caches(ServiceState& state)
    QARCH_EXCLUDES(state.io_mutex, state.mutex) {
  LockGuard io(state.io_mutex);
  // Plan cache first: cheap, and useful even when result persistence is off.
  if (!state.config.plan_cache_path.empty())
    save_plan_cache(state.plan_cache->snapshot(), state.config.plan_cache_path,
                    kPlanCacheCodeVersion);
  if (state.config.cache_path.empty() || state.config.result_cache == 0)
    return 0;
  std::vector<CacheEntry> entries;
  {
    LockGuard lock(state.mutex);
    entries.reserve(state.done_order.size() + state.foreign_entries.size());
    std::set<std::string> seen;
    // done_order is most-recently-used first; persist in that order so a
    // smaller result_cache on reload keeps the hottest entries.
    for (const auto& [key, cached] : state.done_order) {
      CacheEntry e;
      e.graph_fp = cached.graph_fp;
      e.training_evals = cached.training_evals;
      e.engine = cached.engine;
      e.objective = cached.objective;
      e.hamiltonian = cached.hamiltonian;
      e.result = cached.result;
      e.result.from_cache = false;  // provenance is per-submission, not disk
      seen.insert(cache_identity(e));
      entries.push_back(std::move(e));
    }
    // Re-persist what this service could not hold itself — other-backend
    // entries, over-capacity leftovers, LRU evictions (deduplicated on
    // insert). An identity done_order also holds means the candidate was
    // freshly re-evaluated after its eviction: the new result shadows the
    // stale stash.
    for (const CacheEntry& e : state.foreign_entries)
      if (seen.insert(cache_identity(e)).second) entries.push_back(e);
  }
  save_result_cache(entries, state.config.cache_path, kCacheCodeVersion);
  return entries.size();
}

/// Cheap submit-time probe for the cache_refresh_seconds satellite: true
/// when the interval elapsed, in which case THIS caller claims the refresh
/// (the timestamp advances under the mutex, so concurrent submitters do the
/// file IO at most once per interval).
bool cache_refresh_due(ServiceState& state) QARCH_EXCLUDES(state.mutex) {
  if (state.config.cache_refresh_seconds <= 0.0 ||
      state.config.cache_path.empty() || state.config.result_cache == 0)
    return false;
  const double now = state.now();
  LockGuard lock(state.mutex);
  if (now - state.last_cache_refresh < state.config.cache_refresh_seconds)
    return false;
  state.last_cache_refresh = now;
  return true;
}

/// Re-reads the result-cache file and merges entries this service does not
/// already hold — cross-pollination between concurrent processes sharing one
/// cache_path, without waiting for either to restart. Merge rules mirror the
/// constructor load: the engine gate and capacity bound apply, rejected
/// entries are stashed for the next rewrite (when this service writes at
/// all), and entries this process already holds in memory always win over
/// disk state. File IO runs under io_mutex only; the service mutex is taken
/// afterwards for the merge (io_mutex-before-mutex, never nested the other
/// way).
void refresh_result_cache(ServiceState& state)
    QARCH_EXCLUDES(state.io_mutex, state.mutex) {
  std::vector<CacheEntry> entries;
  {
    LockGuard io(state.io_mutex);
    entries = load_result_cache(state.config.cache_path, kCacheCodeVersion);
  }
  LockGuard lock(state.mutex);
  ++state.stats.cache_refreshes;
  const bool keep_for_rewrite = state.config.cache_write;
  const std::size_t stash_bound =
      state.foreign_floor + state.config.result_cache;
  for (CacheEntry& e : entries) {
    const bool engine_gated =
        (state.config.backend == BackendChoice::Statevector &&
         e.engine != "sv") ||
        (state.config.backend == BackendChoice::TensorNetwork &&
         e.engine != "tn");
    const std::string key =
        result_key(e.graph_fp, e.result.mixer, e.result.p, e.training_evals) +
        tag_suffix(e.objective, e.hamiltonian);
    if (engine_gated || state.done_by_key.count(key) > 0 ||
        state.done_order.size() >= state.config.result_cache) {
      // Not loadable here (wrong engine, already held, or over capacity) —
      // but still on disk, so a rewriting service must carry it. Bounded
      // like the eviction stash: refreshes cannot grow memory without limit.
      if (keep_for_rewrite &&
          (state.foreign_entries.size() < stash_bound ||
           state.foreign_by_identity.count(cache_identity(e)) > 0))
        stash_foreign(state, std::move(e));
      continue;
    }
    ServiceState::CachedResult cached;
    cached.result = e.result;
    cached.graph_fp = std::move(e.graph_fp);
    cached.training_evals = e.training_evals;
    cached.engine = std::move(e.engine);
    cached.objective = std::move(e.objective);
    cached.hamiltonian = std::move(e.hamiltonian);
    // Appended at the LRU's cold end: a merged entry is a warm start, not a
    // recent use, so it is first out if capacity tightens.
    state.done_order.emplace_back(key, std::move(cached));
    state.done_by_key[key] = std::prev(state.done_order.end());
    ++state.stats.cache_loaded;
  }
}

/// Worker body: runs one job until it completes, parks, expires, retries, or
/// fails. `state` is captured by shared_ptr so a draining pool can outlive
/// the EvalService front-end.
///
/// The slice loop is the preemption core: evaluate_resumable runs the
/// candidate's training against the job's checkpoint and the JobToken, and
/// comes back either completed or preempted with the checkpoint advanced.
/// A Checkpoint preemption banks the state and CONTINUES on this worker; a
/// Park frees the worker and requeues the job (same checkpoint, fair-share
/// deficit refunded to the remaining cost); an Expire resolves the ticket.
/// Because a resumed run replays the exact optimizer trajectory, a
/// parked-and-resumed evaluation is bit-identical to an uninterrupted one.
void run_job(const std::shared_ptr<ServiceState>& state,
             const std::shared_ptr<EvalJob>& job) {
  {
    UniqueLock lock(job->mutex);
    if (job->status != EvalJob::Status::Queued) return;
    if (state->stopping.load()) {
      job->status = EvalJob::Status::Cancelled;
      job->finished_at = state->now();
      lock.unlock();
      finish_cancelled(*state, job);
      return;
    }
    if (job->deadline_at > 0.0 && state->now() >= job->deadline_at) {
      job->status = EvalJob::Status::Expired;
      job->finished_at = state->now();
      lock.unlock();
      finish_expired(*state, job);
      return;
    }
    job->status = EvalJob::Status::Running;
    if (job->started_at == 0.0) job->started_at = state->now();
  }

  const double slice_start = state->now();
  CandidateResult result;
  qaoa::EngineKind engine = qaoa::EngineKind::Statevector;
  bool failed = false;
  std::string error;
  optim::OptimState training;
  std::string engine_name;
  std::shared_ptr<JobToken> token;
  try {
    switch (state->config.backend) {
      case BackendChoice::Statevector:
        engine = qaoa::EngineKind::Statevector;
        break;
      case BackendChoice::TensorNetwork:
        engine = qaoa::EngineKind::TensorNetwork;
        break;
      case BackendChoice::Auto:
        engine = auto_engine_choice(state->config, job->graph, job->mixer,
                                    job->p);
        break;
    }
    engine_name = engine == qaoa::EngineKind::Statevector ? "sv" : "tn";
    int attempt = 0;
    {
      LockGuard lock(state->mutex);
      attempt = job->attempts;
      if (!job->checkpoint.fresh() &&
          job->checkpoint_engine != engine_name) {
        // A checkpoint from the other engine cannot seed this run (its
        // objective numerics differ); restart rather than mix trajectories.
        job->checkpoint.clear();
        job->checkpoint_engine.clear();
        job->evals_done = 0;
        ++state->stats.checkpoints_discarded;
      }
      training = job->checkpoint;
      if (!training.fresh()) ++state->stats.resumed;
      token = std::make_shared<JobToken>(state.get(), job.get(), slice_start,
                                         job->run_seconds);
      job->token = token;
      state->running.insert(job.get());
    }
    // Fault-injection hook: may sleep, or throw FaultInjected into the
    // ordinary failure/retry path below. Deterministically keyed by
    // (candidate, attempt), so a given attempt either always or never fails
    // regardless of thread interleaving.
    FaultInjector::instance().on_evaluation(
        job->key, static_cast<std::uint64_t>(attempt));
    const auto evaluator =
        evaluator_for(*state, job->graph_key, job->graph, engine,
                      job->training_evals, job->objective, job->hamiltonian);
    for (;;) {
      ResumableEvaluation slice = evaluator->evaluate_resumable(
          job->mixer, job->p, training, token.get());
      if (slice.completed) {
        result = std::move(slice.result);
        break;
      }
      if (token->reason() == JobToken::Reason::Checkpoint) {
        // Cadence snapshot: bank the state and keep running on this worker.
        {
          LockGuard lock(state->mutex);
          job->checkpoint = training;
          job->checkpoint_engine = engine_name;
          job->evals_done = slice.evaluations_done;
          if (!state->config.checkpoint_path.empty())
            state->checkpoints[job->key] =
                checkpoint_record(*job, engine_name, training);
        }
        persist_checkpoints(*state);
        FaultInjector::instance().at_point("checkpoint");
        continue;
      }
      if (token->reason() == JobToken::Reason::Expire) {
        {
          LockGuard jlock(job->mutex);
          job->status = EvalJob::Status::Expired;
          job->finished_at = state->now();
        }
        {
          LockGuard lock(state->mutex);
          state->running.erase(job.get());
          job->token.reset();
          job->run_seconds += state->now() - slice_start;
        }
        finish_expired(*state, job);
        state->drain_cv.notify_all();
        return;
      }
      // Park: snapshot, requeue (or resolve Cancelled under shutdown), free
      // this worker for whoever the scheduler prefers.
      bool cancelled = false;
      {
        LockGuard jlock(job->mutex);
        if (state->stopping.load()) {
          job->status = EvalJob::Status::Cancelled;
          job->finished_at = state->now();
          cancelled = true;
        } else {
          job->status = EvalJob::Status::Queued;
        }
      }
      {
        LockGuard lock(state->mutex);
        state->running.erase(job.get());
        job->token.reset();
        job->checkpoint = training;
        job->checkpoint_engine = engine_name;
        job->evals_done = slice.evaluations_done;
        job->run_seconds += state->now() - slice_start;
        if (!state->config.checkpoint_path.empty())
          state->checkpoints[job->key] =
              checkpoint_record(*job, engine_name, training);
        if (!cancelled) {
          ++state->stats.parked;
          job->seq = state->next_seq++;
          enqueue_job(*state, job);
          // Refund the unconsumed part of the dispatch charge: the next pop
          // re-charges the REMAINING cost, so net the client paid only for
          // the evals this slice actually consumed.
          const auto cit = state->clients.find(job->client_id);
          if (cit != state->clients.end())
            cit->second.deficit += job_cost(*job);
          // Yield the next dispatch to the backlog that triggered the park:
          // the refund means the unchanged cursor would cover this queue's
          // head again and re-dispatch the very job that just parked.
          ++state->rr_cursor;
          state->rr_granted = false;
        }
      }
      if (cancelled) {
        finish_cancelled(*state, job);
      } else {
        state->sched_cv.notify_all();
        state->drain_cv.notify_all();
        persist_checkpoints(*state);
        FaultInjector::instance().at_point("park");
      }
      return;
    }
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  const double slice_seconds = state->now() - slice_start;
  bool retry = false;
  double backoff = 0.0;
  {
    LockGuard lock(state->mutex);
    state->running.erase(job.get());
    job->token.reset();
    job->run_seconds += slice_seconds;
    if (failed) {
      if (!state->stopping.load() && !state->draining.load() &&
          job->attempts < job->max_retries) {
        // Bounded retry with exponential backoff. The checkpoint (if any)
        // survives, so the retry resumes instead of restarting; the job
        // stays in `inflight` so duplicates keep attaching to it.
        backoff = job->retry_backoff * std::ldexp(1.0, job->attempts);
        ++job->attempts;
        ++state->stats.retried;
        retry = true;
      } else {
        ++state->stats.failed;
        state->inflight.erase(job->key);
        state->checkpoints.erase(job->key);
      }
    } else {
      ++state->stats.completed;
      if (engine == qaoa::EngineKind::Statevector)
        ++state->stats.picked_statevector;
      else
        ++state->stats.picked_tensornetwork;
      result.queue_seconds = job->started_at - job->submitted_at;
      result.eval_seconds = job->run_seconds;
      state->inflight.erase(job->key);
      state->checkpoints.erase(job->key);
      job->checkpoint.clear();
      if (state->config.result_cache > 0) {
        ServiceState::CachedResult cached;
        cached.result = result;
        cached.graph_fp = job->graph_key;
        cached.training_evals = job->training_evals;
        cached.engine =
            engine == qaoa::EngineKind::Statevector ? "sv" : "tn";
        if (!job->objective.is_default())
          cached.objective = job->objective.tag();
        if (!job->hamiltonian.is_default())
          cached.hamiltonian = job->hamiltonian.tag();
        state->done_order.emplace_front(job->key, std::move(cached));
        state->done_by_key[job->key] = state->done_order.begin();
        while (state->done_order.size() > state->config.result_cache) {
          // When a rewrite is coming, LRU-evicted results stay eligible for
          // persistence (dropping them would erase warm starts from the
          // shared cache file); without one, hoarding them would just grow
          // memory past the LRU bound for nothing. The stash itself is
          // bounded (foreign_floor + result_cache): a run that churns far
          // past its capacity sheds the excess instead of growing without
          // limit, though refreshing an already-stashed identity is always
          // allowed (it replaces in place).
          ServiceState::CachedResult& old = state->done_order.back().second;
          if (!state->config.cache_path.empty() &&
              state->config.cache_write) {
            CacheEntry evicted;  // moving is fine: `old` is dropped below
            evicted.graph_fp = std::move(old.graph_fp);
            evicted.training_evals = old.training_evals;
            evicted.engine = std::move(old.engine);
            evicted.objective = std::move(old.objective);
            evicted.hamiltonian = std::move(old.hamiltonian);
            evicted.result = std::move(old.result);
            if (state->foreign_entries.size() <
                    state->foreign_floor + state->config.result_cache ||
                state->foreign_by_identity.count(cache_identity(evicted)) > 0)
              stash_foreign(*state, std::move(evicted));
          }
          state->done_by_key.erase(state->done_order.back().first);
          state->done_order.pop_back();
        }
      }
    }
  }
  if (retry) {
    {
      LockGuard jlock(job->mutex);
      job->status = EvalJob::Status::Queued;
    }
    {
      LockGuard lock(state->mutex);
      job->seq = state->next_seq++;
      state->delayed.push_back({state->now() + backoff, job});
    }
    state->sched_cv.notify_all();
    return;
  }
  {
    LockGuard lock(job->mutex);
    job->finished_at = state->now();
    if (failed) {
      job->status = EvalJob::Status::Failed;
      job->error = std::move(error);
    } else {
      job->status = EvalJob::Status::Done;
      job->result = std::move(result);
    }
  }
  job->cv.notify_all();
  state->drain_cv.notify_all();
  if (!state->config.checkpoint_path.empty()) {
    // Durability mode: drop the resolved job's checkpoint record from disk
    // and flush completed results as they finish, so a crash loses at most
    // the slice since the last checkpoint — never a finished evaluation.
    persist_checkpoints(*state);
    if (!failed && state->config.cache_write &&
        !state->config.cache_path.empty() &&
        state->config.result_cache > 0) {
      try {
        persist_caches(*state);
      } catch (const std::exception& e) {
        log::warn("result-cache flush failed: ", e.what());
      }
    }
  }
}

/// Drainer body executed by the pool. One drainer is enqueued per published
/// job, but a drainer runs whatever job the fair-share scheduler serves
/// next, not "its own" — and keeps serving: a parked or retried job
/// re-enters the queues without a new drainer being spawned, so the drainer
/// that parked it must loop rather than retire. Surplus drainers (their job
/// was cancelled) find an empty scheduler and retire.
void run_next(const std::shared_ptr<ServiceState>& state) {
  while (const std::shared_ptr<EvalJob> job = pop_next(*state))
    run_job(state, job);
}

}  // namespace
}  // namespace detail

std::string graph_fingerprint(const graph::Graph& g) {
  std::string key;
  key.reserve(16 + g.num_edges() * 24);
  const auto put = [&key](const void* p, std::size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const std::uint64_t head[2] = {g.num_vertices(), g.num_edges()};
  put(head, sizeof(head));
  for (const graph::Edge& e : g.edges()) {
    const std::uint64_t uv[2] = {e.u, e.v};
    put(uv, sizeof(uv));
    put(&e.weight, sizeof(e.weight));
  }
  return key;
}

qaoa::EngineKind auto_engine_choice(const SessionConfig& config,
                                    const graph::Graph& g,
                                    const qaoa::MixerSpec& mixer,
                                    std::size_t p) {
  // Small instances: 2^n is cheap and the statevector engine reads every
  // edge's contribution off one pass over the per-graph cost diagonal.
  if (g.num_vertices() <= config.auto_statevector_qubits)
    return qaoa::EngineKind::Statevector;
  // An entangling mixer (ring two-qubit gates on every qubit) spreads each
  // edge's causal cone across the whole register per layer — no narrow
  // lightcone to exploit.
  for (circuit::GateKind k : mixer.gates)
    if (circuit::is_two_qubit(k)) return qaoa::EngineKind::Statevector;
  // Single-qubit mixers: each of the p cost layers widens an edge's causal
  // cone by exactly one graph hop (diagonal ZZ terms commute), so the
  // lightcone of Z_u Z_v is the p-hop neighbourhood of its WORST edge (max
  // endpoint-degree sum). Contraction cost scales with that, not with n.
  const graph::Edge* worst = nullptr;
  std::size_t worst_degree = 0;
  for (const graph::Edge& e : g.edges()) {
    const std::size_t d = g.degree(e.u) + g.degree(e.v);
    if (worst == nullptr || d > worst_degree) {
      worst = &e;
      worst_degree = d;
    }
  }
  QARCH_CHECK(worst != nullptr, "auto_engine_choice on an edgeless graph");
  std::set<std::size_t> cone{worst->u, worst->v};
  std::vector<std::size_t> frontier{worst->u, worst->v};
  for (std::size_t hop = 0; hop < p && !frontier.empty(); ++hop) {
    std::vector<std::size_t> next;
    for (std::size_t q : frontier)
      for (std::size_t nb : g.neighbors(q))
        if (cone.insert(nb).second) next.push_back(nb);
    frontier = std::move(next);
  }
  return cone.size() <= config.auto_lightcone_qubits
             ? qaoa::EngineKind::TensorNetwork
             : qaoa::EngineKind::Statevector;
}

// ---------------------------------------------------------------------------
// EvalTicket
// ---------------------------------------------------------------------------

const CandidateResult& EvalTicket::wait() const {
  QARCH_REQUIRE(handle_ != nullptr, "wait() on an empty EvalTicket");
  // An unbounded wait always resolves (or throws) — never nullptr.
  return *wait_for(-1.0);
}

const CandidateResult* EvalTicket::wait_for(double timeout_seconds) const {
  QARCH_REQUIRE(handle_ != nullptr, "wait_for() on an empty EvalTicket");
  const std::shared_ptr<detail::EvalJob>& job_ptr = handle_->job;
  detail::EvalJob& job = *job_ptr;
  const std::shared_ptr<detail::ServiceState>& state = job.service;
  const double wait_deadline =
      timeout_seconds >= 0.0 ? state->now() + timeout_seconds : -1.0;
  UniqueLock lock(job.mutex);
  for (;;) {
    // The abandoned flag is part of the predicate: a concurrent cancel() of
    // a ticket copy must wake and fail a waiter already parked here even
    // when other clients keep the shared job itself alive.
    if (handle_->abandoned.load() ||
        (job.status != detail::EvalJob::Status::Queued &&
         job.status != detail::EvalJob::Status::Running))
      break;
    const double now = state->now();
    // Deadlines are enforced from the waiter side too: a job stuck QUEUED
    // behind a flood expires right here, no worker required — so a
    // deadline'd ticket can never hang its caller.
    if (job.status == detail::EvalJob::Status::Queued &&
        job.deadline_at > 0.0 && now >= job.deadline_at) {
      job.status = detail::EvalJob::Status::Expired;
      job.finished_at = now;
      lock.unlock();
      detail::finish_expired(*state, job_ptr);
      lock.lock();
      break;
    }
    if (wait_deadline >= 0.0 && now >= wait_deadline) return nullptr;
    double wake = wait_deadline;
    if (job.status == detail::EvalJob::Status::Queued &&
        job.deadline_at > 0.0)
      wake = wake < 0.0 ? job.deadline_at : std::min(wake, job.deadline_at);
    if (wake < 0.0)
      job.cv.wait(lock);
    else
      job.cv.wait_until(lock, detail::service_time(*state, wake));
  }
  if (handle_->abandoned.load()) throw Error("EvalTicket was cancelled");
  switch (job.status) {
    case detail::EvalJob::Status::Done:
      return &job.result;
    case detail::EvalJob::Status::Failed:
      throw Error("candidate evaluation failed: " + job.error);
    case detail::EvalJob::Status::Expired:
      throw Error("candidate evaluation deadline expired");
    default:
      throw Error("candidate evaluation was cancelled");
  }
}

bool EvalTicket::ready() const {
  QARCH_REQUIRE(handle_ != nullptr, "ready() on an empty EvalTicket");
  if (handle_->abandoned.load()) return true;
  detail::EvalJob& job = *handle_->job;
  LockGuard lock(job.mutex);
  return job.status != detail::EvalJob::Status::Queued &&
         job.status != detail::EvalJob::Status::Running;
}

bool EvalTicket::cancel() {
  QARCH_REQUIRE(handle_ != nullptr, "cancel() on an empty EvalTicket");
  if (handle_->abandoned.load()) return true;
  const std::shared_ptr<detail::EvalJob>& job = handle_->job;
  bool withdrew_job = false;
  {
    LockGuard lock(job->mutex);
    // Re-checked under the lock, before the status: two threads cancelling
    // copies of the SAME handle both pass the lock-free check above. The
    // loser must neither decrement the waiters twice (that would withdraw a
    // job other live tickets still wait on) nor report false because the
    // job started after the winner cancelled this handle.
    if (handle_->abandoned.load()) return true;
    if (job->status == detail::EvalJob::Status::Running ||
        job->status == detail::EvalJob::Status::Done ||
        job->status == detail::EvalJob::Status::Failed ||
        job->status == detail::EvalJob::Status::Expired)
      return false;
    handle_->abandoned.store(true);
    if (job->waiters > 0) --job->waiters;
    if (job->status == detail::EvalJob::Status::Queued &&
        job->waiters == 0) {
      job->status = detail::EvalJob::Status::Cancelled;
      job->finished_at = job->service->now();
      withdrew_job = true;
    }
  }
  if (withdrew_job)
    detail::finish_cancelled(*job->service, job);
  else
    job->cv.notify_all();  // wake waiters parked on this now-abandoned handle
  return true;
}

bool EvalTicket::cancelled() const {
  return handle_ != nullptr && handle_->abandoned.load();
}

bool EvalTicket::expired() const {
  if (handle_ == nullptr) return false;
  LockGuard lock(handle_->job->mutex);
  return handle_->job->status == detail::EvalJob::Status::Expired;
}

bool EvalTicket::cache_hit() const {
  return handle_ != nullptr && handle_->hit;
}

double EvalTicket::submitted_at() const {
  QARCH_REQUIRE(handle_ != nullptr, "submitted_at() on an empty EvalTicket");
  return handle_->submitted_at;
}

double EvalTicket::finished_at() const {
  QARCH_REQUIRE(handle_ != nullptr, "finished_at() on an empty EvalTicket");
  LockGuard lock(handle_->job->mutex);
  return handle_->job->finished_at;
}

// ---------------------------------------------------------------------------
// EvalService
// ---------------------------------------------------------------------------

EvalService::EvalService(SessionConfig config)
    : state_(std::make_shared<detail::ServiceState>()),
      pool_(config.workers) {
  state_->config = std::move(config);
  {
    LockGuard lock(state_->mutex);
    auto& fallback = state_->clients[0];  // the anonymous-submission queue
    fallback.name = "default";
    fallback.weight = 1.0;
  }
  if (!state_->config.cache_path.empty() && state_->config.result_cache > 0) {
    const auto entries =
        load_result_cache(state_->config.cache_path,
                          detail::kCacheCodeVersion);
    LockGuard lock(state_->mutex);
    // A read-only service (cache_write = false) never rewrites the file, so
    // stashing unloadable entries for re-persistence would be dead memory.
    const bool keep_for_rewrite = state_->config.cache_write;
    for (const CacheEntry& e : entries) {
      // Engine gate: a forced-engine service must not warm-start from
      // results another engine trained (processes sharing one cache file
      // may run different backends). Auto accepts both — whichever engine
      // produced an entry, it is a valid evaluation of that candidate.
      // Filtered entries are kept aside so save_cache() re-persists them
      // instead of erasing the other engine's warm starts.
      if ((state_->config.backend == BackendChoice::Statevector &&
           e.engine != "sv") ||
          (state_->config.backend == BackendChoice::TensorNetwork &&
           e.engine != "tn")) {
        if (keep_for_rewrite) detail::stash_foreign(*state_, e);
        continue;
      }
      if (state_->done_order.size() >= state_->config.result_cache) {
        // Beyond this service's in-memory bound, but still someone else's
        // warm start: preserved across the rewrite like engine-filtered
        // entries.
        if (keep_for_rewrite) detail::stash_foreign(*state_, e);
        continue;
      }
      const std::string key =
          detail::result_key(e.graph_fp, e.result.mixer, e.result.p,
                             e.training_evals) +
          detail::tag_suffix(e.objective, e.hamiltonian);
      if (state_->done_by_key.count(key) > 0) {
        // Same candidate from the other engine (Auto accepted the first
        // twin): not loaded, but preserved across this service's rewrite.
        if (keep_for_rewrite) detail::stash_foreign(*state_, e);
        continue;
      }
      detail::ServiceState::CachedResult cached;
      cached.result = e.result;
      cached.graph_fp = e.graph_fp;
      cached.training_evals = e.training_evals;
      cached.engine = e.engine;
      cached.objective = e.objective;
      cached.hamiltonian = e.hamiltonian;
      state_->done_order.emplace_back(key, std::move(cached));
      state_->done_by_key[key] = std::prev(state_->done_order.end());
      ++state_->stats.cache_loaded;
    }
    state_->foreign_floor = state_->foreign_entries.size();
  }
  if (!state_->config.plan_cache_path.empty()) {
    auto plans = load_plan_cache(state_->config.plan_cache_path,
                                 detail::kPlanCacheCodeVersion);
    {
      LockGuard lock(state_->mutex);
      state_->stats.plans_loaded = plans.size();
    }
    state_->plan_cache->merge(std::move(plans));
  }
  if (!state_->config.checkpoint_path.empty()) {
    // In-flight checkpoints of a previous (killed or drained) process:
    // submit() seeds matching jobs from these, so they resume mid-training.
    auto entries = load_checkpoints(state_->config.checkpoint_path,
                                    detail::kCheckpointCodeVersion);
    LockGuard lock(state_->mutex);
    for (TrainingCheckpoint& ck : entries) {
      const std::string key =
          detail::result_key(ck.graph_fp, ck.mixer, ck.p,
                             ck.training_evals) +
          detail::tag_suffix(ck.objective, ck.hamiltonian);
      state_->checkpoints[key] = std::move(ck);
      ++state_->stats.checkpoints_loaded;
    }
  }
}

EvalService::~EvalService() {
  // Pending queued jobs resolve as Cancelled instead of running to
  // completion; in-flight evaluations finish and land in the result cache.
  // Backoff sleepers wake via sched_cv, promote their delayed jobs, and
  // cancel them the same way.
  state_->stopping.store(true);
  state_->sched_cv.notify_all();
  pool_.wait_idle();
  // Checkpoints persist even when cache_write is off: they are this
  // process's own in-flight state, not a shared warm-start file.
  detail::persist_checkpoints(*state_);
  // result_cache == 0 never loaded the file (nothing to merge back), so
  // writing would truncate a shared cache to nothing — leave it alone.
  const bool write_results = !state_->config.cache_path.empty() &&
                             state_->config.result_cache > 0;
  const bool write_plans = !state_->config.plan_cache_path.empty();
  if (state_->config.cache_write && (write_results || write_plans)) {
    try {
      detail::persist_caches(*state_);
    } catch (const std::exception& e) {
      log::warn("cache not persisted: ", e.what());
    }
  }
}

std::size_t EvalService::save_cache() const {
  detail::persist_checkpoints(*state_);
  return detail::persist_caches(*state_);
}

std::size_t EvalService::drain(double timeout_seconds) {
  std::size_t parked_before = 0;
  {
    LockGuard lock(state_->mutex);
    parked_before = state_->stats.parked;
  }
  // Stop dispatch (pop_next refuses while draining) and let every running
  // slice's token park it at the next safe point; wake backoff sleepers so
  // they notice too.
  state_->draining.store(true);
  state_->sched_cv.notify_all();
  {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, timeout_seconds)));
    UniqueLock lock(state_->mutex);
    while (!state_->running.empty()) {
      if (state_->drain_cv.wait_until(lock, deadline) ==
          std::cv_status::timeout)
        break;
    }
  }
  // Withdraw everything still queued or delayed — the process is going away;
  // their checkpoints (if any) survive for the next one.
  std::vector<std::shared_ptr<detail::EvalJob>> doomed;
  {
    LockGuard lock(state_->mutex);
    for (auto& client : state_->clients)
      for (auto& entry : client.second.jobs) doomed.push_back(entry.second);
    for (auto& delayed : state_->delayed) doomed.push_back(delayed.job);
    state_->delayed.clear();
  }
  for (const std::shared_ptr<detail::EvalJob>& job : doomed) {
    bool withdrew = false;
    {
      LockGuard lock(job->mutex);
      if (job->status == detail::EvalJob::Status::Queued) {
        job->status = detail::EvalJob::Status::Cancelled;
        job->finished_at = state_->now();
        withdrew = true;
      }
    }
    if (withdrew) detail::finish_cancelled(*state_, job);
  }
  try {
    save_cache();  // persists checkpoints too
  } catch (const std::exception& e) {
    log::warn("drain: cache not persisted: ", e.what());
  }
  std::size_t parked_after = 0;
  {
    LockGuard lock(state_->mutex);
    parked_after = state_->stats.parked;
  }
  return parked_after - parked_before;
}

EvalClient EvalService::register_client(const std::string& name,
                                        double weight) {
  // The lower bound also bounds the scheduler: pop_next grants
  // weight × quantum per rotation, so dispatching one job takes at most
  // ~1/weight rotations of the (mutex-held) round-robin loop.
  QARCH_REQUIRE(weight >= 1e-3 && weight <= 1e3 && std::isfinite(weight),
                "client weight must be in [0.001, 1000]");
  // Ids are unique process-wide, not per service: a stale id — or one from
  // ANOTHER service — can then never collide with a registered client here,
  // so the documented fallback to the default queue actually holds.
  static std::atomic<std::size_t> next_client_id{1};
  LockGuard lock(state_->mutex);
  const std::size_t id = next_client_id.fetch_add(1);
  auto& client = state_->clients[id];
  client.name = name;
  client.weight = weight;
  ++state_->stats.clients_registered;
  return EvalClient(state_, id);
}

// ---------------------------------------------------------------------------
// EvalClient
// ---------------------------------------------------------------------------

EvalClient::~EvalClient() {
  if (!state_) return;
  LockGuard lock(state_->mutex);
  const auto it = state_->clients.find(id_);
  if (it == state_->clients.end()) return;
  if (it->second.jobs.empty())
    state_->clients.erase(it);
  else
    it->second.closed = true;  // reclaimed by the scheduler once drained
}

EvalClient::EvalClient(EvalClient&& other) noexcept
    : state_(std::move(other.state_)), id_(other.id_) {
  other.state_ = nullptr;
  other.id_ = 0;
}

EvalClient& EvalClient::operator=(EvalClient&& other) noexcept {
  if (this != &other) {
    EvalClient released(std::move(*this));  // unregister current, if any
    state_ = std::move(other.state_);
    id_ = other.id_;
    other.state_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

const SessionConfig& EvalService::config() const { return state_->config; }

double EvalService::now() const { return state_->now(); }

EvalTicket EvalService::submit(const graph::Graph& g,
                               const qaoa::MixerSpec& mixer, std::size_t p,
                               const JobOptions& options) {
  QARCH_REQUIRE(p >= 1, "candidate depth p must be >= 1");
  QARCH_REQUIRE(g.num_edges() >= 1, "evaluation graph needs edges");
  const std::size_t evals = options.training_evals > 0
                                ? options.training_evals
                                : state_->config.training_evals;
  const qaoa::ObjectiveSpec objective =
      options.objective ? *options.objective : state_->config.objective;
  const qaoa::HamiltonianSpec hamiltonian =
      options.hamiltonian ? *options.hamiltonian : state_->config.hamiltonian;
  const std::string graph_key = graph_fingerprint(g);
  const std::string key = detail::result_key(graph_key, mixer, p, evals) +
                          detail::spec_suffix(objective, hamiltonian);

  // Timed cross-process cache pollination: at most one submitter per
  // interval re-reads the shared cache file before the lookups below.
  if (detail::cache_refresh_due(*state_))
    detail::refresh_result_cache(*state_);

  {
    LockGuard lock(state_->mutex);
    ++state_->stats.submitted;
  }
  // Built lazily OUTSIDE the service lock (it deep-copies the graph) and
  // reused across retries; dropped if a racing duplicate wins the caches.
  std::shared_ptr<detail::EvalJob> fresh;
  for (;;) {
    std::shared_ptr<detail::EvalJob> attach;
    bool published = false;
    {
      LockGuard lock(state_->mutex);
      // 1. Completed-result cache.
      if (const auto it = state_->done_by_key.find(key);
          it != state_->done_by_key.end()) {
        state_->done_order.splice(state_->done_order.begin(),
                                  state_->done_order, it->second);
        ++state_->stats.cache_hits;
        auto job = std::make_shared<detail::EvalJob>();
        job->key = key;
        job->service = state_;
        {
          // Unpublished job: the lock is uncontended and exists to make the
          // guarded writes provable to the thread-safety analysis.
          LockGuard jlock(job->mutex);
          job->status = detail::EvalJob::Status::Done;
          job->result = it->second->second.result;
          job->result.from_cache = true;
          job->submitted_at = job->finished_at = state_->now();
        }
        auto handle = std::make_shared<detail::TicketHandle>();
        handle->submitted_at = job->submitted_at;
        handle->job = std::move(job);
        handle->hit = true;
        return EvalTicket(std::move(handle));
      }
      // 2. In-flight duplicate.
      if (const auto it = state_->inflight.find(key);
          it != state_->inflight.end()) {
        attach = it->second.lock();
        if (!attach) state_->inflight.erase(it);
      }
      // 3. Fresh job — publish only if one was prepared on a prior pass:
      //    into the in-flight index for dedup AND into its client's
      //    fair-share queue for dispatch.
      if (!attach && fresh) {
        fresh->submitted_at = state_->now();
        fresh->deadline_at =
            options.deadline_seconds > 0.0
                ? fresh->submitted_at + options.deadline_seconds
                : 0.0;
        fresh->max_eval_seconds = options.max_eval_seconds;
        fresh->max_retries = options.max_retries >= 0
                                 ? options.max_retries
                                 : state_->config.eval_retries;
        fresh->retry_backoff = options.retry_backoff_seconds >= 0.0
                                   ? options.retry_backoff_seconds
                                   : state_->config.retry_backoff_seconds;
        // Warm-start from an in-flight checkpoint (parked here earlier, or
        // persisted by a previous process): the dispatching worker resumes
        // mid-training instead of from step 0.
        if (const auto ck = state_->checkpoints.find(key);
            ck != state_->checkpoints.end()) {
          fresh->checkpoint = ck->second.state;
          fresh->checkpoint_engine = ck->second.engine;
          fresh->evals_done = ck->second.state.evaluations;
        }
        state_->inflight[key] = fresh;
        ++state_->stats.cache_misses;
        const auto cit = state_->clients.find(options.client);
        fresh->client_id =
            (cit != state_->clients.end() && !cit->second.closed)
                ? options.client
                : 0;  // unknown / unregistered ids share the default queue
        fresh->priority = options.priority;
        fresh->seq = state_->next_seq++;
        detail::enqueue_job(*state_, fresh);
        published = true;
      }
    }
    if (attach) {
      bool attached = false;
      {
        LockGuard lock(attach->mutex);
        if (attach->status != detail::EvalJob::Status::Cancelled) {
          ++attach->waiters;
          attached = true;
        }
      }
      if (!attached) {
        // Lost a cancellation race: drop the stale in-flight entry (the
        // canceller may not have reached it yet) and resubmit fresh.
        LockGuard lock(state_->mutex);
        const auto it = state_->inflight.find(key);
        if (it != state_->inflight.end() &&
            it->second.lock() == attach)
          state_->inflight.erase(it);
        continue;
      }
      {
        LockGuard lock(state_->mutex);
        ++state_->stats.cache_hits;
      }
      auto handle = std::make_shared<detail::TicketHandle>();
      handle->submitted_at = state_->now();
      handle->job = std::move(attach);
      handle->hit = true;
      return EvalTicket(std::move(handle));
    }
    if (!published) {
      fresh = std::make_shared<detail::EvalJob>();
      fresh->key = key;
      fresh->graph_key = graph_key;
      fresh->graph = g;
      fresh->mixer = mixer;
      fresh->p = p;
      fresh->training_evals = evals;
      fresh->objective = objective;
      fresh->hamiltonian = hamiltonian;
      fresh->service = state_;
      continue;  // retry the cache checks with the job ready to publish
    }
    // A generic drainer, not this job's closure: the fair-share scheduler
    // decides which queued job the freed worker actually picks up.
    auto state = state_;
    (void)pool_.submit([state] { detail::run_next(state); });
    auto handle = std::make_shared<detail::TicketHandle>();
    handle->submitted_at = fresh->submitted_at;
    handle->job = std::move(fresh);
    return EvalTicket(std::move(handle));
  }
}

std::vector<EvalTicket> EvalService::submit_batch(
    const graph::Graph& g, const std::vector<qaoa::MixerSpec>& mixers,
    std::size_t p, const JobOptions& options) {
  std::vector<EvalTicket> tickets;
  tickets.reserve(mixers.size());
  for (const qaoa::MixerSpec& mixer : mixers)
    tickets.push_back(submit(g, mixer, p, options));
  return tickets;
}

std::vector<CandidateResult> EvalService::collect(
    const std::vector<EvalTicket>& tickets) const {
  return collect(tickets, -1.0);
}

std::vector<CandidateResult> EvalService::collect(
    const std::vector<EvalTicket>& tickets, double timeout_seconds) const {
  std::vector<CandidateResult> results;
  results.reserve(tickets.size());
  const double deadline =
      timeout_seconds >= 0.0 ? state_->now() + timeout_seconds : -1.0;
  for (const EvalTicket& t : tickets) {
    // A cancelled ticket is a withdrawn REQUEST, not a batch failure: skip
    // it instead of throwing away every completed result in the batch.
    if (t.cancelled()) continue;
    try {
      const double remaining =
          deadline < 0.0 ? -1.0 : std::max(0.0, deadline - state_->now());
      const CandidateResult* r = t.wait_for(remaining);
      if (r == nullptr) continue;  // batch deadline passed: skip unresolved
      results.push_back(*r);
    } catch (const Error&) {
      // Cancelled concurrently between the check above and the wait: still
      // a skip, not a batch failure — and so is a job that blew ITS OWN
      // deadline (deadlines are opted into per job; the rest of the batch
      // stays collectable, and the caller can probe ticket.expired()).
      // Real evaluation failures (and jobs cancelled by service shutdown)
      // propagate.
      if (t.cancelled() || t.expired()) continue;
      throw;
    }
    // Per-submission accounting on the caller's copy: a ticket that attached
    // to an in-flight duplicate shares the job's result (whose own flag only
    // covers the done-cache path) but did not trigger this evaluation.
    results.back().from_cache = t.cache_hit();
  }
  return results;
}

EvalService::Stats EvalService::stats() const {
  LockGuard lock(state_->mutex);
  return state_->stats;
}

std::vector<EvalService::ClientInfo> EvalService::clients() const {
  std::vector<ClientInfo> infos;
  LockGuard lock(state_->mutex);
  infos.reserve(state_->clients.size());
  for (const auto& [id, queue] : state_->clients) {
    if (queue.closed) continue;  // handle destroyed; queue draining out
    ClientInfo info;
    info.id = id;
    info.name = queue.name;
    info.weight = queue.weight;
    info.queued = queue.jobs.size();
    infos.push_back(std::move(info));
  }
  std::sort(infos.begin(), infos.end(),
            [](const ClientInfo& a, const ClientInfo& b) { return a.id < b.id; });
  return infos;
}

std::size_t EvalService::pending() const {
  LockGuard lock(state_->mutex);
  std::size_t queued = 0;
  for (const auto& [id, queue] : state_->clients) queued += queue.jobs.size();
  return queued + state_->delayed.size() + state_->running.size();
}

}  // namespace qarch::search

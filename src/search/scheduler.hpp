// The scheduling policy of search::EvalService. The service is mechanism
// (pool, mutex, condition variables, clock, files); which job a free worker
// runs next and when a running slice stops are decided here:
//   * Scheduler<Job>: per-client queues served by deficit round robin
//     (Shreedhar & Varghese, SIGCOMM 1995) in training-evaluation units,
//     priority inside a queue, the retry-delay list and the park requeue;
//   * SliceProbe: park, checkpoint or expire at an optimizer safe point;
//   * deadline_passed: the one deadline rule (dispatch, slice, waiter).
// The clock arrives as a `double now` argument. Nothing here holds a thread,
// lock, clock or file (tools/qarch_lint.py rule R9) or is thread-safe: the
// service mutex (service.state, rank 30) guards its one Scheduler. So
// tests/test_scheduler.cpp asserts exact orders and verdicts, no threads.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qarch::search {

/// True once a job whose deadline is `deadline_at` (service-clock seconds,
/// 0 = none) has run out of time at `now`.
[[nodiscard]] bool deadline_passed(double deadline_at, double now);

/// The fair-share cost of a job: the training evaluations it has left, at
/// least 1. A parked job already banked `done` of its `budget`, so the next
/// dispatch charges only the remainder (net, a client pays for the
/// evaluations its slices actually consumed).
[[nodiscard]] double job_cost(std::size_t budget, std::size_t done);

/// The backoff before rerunning a job that has failed `attempts` times
/// before this failure: base × 2^attempts, or nullopt once `max_retries`
/// reruns are spent.
[[nodiscard]] std::optional<double> retry_delay(int attempts, int max_retries,
                                                double base);

/// Where a job waits: its client's queue and its key there (priority
/// descending, then FIFO by seq). Every call that (re)queues a job returns
/// its new slot; withdraw() takes it back.
struct QueueSlot {
  std::size_t client = 0;
  int priority = 0;
  std::uint64_t seq = 0;
};

/// The fair-share dispatcher over opaque, copyable `Job` handles (the
/// service's EvalJob pointers, tests' integers). Client 0 is the default
/// weight-1 queue. Each round-robin visit grants a queue weight × quantum
/// cost units, the quantum being the costliest head job queued, and the
/// queue dispatches while its deficit covers its head's cost. A queue that
/// empties leaves the rotation and forfeits its deficit; a closed one is
/// then reclaimed.
template <class Job>
class Scheduler {
 public:
  /// What pop() found: a job to run; else, while retries are still backing
  /// off, the service-clock time the earliest falls due; else neither —
  /// nothing is left.
  struct Pop {
    std::optional<Job> job;
    std::optional<double> due;
  };

  /// One queue, as EvalService::clients() reports it.
  struct ClientView {
    std::size_t id = 0;
    std::string name;
    double weight = 1.0;
    std::size_t queued = 0;
    bool closed = false;  ///< handle gone, jobs still queued
  };

  Scheduler() { clients_[0].name = "default"; }

  /// Opens queue `id` (unique, never 0). `weight` must be in [0.001, 1000]:
  /// each visit grants weight × quantum, so the lower bound caps one
  /// dispatch at ~1/weight rotations.
  void add_client(std::size_t id, std::string name, double weight) {
    QARCH_REQUIRE(weight >= 1e-3 && weight <= 1e3 && std::isfinite(weight),
                  "client weight must be in [0.001, 1000]");
    ClientQueue& queue = clients_[id];
    queue.name = std::move(name);
    queue.weight = weight;
  }

  /// Closes queue `id`: reclaimed now if empty, else once it drains (its
  /// queued jobs still run). Later submissions naming it use the default
  /// queue.
  void close_client(std::size_t id) {
    const auto it = clients_.find(id);
    if (it == clients_.end() || id == 0) return;
    if (it->second.jobs.empty())
      clients_.erase(it);
    else
      it->second.closed = true;
  }

  /// Queues a new job. An unknown or closed `client` means the default
  /// queue.
  QueueSlot push(Job job, std::size_t client, int priority, double cost) {
    const auto it = clients_.find(client);
    const bool open = it != clients_.end() && !it->second.closed;
    const QueueSlot slot{open ? client : 0, priority, next_seq_++};
    enqueue({std::move(job), cost}, slot);
    return slot;
  }

  /// Requeues a parked job at the back of its priority class with its
  /// remaining `cost` refunded to its queue (the next dispatch re-charges
  /// it), and yields the next dispatch to the queue after its own in the
  /// rotation: with the refund, a rotation pointing at the parked queue
  /// would re-dispatch the job that just parked. (A queue that emptied at
  /// the job's dispatch rejoins the rotation at its end.)
  QueueSlot park(Job job, QueueSlot slot, double cost) {
    slot.seq = next_seq_++;
    enqueue({std::move(job), cost}, slot);
    clients_[slot.client].deficit += cost;
    const auto pos = std::find(rr_order_.begin(), rr_order_.end(), slot.client);
    rr_cursor_ = static_cast<std::size_t>(pos - rr_order_.begin() + 1) %
                 rr_order_.size();
    rr_granted_ = false;
    return slot;
  }

  /// Holds a job back until `not_before` (a retry's backoff). Its FIFO
  /// place is taken now, so once due it runs ahead of equal-priority work
  /// submitted during the backoff.
  QueueSlot delay(Job job, QueueSlot slot, double cost, double not_before) {
    slot.seq = next_seq_++;
    delayed_.push_back({not_before, slot, {std::move(job), cost}});
    return slot;
  }

  /// Removes a queued job (a no-op once it was popped).
  void withdraw(const QueueSlot& slot) {
    const auto it = clients_.find(slot.client);
    if (it != clients_.end() &&
        it->second.jobs.erase({-slot.priority, slot.seq}) > 0 &&
        it->second.jobs.empty())
      deactivate(slot.client);
  }

  /// The next job by deficit round robin. Retries due at `now` join their
  /// queues first; `stopping` makes every retry due, so a shutting-down
  /// service resolves them instead of leaving their tickets hanging.
  Pop pop(double now, bool stopping) {
    const auto due = [&](const Delayed& d) {
      return stopping || now >= d.not_before;
    };
    for (Delayed& d : delayed_)
      if (due(d)) enqueue(std::move(d.entry), d.slot);
    std::erase_if(delayed_, due);
    if (rr_order_.empty()) {
      if (delayed_.empty()) return {};
      double next = delayed_.front().not_before;
      for (const Delayed& d : delayed_) next = std::min(next, d.not_before);
      return {std::nullopt, next};
    }
    double quantum = 1.0;
    for (const std::size_t id : rr_order_)
      quantum = std::max(quantum, clients_[id].jobs.begin()->second.cost);
    for (;;) {
      if (rr_cursor_ >= rr_order_.size()) rr_cursor_ = 0;
      const std::size_t id = rr_order_[rr_cursor_];
      ClientQueue& queue = clients_[id];
      const auto head = queue.jobs.begin();
      const double cost = head->second.cost;
      if (queue.deficit < cost && !rr_granted_) {
        queue.deficit += queue.weight * quantum;
        rr_granted_ = true;
      }
      if (queue.deficit < cost) {  // grant spent: the next queue's turn
        ++rr_cursor_;
        rr_granted_ = false;
        continue;
      }
      queue.deficit -= cost;
      Job job = std::move(head->second.job);
      queue.jobs.erase(head);
      if (queue.jobs.empty()) deactivate(id);
      return {std::move(job), std::nullopt};
    }
  }

  /// True when a client other than `client` has queued work: the condition
  /// under which a running slice of `client` parks once its quantum is up.
  [[nodiscard]] bool contended(std::size_t client) const {
    return std::any_of(rr_order_.begin(), rr_order_.end(),
                       [client](std::size_t id) { return id != client; });
  }

  /// Removes and returns every queued and delayed job (a draining
  /// service's sweep).
  std::vector<Job> take_all() {
    std::vector<Job> jobs;
    for (auto it = clients_.begin(); it != clients_.end();) {
      for (auto& [key, entry] : it->second.jobs)
        jobs.push_back(std::move(entry.job));
      it->second.jobs.clear();
      it->second.deficit = 0.0;
      it = it->second.closed ? clients_.erase(it) : std::next(it);
    }
    for (Delayed& d : delayed_) jobs.push_back(std::move(d.entry.job));
    delayed_.clear();
    rr_order_.clear();
    rr_cursor_ = 0;
    rr_granted_ = false;
    return jobs;
  }

  /// Jobs queued or delayed.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = delayed_.size();
    for (const auto& [id, queue] : clients_) n += queue.jobs.size();
    return n;
  }

  /// Every queue not yet reclaimed (the default one included), by id.
  [[nodiscard]] std::vector<ClientView> clients() const {
    std::vector<ClientView> views;
    for (const auto& [id, queue] : clients_)
      views.push_back(
          {id, queue.name, queue.weight, queue.jobs.size(), queue.closed});
    return views;
  }

 private:
  struct Entry {
    Job job;
    double cost = 1.0;  ///< job_cost when (re)queued
  };
  struct ClientQueue {
    std::string name;
    double weight = 1.0;
    double deficit = 0.0;  ///< cost units this queue may still spend
    bool closed = false;   ///< handle gone; reclaim once drained
    std::map<std::pair<int, std::uint64_t>, Entry> jobs;  ///< (−priority, seq)
  };
  struct Delayed {
    double not_before = 0.0;
    QueueSlot slot;
    Entry entry;
  };

  /// Files an entry under its slot. A queue reclaimed while its job ran or
  /// backed off comes back closed, so it is reclaimed again once drained.
  void enqueue(Entry entry, const QueueSlot& slot) {
    const auto [it, created] = clients_.try_emplace(slot.client);
    ClientQueue& queue = it->second;
    if (created) queue.closed = true;
    if (queue.jobs.empty()) rr_order_.push_back(slot.client);
    queue.jobs.emplace(std::make_pair(-slot.priority, slot.seq),
                       std::move(entry));
  }

  /// Takes an emptied queue out of the rotation. The cursor keeps pointing
  /// at the next unvisited queue; a visit starting there has no grant yet.
  void deactivate(std::size_t id) {
    const auto pos = std::find(rr_order_.begin(), rr_order_.end(), id);
    if (pos != rr_order_.end()) {
      const auto index = static_cast<std::size_t>(pos - rr_order_.begin());
      rr_order_.erase(pos);
      if (index < rr_cursor_)
        --rr_cursor_;
      else if (index == rr_cursor_)
        rr_granted_ = false;
    }
    const auto it = clients_.find(id);
    if (it == clients_.end()) return;
    it->second.deficit = 0.0;  // no banked credit across idle periods
    if (it->second.closed) clients_.erase(it);
  }

  std::map<std::size_t, ClientQueue> clients_;
  std::vector<std::size_t> rr_order_;  ///< ids of non-empty queues
  std::size_t rr_cursor_ = 0;          ///< position in rr_order_
  bool rr_granted_ = false;  ///< the cursor's queue drew this visit's grant
  std::uint64_t next_seq_ = 0;
  std::vector<Delayed> delayed_;
};

/// Why a running slice stops at an optimizer safe point.
enum class SliceVerdict {
  Run,         ///< keep going
  Checkpoint,  ///< cadence reached: bank the state, keep the worker
  Park,        ///< free the worker and requeue (draining, or quantum up
               ///< while another client waits)
  Expire,      ///< deadline or run-time budget blown
};

/// The stop policy of one running slice, asked at every optimizer safe
/// point. Checked in this order: draining parks; a passed deadline or a
/// spent max_eval_seconds (summed across slices) expires; the checkpoint
/// cadence checkpoints; an elapsed quantum parks while another client has
/// queued work, and otherwise probes again half a quantum later.
class SliceProbe {
 public:
  struct Limits {
    double deadline_at = 0.0;          ///< service-clock expiry (0 = none)
    double max_eval_seconds = 0.0;     ///< run time across slices (0 = none)
    std::size_t checkpoint_evals = 0;  ///< cadence (0 = none)
    double quantum = 0.0;              ///< preemption quantum (0 = none)
  };

  /// A slice starting at `slice_start` of a job that already ran
  /// `run_before` seconds in earlier slices.
  SliceProbe(const Limits& limits, double slice_start, double run_before)
      : limits_(limits), slice_start_(slice_start), run_before_(run_before) {}

  /// The verdict after `evaluations` objective calls, as counted by the
  /// optimizer. Multistart restarts that count per inner run, so deltas
  /// accumulate toward the cadence. `contended` is asked only when the
  /// quantum is up and a probe is due; it answers whether another client
  /// has queued work.
  SliceVerdict verdict(std::size_t evaluations, double now, bool draining,
                       const std::function<bool()>& contended);

 private:
  Limits limits_;
  double slice_start_ = 0.0;
  double run_before_ = 0.0;
  double next_probe_ = 0.0;
  std::size_t last_evals_ = 0;
  std::size_t acc_evals_ = 0;
};

}  // namespace qarch::search

// search::Scheduler tests: the scheduling policy of EvalService, driven
// directly. No threads, no sleeps, no timing bounds — the clock is the `now`
// each call receives, so every dispatch order and slice verdict below is an
// exact assertion. (test_eval_service.cpp keeps the service-level fair-share
// tests; they check the wiring.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "search/scheduler.hpp"

namespace {

using namespace qarch;
using search::QueueSlot;
using search::SliceProbe;
using search::SliceVerdict;
using Sched = search::Scheduler<int>;

/// Pops at `now` until nothing is runnable; the jobs in dispatch order.
std::vector<int> pop_all(Sched& s, double now = 0.0) {
  std::vector<int> order;
  for (auto next = s.pop(now, false); next.job; next = s.pop(now, false))
    order.push_back(*next.job);
  return order;
}

// ---------------------------------------------------------------------------
// Deficit round robin
// ---------------------------------------------------------------------------

TEST(Scheduler, EqualWeightsAlternateClients) {
  // Jobs are numbered client × 100 + submission index.
  Sched s;
  s.add_client(1, "wide", 1.0);
  s.add_client(2, "interactive", 1.0);
  for (int j = 0; j < 5; ++j) s.push(100 + j, 1, 0, 60.0);
  for (int j = 0; j < 3; ++j) s.push(200 + j, 2, 0, 61.0);
  // W I W I W I W W: each visit's grant (the quantum, 61) covers one job.
  EXPECT_EQ(pop_all(s),
            (std::vector<int>{100, 200, 101, 201, 102, 202, 103, 104}));
}

TEST(Scheduler, WeightsScaleEachVisitsGrant) {
  Sched s;
  s.add_client(1, "light", 1.0);
  s.add_client(2, "favoured", 4.0);
  for (int j = 0; j < 5; ++j) s.push(100 + j, 1, 0, 60.0);
  for (int j = 0; j < 4; ++j) s.push(200 + j, 2, 0, 61.0);
  // L F F F F L L L L: weight 4 draws 4 × 61, the favoured client's whole
  // queue, on its first visit.
  EXPECT_EQ(pop_all(s),
            (std::vector<int>{100, 200, 201, 202, 203, 101, 102, 103, 104}));
}

TEST(Scheduler, PriorityOrdersOneClientsQueue) {
  Sched s;
  s.add_client(1, "prioritized", 1.0);
  s.push(0, 1, 0, 40.0);
  s.push(1, 1, 0, 40.0);
  s.push(2, 1, 7, 40.0);  // the last submission outranks the rest
  EXPECT_EQ(pop_all(s), (std::vector<int>{2, 0, 1}));
}

TEST(Scheduler, UnknownOrClosedClientsUseTheDefaultQueue) {
  Sched s;
  EXPECT_EQ(s.push(1, 0, 0, 1.0).client, 0u);
  EXPECT_EQ(s.push(2, 99, 0, 1.0).client, 0u);  // never registered
  s.add_client(5, "gone", 1.0);
  s.close_client(5);
  EXPECT_EQ(s.push(3, 5, 0, 1.0).client, 0u);
  EXPECT_EQ(pop_all(s), (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ParkRefundsTheRemainderAndYields) {
  Sched s;
  s.add_client(1, "a", 1.0);
  s.add_client(2, "b", 1.0);
  const QueueSlot a1 = s.push(101, 1, 0, 60.0);
  s.push(102, 1, 0, 60.0);
  s.push(201, 2, 0, 60.0);
  s.push(202, 2, 0, 60.0);
  EXPECT_EQ(s.pop(0.0, false).job, 101);
  // a1 parks with 40 of its 60 evaluations left: requeued behind a2, its
  // queue refunded 40, and the next dispatch yielded to b.
  const QueueSlot parked = s.park(101, a1, 40.0);
  EXPECT_EQ(parked.client, 1u);
  EXPECT_GT(parked.seq, a1.seq);
  EXPECT_EQ(s.pop(0.0, false).job, 201);
  // On a's next visit the refund (40) plus the grant (60) covers a2 (60)
  // and the parked remainder (40); without the refund b2 would come
  // between them.
  EXPECT_EQ(pop_all(s), (std::vector<int>{102, 101, 202}));
}

TEST(Scheduler, ParkOfADrainedQueueYieldsToTheWaitingClient) {
  // The batch job's dispatch empties its queue; the park puts that queue
  // back at the end of the rotation, behind the interactive one, and the
  // yield must land on the interactive job, not on the refunded batch job.
  Sched s;
  s.add_client(1, "batch", 1.0);
  s.add_client(2, "interactive", 1.0);
  const QueueSlot batch = s.push(100, 1, 0, 60.0);
  EXPECT_EQ(s.pop(0.0, false).job, 100);
  s.push(200, 2, 0, 60.0);
  s.park(100, batch, 40.0);
  EXPECT_EQ(pop_all(s), (std::vector<int>{200, 100}));
}

TEST(Scheduler, ParkYieldsToAnInteractiveJobQueuedBeforeTheDispatch) {
  // The same with the interactive job already waiting when the batch job
  // is dispatched.
  Sched s;
  s.add_client(1, "batch", 1.0);
  s.add_client(2, "interactive", 1.0);
  const QueueSlot batch = s.push(100, 1, 0, 60.0);
  s.push(200, 2, 0, 60.0);
  EXPECT_EQ(s.pop(0.0, false).job, 100);
  s.park(100, batch, 40.0);
  EXPECT_EQ(pop_all(s), (std::vector<int>{200, 100}));
}

TEST(Scheduler, WithdrawRemovesAQueuedJobOnly) {
  Sched s;
  const QueueSlot first = s.push(1, 0, 0, 1.0);
  const QueueSlot second = s.push(2, 0, 0, 1.0);
  s.push(3, 0, 0, 1.0);
  s.withdraw(second);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.pop(0.0, false).job, 1);
  s.withdraw(first);  // already popped: no-op
  EXPECT_EQ(pop_all(s), (std::vector<int>{3}));
  EXPECT_EQ(s.size(), 0u);
}

TEST(Scheduler, ContendedMeansAnotherClientHasQueuedWork) {
  Sched s;
  s.add_client(1, "a", 1.0);
  s.add_client(2, "b", 1.0);
  EXPECT_FALSE(s.contended(1));
  s.push(10, 1, 0, 1.0);
  EXPECT_FALSE(s.contended(1));  // its own queue does not count
  EXPECT_TRUE(s.contended(2));
  s.push(20, 2, 0, 1.0);
  EXPECT_TRUE(s.contended(1));
  (void)pop_all(s);
  EXPECT_FALSE(s.contended(2));
}

// ---------------------------------------------------------------------------
// Retries
// ---------------------------------------------------------------------------

TEST(Scheduler, DelayedJobsWaitForTheirDueTime) {
  Sched s;
  s.delay(7, QueueSlot{}, 1.0, 5.0);
  s.delay(8, QueueSlot{}, 1.0, 3.0);
  EXPECT_EQ(s.size(), 2u);
  auto next = s.pop(1.0, false);
  EXPECT_FALSE(next.job);
  EXPECT_EQ(next.due, 3.0);  // the earliest not_before
  EXPECT_EQ(s.pop(3.0, false).job, 8);
  next = s.pop(4.0, false);
  EXPECT_FALSE(next.job);
  EXPECT_EQ(next.due, 5.0);
  EXPECT_EQ(s.pop(5.0, false).job, 7);
  next = s.pop(5.0, false);
  EXPECT_FALSE(next.job);
  EXPECT_FALSE(next.due);  // nothing left
}

TEST(Scheduler, StoppingPopPromotesEveryDelayedJob) {
  Sched s;
  s.delay(1, QueueSlot{}, 1.0, 100.0);
  s.delay(2, QueueSlot{}, 1.0, 200.0);
  EXPECT_EQ(s.pop(0.0, true).job, 1);
  EXPECT_EQ(s.pop(0.0, false).job, 2);  // promoted by the stopping pop
  EXPECT_EQ(s.size(), 0u);
}

TEST(Scheduler, RetryKeepsItsPlaceAheadOfLaterSubmissions) {
  Sched s;
  s.add_client(1, "a", 1.0);
  const QueueSlot slot = s.push(1, 1, 0, 1.0);
  EXPECT_EQ(s.pop(0.0, false).job, 1);
  const QueueSlot retry = s.delay(1, slot, 1.0, 2.0);
  EXPECT_EQ(retry.client, 1u);
  s.push(2, 1, 0, 1.0);  // submitted during the backoff
  EXPECT_EQ(pop_all(s, 1.0), (std::vector<int>{2}));
  s.push(3, 1, 0, 1.0);
  EXPECT_EQ(pop_all(s, 2.0), (std::vector<int>{1, 3}));
}

TEST(Scheduler, RetryDelayDoublesUntilTheBudgetIsSpent) {
  EXPECT_EQ(search::retry_delay(0, 3, 0.05), 0.05);
  EXPECT_EQ(search::retry_delay(1, 3, 0.05), 0.1);
  EXPECT_EQ(search::retry_delay(2, 3, 0.05), 0.2);
  EXPECT_FALSE(search::retry_delay(3, 3, 0.05));
  EXPECT_FALSE(search::retry_delay(0, 0, 0.05));
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

TEST(Scheduler, ClosedClientIsReclaimedOnceItsQueueDrains) {
  Sched s;
  s.add_client(1, "leaving", 2.0);
  s.add_client(2, "idle", 1.0);
  s.push(10, 1, 0, 5.0);
  s.push(11, 1, 0, 5.0);
  s.close_client(1);
  s.close_client(2);  // empty: reclaimed at once
  auto views = s.clients();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].id, 0u);
  EXPECT_EQ(views[0].name, "default");
  EXPECT_FALSE(views[0].closed);
  EXPECT_EQ(views[1].id, 1u);
  EXPECT_TRUE(views[1].closed);
  EXPECT_EQ(views[1].queued, 2u);
  EXPECT_EQ(views[1].weight, 2.0);
  EXPECT_EQ(pop_all(s), (std::vector<int>{10, 11}));  // its jobs still run
  views = s.clients();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].id, 0u);
}

TEST(Scheduler, ParkedJobOfAReclaimedClientReturnsToAClosedQueue) {
  Sched s;
  s.add_client(1, "leaving", 1.0);
  const QueueSlot slot = s.push(10, 1, 0, 5.0);
  EXPECT_EQ(s.pop(0.0, false).job, 10);
  s.close_client(1);  // reclaimed while its job runs
  s.park(10, slot, 3.0);
  auto views = s.clients();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_TRUE(views[1].closed);
  EXPECT_EQ(s.pop(0.0, false).job, 10);
  EXPECT_EQ(s.clients().size(), 1u);
}

TEST(Scheduler, TakeAllSweepsQueuedAndDelayedJobs) {
  Sched s;
  s.add_client(1, "a", 1.0);
  s.push(1, 1, 0, 1.0);
  s.push(2, 0, 0, 1.0);
  s.delay(3, QueueSlot{}, 1.0, 50.0);
  auto jobs = s.take_all();
  std::sort(jobs.begin(), jobs.end());
  EXPECT_EQ(jobs, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.size(), 0u);
  const auto next = s.pop(0.0, false);
  EXPECT_FALSE(next.job);
  EXPECT_FALSE(next.due);
}

TEST(Scheduler, WeightsOutsideTheBoundsThrow) {
  Sched s;
  EXPECT_THROW(s.add_client(1, "zero", 0.0), InvalidArgument);
  EXPECT_THROW(s.add_client(1, "negative", -1.0), InvalidArgument);
  EXPECT_THROW(s.add_client(1, "tiny", 1e-4), InvalidArgument);
  EXPECT_THROW(s.add_client(1, "huge", 1e4), InvalidArgument);
  EXPECT_THROW(s.add_client(1, "nan", std::nan("")), InvalidArgument);
  EXPECT_THROW(
      s.add_client(1, "inf", std::numeric_limits<double>::infinity()),
      InvalidArgument);
  EXPECT_NO_THROW(s.add_client(1, "lowest", 1e-3));
  EXPECT_NO_THROW(s.add_client(2, "highest", 1e3));
}

TEST(Scheduler, JobCostIsTheRemainingBudget) {
  EXPECT_EQ(search::job_cost(100, 0), 100.0);
  EXPECT_EQ(search::job_cost(100, 40), 60.0);
  EXPECT_EQ(search::job_cost(100, 100), 1.0);  // never free
}

// ---------------------------------------------------------------------------
// Slice verdicts, in the order they are checked
// ---------------------------------------------------------------------------

/// A `contended` answer that counts how often it was asked.
struct Contention {
  bool answer = false;
  int asked = 0;
  [[nodiscard]] std::function<bool()> fn() {
    return [this] {
      ++asked;
      return answer;
    };
  }
};

TEST(SliceProbe, DrainingParksBeforeAnythingElse) {
  SliceProbe probe({.deadline_at = 1.0, .checkpoint_evals = 1}, 0.0, 0.0);
  Contention c;
  EXPECT_EQ(probe.verdict(5, 2.0, true, c.fn()), SliceVerdict::Park);
}

TEST(SliceProbe, PassedDeadlineExpires) {
  SliceProbe probe({.deadline_at = 5.0, .checkpoint_evals = 1}, 0.0, 0.0);
  Contention c;
  EXPECT_EQ(probe.verdict(0, 4.9, false, c.fn()), SliceVerdict::Run);
  // At the deadline it expires, ahead of the due checkpoint.
  EXPECT_EQ(probe.verdict(1, 5.0, false, c.fn()), SliceVerdict::Expire);
  EXPECT_TRUE(search::deadline_passed(5.0, 5.0));
  EXPECT_FALSE(search::deadline_passed(5.0, 4.9));
  EXPECT_FALSE(search::deadline_passed(0.0, 1e9));  // 0 = no deadline
}

TEST(SliceProbe, RunTimeBudgetIsSummedAcrossSlices) {
  // 7 s banked by earlier slices; this slice started at t = 100.
  SliceProbe probe({.max_eval_seconds = 10.0, .checkpoint_evals = 1}, 100.0,
                   7.0);
  Contention c;
  EXPECT_EQ(probe.verdict(0, 102.9, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(probe.verdict(1, 103.0, false, c.fn()), SliceVerdict::Expire);
}

TEST(SliceProbe, CheckpointCadenceCountsEvaluationDeltas) {
  SliceProbe probe({.checkpoint_evals = 10, .quantum = 1.0}, 0.0, 0.0);
  Contention c{.answer = true};
  EXPECT_EQ(probe.verdict(4, 0.1, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(probe.verdict(9, 0.2, false, c.fn()), SliceVerdict::Run);
  // The due cadence checkpoints ahead of a contended, elapsed quantum, and
  // its count starts over.
  EXPECT_EQ(probe.verdict(10, 2.0, false, c.fn()), SliceVerdict::Checkpoint);
  EXPECT_EQ(c.asked, 0);
  c.answer = false;  // nobody waits from here on
  EXPECT_EQ(probe.verdict(15, 2.1, false, c.fn()), SliceVerdict::Run);  // 5
  // A multistart restart resets the optimizer's count: 3 more, then 2.
  EXPECT_EQ(probe.verdict(3, 2.2, false, c.fn()), SliceVerdict::Run);  // 8
  EXPECT_EQ(probe.verdict(5, 2.3, false, c.fn()),
            SliceVerdict::Checkpoint);  // 10
}

TEST(SliceProbe, ElapsedQuantumParksForAnotherClient) {
  SliceProbe probe({.quantum = 1.0}, 10.0, 0.0);
  Contention c{.answer = true};
  EXPECT_EQ(probe.verdict(1, 10.5, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(c.asked, 0);  // quantum not up: nobody asked
  EXPECT_EQ(probe.verdict(2, 11.0, false, c.fn()), SliceVerdict::Park);
  EXPECT_EQ(c.asked, 1);
}

TEST(SliceProbe, UncontendedQuantumProbesAgainHalfAQuantumLater) {
  SliceProbe probe({.quantum = 1.0}, 0.0, 0.0);
  Contention c;
  EXPECT_EQ(probe.verdict(1, 1.0, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(c.asked, 1);
  c.answer = true;  // another client queues work
  EXPECT_EQ(probe.verdict(2, 1.4, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(c.asked, 1);  // next probe not due until 1.5
  EXPECT_EQ(probe.verdict(3, 1.5, false, c.fn()), SliceVerdict::Park);
  EXPECT_EQ(c.asked, 2);
}

TEST(SliceProbe, NoLimitsRunsStraightThrough) {
  SliceProbe probe({}, 0.0, 0.0);
  Contention c{.answer = true};
  EXPECT_EQ(probe.verdict(1000, 1e6, false, c.fn()), SliceVerdict::Run);
  EXPECT_EQ(c.asked, 0);
}

}  // namespace

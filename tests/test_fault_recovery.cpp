// Fault-tolerance tests: the QARCH_FAULT grammar, retry-with-backoff, the
// deadline/timeout surface, drain/park/resume across service instances on a
// shared checkpoint file, checkpoint-file corruption tolerance, and a real
// fork()-based kill-and-resume (a worker crashes mid-training with
// _Exit(137); a fresh process restarted on the same paths finishes the run
// bit-identically), and parallel_for in a child forked after the parent
// used its inner team.
//
// NOTE: this file is intentionally NOT named test_eval_service / test_parallel
// — the TSan CI leg filters to those, and fork() under TSan is unsupported.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "search/combinations.hpp"
#include "search/eval_service.hpp"
#include "search/fault.hpp"
#include "search/report_io.hpp"
#include "session.hpp"

namespace {

using namespace qarch;

SessionConfig fast_session() {
  SessionConfig s;
  s.backend = BackendChoice::Statevector;
  s.training_evals = 30;
  s.shots = 32;
  s.sample_trials = 2;
  return s;
}

graph::Graph test_graph(std::uint64_t seed, std::size_t n = 6,
                        std::size_t degree = 3) {
  Rng rng(seed);
  return graph::random_regular(n, degree, rng);
}

/// Puts the process-global injector back to inert no matter how a test exits.
struct FaultGuard {
  FaultGuard() { search::FaultInjector::instance().reset(); }
  ~FaultGuard() { search::FaultInjector::instance().reset(); }
};

std::string temp_path(const std::string& name) {
  const std::string p =
      "/tmp/qarch_fault_" + std::to_string(::getpid()) + "_" + name;
  std::remove(p.c_str());
  return p;
}

bool wait_for_file(const std::string& path, double timeout_seconds) {
  const int ticks = static_cast<int>(timeout_seconds * 1000.0);
  for (int i = 0; i < ticks; ++i) {
    if (std::ifstream(path).good()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(FaultPlan, GrammarParses) {
  const auto fail = search::parse_fault_plan("fail=0.1,seed=7");
  EXPECT_DOUBLE_EQ(fail.fail_rate, 0.1);
  EXPECT_EQ(fail.seed, 7u);
  EXPECT_TRUE(fail.enabled());

  const auto first = search::parse_fault_plan("failfirst=2");
  EXPECT_EQ(first.fail_first, 2u);
  EXPECT_TRUE(first.enabled());

  const auto delay = search::parse_fault_plan("delay=0.01@0.5");
  EXPECT_DOUBLE_EQ(delay.delay_seconds, 0.01);
  EXPECT_DOUBLE_EQ(delay.delay_rate, 0.5);
  EXPECT_TRUE(delay.enabled());

  const auto crash = search::parse_fault_plan("crash=checkpoint:3");
  EXPECT_EQ(crash.crash_point, "checkpoint");
  EXPECT_EQ(crash.crash_after, 3u);
  EXPECT_TRUE(crash.enabled());

  EXPECT_FALSE(search::parse_fault_plan("").enabled());
  EXPECT_THROW(search::parse_fault_plan("bogus=1"), Error);
  EXPECT_THROW(search::parse_fault_plan("fail=notanumber"), Error);
}

TEST(FaultPlan, InjectorVerdictsAreDeterministic) {
  FaultGuard guard;
  auto& inj = search::FaultInjector::instance();

  search::FaultPlan all;
  all.fail_rate = 1.0;
  inj.configure(all);
  EXPECT_THROW(inj.on_evaluation("k", 0), search::FaultInjected);
  EXPECT_GE(inj.injected_failures(), 1u);

  search::FaultPlan none;
  none.fail_rate = 0.0;
  inj.configure(none);
  EXPECT_NO_THROW(inj.on_evaluation("k", 0));

  search::FaultPlan slow;
  slow.delay_seconds = 0.001;
  slow.delay_rate = 1.0;
  inj.configure(slow);
  EXPECT_NO_THROW(inj.on_evaluation("k", 0));
  EXPECT_GE(inj.injected_delays(), 1u);

  // Visiting a point that is not the crash point is a no-op.
  search::FaultPlan crash;
  crash.crash_point = "never-visited";
  crash.crash_after = 1;
  inj.configure(crash);
  inj.at_point("checkpoint");
}

TEST(FaultRecovery, RetryWithBackoffRecovers) {
  FaultGuard guard;
  const auto g = test_graph(31);

  // Clean reference, injector inert.
  search::EvalService reference(fast_session());
  const auto expected = reference.submit(g, qaoa::MixerSpec::qnas(), 1).wait();

  // First two attempts of every job fail; the third succeeds.
  search::FaultPlan plan;
  plan.fail_first = 2;
  search::FaultInjector::instance().configure(plan);

  search::EvalService service(fast_session());
  search::JobOptions options;
  options.max_retries = 3;
  options.retry_backoff_seconds = 0.001;
  auto ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1, options);
  const auto& r = ticket.wait();

  EXPECT_EQ(r.energy, expected.energy);
  EXPECT_EQ(r.theta, expected.theta);
  const auto stats = service.stats();
  EXPECT_EQ(stats.retried, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(FaultRecovery, ExhaustedRetriesFail) {
  FaultGuard guard;
  search::FaultPlan plan;
  plan.fail_first = 10;  // more than the retry budget
  search::FaultInjector::instance().configure(plan);

  search::EvalService service(fast_session());
  search::JobOptions options;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.001;
  auto ticket = service.submit(test_graph(37), qaoa::MixerSpec::qnas(), 1,
                               options);
  EXPECT_THROW(ticket.wait(), Error);

  const auto stats = service.stats();
  EXPECT_EQ(stats.retried, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(FaultRecovery, DeadlineExpiresQueuedJobAndWaitForTimesOut) {
  const auto g = test_graph(41);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  ASSERT_GE(cohort.size(), 3u);

  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  // Occupy the single worker long enough that the jobs behind it stay
  // queued past their deadlines.
  search::JobOptions big;
  big.training_evals = 2000;
  auto blocker = service.submit(g, cohort[0], 1, big);

  search::JobOptions doomed_options;
  doomed_options.deadline_seconds = 1e-4;
  auto doomed = service.submit(g, cohort[1], 1, doomed_options);
  auto queued = service.submit(g, cohort[2], 1);

  // Still queued behind the blocker: a zero-timeout poll returns nullptr.
  EXPECT_EQ(queued.wait_for(0.0), nullptr);

  // The deadline job expires from the WAITER side — no worker ever has to
  // dispatch it for the wait to resolve.
  EXPECT_THROW(doomed.wait(), Error);
  EXPECT_TRUE(doomed.expired());
  EXPECT_FALSE(doomed.cancelled());
  EXPECT_GE(service.stats().deadline_expired, 1u);

  // collect() skips expired tickets like cancelled ones instead of throwing.
  EXPECT_TRUE(service.collect({doomed}).empty());

  // Everything without a deadline still completes.
  const auto* r = queued.wait_for(-1.0);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->eval_seconds, 0.0);
  (void)blocker.wait();
}

TEST(FaultRecovery, DrainParksAndSecondServiceResumes) {
  const auto g = test_graph(43);
  const std::string ckpt = temp_path("drain_ckpt.json");
  constexpr std::size_t kBudget = 1000;

  // Clean uninterrupted reference.
  search::JobOptions options;
  options.training_evals = kBudget;
  search::CandidateResult expected;
  {
    search::EvalService reference(fast_session());
    expected = reference.submit(g, qaoa::MixerSpec::qnas(), 1, options).wait();
  }

  std::size_t parked = 0;
  {
    SessionConfig session = fast_session();
    session.workers = 1;
    session.checkpoint_path = ckpt;
    session.checkpoint_evals = 5;
    search::EvalService service(session);
    auto ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1, options);
    // The first in-flight checkpoint lands on disk after ~5 of the 1000
    // budgeted objective calls — once it exists the job is provably
    // mid-training, and drain() must park it rather than lose it.
    ASSERT_TRUE(wait_for_file(ckpt, 30.0)) << "no checkpoint persisted";
    parked = service.drain(30.0);
    EXPECT_GE(parked, 1u);
    EXPECT_GE(service.stats().parked, 1u);
  }

  // A fresh service on the same path picks the checkpoint up and the SAME
  // submission resumes mid-training to a bit-identical result: nothing was
  // lost to the drain and nothing retrained from step 0.
  SessionConfig session = fast_session();
  session.workers = 1;
  session.checkpoint_path = ckpt;
  session.checkpoint_evals = 5;
  search::EvalService service(session);
  EXPECT_GE(service.stats().checkpoints_loaded, 1u);
  const auto r = service.submit(g, qaoa::MixerSpec::qnas(), 1, options).wait();
  EXPECT_EQ(r.energy, expected.energy);
  EXPECT_EQ(r.ratio, expected.ratio);
  EXPECT_EQ(r.theta, expected.theta);
  EXPECT_EQ(r.evaluations, expected.evaluations);
  const auto stats = service.stats();
  EXPECT_GE(stats.resumed, 1u);
  EXPECT_EQ(stats.checkpoints_discarded, 0u);
  std::remove(ckpt.c_str());
}

TEST(FaultRecovery, CheckpointFileCorruptionTolerated) {
  const std::string path = temp_path("corrupt_ckpt.json");

  // Missing file.
  EXPECT_TRUE(search::load_checkpoints(path, "v-a").empty());

  // Garbage file.
  { std::ofstream(path) << "{not json at all"; }
  EXPECT_TRUE(search::load_checkpoints(path, "v-a").empty());

  // Version mismatch: a valid file written under another code version loads
  // as empty (checkpoints are never comparable across semantics changes).
  search::TrainingCheckpoint ck;
  ck.graph_fp = "fp";
  ck.mixer = qaoa::MixerSpec::qnas();
  ck.p = 1;
  ck.training_evals = 30;
  ck.engine = "sv";
  ck.state.optimizer = "cobyla";
  ck.state.evaluations = 7;
  ck.state.numbers = {1.5, -2.5};
  search::save_checkpoints({ck}, path, "v-a");
  EXPECT_TRUE(search::load_checkpoints(path, "v-b").empty());

  // Same version round-trips.
  const auto loaded = search::load_checkpoints(path, "v-a");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].graph_fp, "fp");
  EXPECT_EQ(loaded[0].state.optimizer, "cobyla");
  EXPECT_EQ(loaded[0].state.evaluations, 7u);
  EXPECT_EQ(loaded[0].state.numbers, ck.state.numbers);

  // One good and one malformed checkpoint (a 64-bit word with trailing
  // text): exactly the good one loads.
  search::TrainingCheckpoint bad = ck;
  bad.graph_fp = "fq";
  bad.state.words = {12};
  search::save_checkpoints({ck, bad}, path, "v-a");
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  text.replace(text.find("\"12\""), 4, "\"12abc\"");
  { std::ofstream(path) << text; }
  const auto survivors = search::load_checkpoints(path, "v-a");
  ASSERT_EQ(survivors.size(), 1u);
  EXPECT_EQ(survivors[0].graph_fp, "fp");

  // A service pointed at a corrupt checkpoint file starts clean, no throw.
  { std::ofstream(path) << "]]]"; }
  SessionConfig session = fast_session();
  session.checkpoint_path = path;
  search::EvalService service(session);
  EXPECT_EQ(service.stats().checkpoints_loaded, 0u);
  std::remove(path.c_str());
}

TEST(FaultRecovery, OptimStateJsonRoundTripsNonFiniteValues) {
  optim::OptimState state;
  state.optimizer = "multi-start";
  state.evaluations = 123;
  state.history = {2.0, 1.0, 0.5};
  state.numbers = {0.25, std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()};
  state.words = {0ull, 1ull, 0xFFFFFFFFFFFFFFFFull};
  optim::OptimState child;
  child.optimizer = "cobyla";
  child.evaluations = 9;
  child.numbers = {3.14};
  state.child.push_back(child);

  const auto round =
      search::optim_state_from_json(search::optim_state_to_json(state));
  EXPECT_EQ(round.optimizer, state.optimizer);
  EXPECT_EQ(round.evaluations, state.evaluations);
  EXPECT_EQ(round.history, state.history);
  EXPECT_EQ(round.words, state.words);
  ASSERT_EQ(round.numbers.size(), state.numbers.size());
  EXPECT_EQ(round.numbers[0], 0.25);
  EXPECT_EQ(round.numbers[1], std::numeric_limits<double>::infinity());
  EXPECT_EQ(round.numbers[2], -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(round.numbers[3]));
  ASSERT_EQ(round.child.size(), 1u);
  EXPECT_EQ(round.child[0].optimizer, "cobyla");
  EXPECT_EQ(round.child[0].evaluations, 9u);
  EXPECT_EQ(round.child[0].numbers, child.numbers);
}

// The real thing: a worker process is hard-killed (_Exit(137), as SIGKILL
// would) in the middle of training, and a fresh process restarted on the
// same checkpoint path resumes the run and finishes it bit-identically.
TEST(FaultRecovery, KillMidRunThenResumeAcrossProcesses) {
  const auto g = test_graph(47);
  const std::string ckpt = temp_path("kill_ckpt.json");
  constexpr std::size_t kBudget = 1000;

  search::JobOptions options;
  options.training_evals = kBudget;
  search::CandidateResult expected;
  {
    search::EvalService reference(fast_session());
    expected = reference.submit(g, qaoa::MixerSpec::qnas(), 1, options).wait();
  }

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: crash on the SECOND checkpoint persist (~10 of 1000 evals in),
    // so at least one checkpoint is already safely on disk.
    try {
      search::FaultPlan plan;
      plan.crash_point = "checkpoint";
      plan.crash_after = 2;
      search::FaultInjector::instance().configure(plan);
      SessionConfig session = fast_session();
      session.workers = 1;
      session.checkpoint_path = ckpt;
      session.checkpoint_evals = 5;
      search::EvalService service(session);
      auto ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1, options);
      (void)ticket.wait();
      std::_Exit(0);  // unreachable when the crash fires
    } catch (...) {
      std::_Exit(42);
    }
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137) << "child did not die at the crash point";

  // Restart "the process" on the same path: the checkpoint loads, the same
  // submission resumes mid-training, and the result matches the
  // uninterrupted reference exactly — no evaluation lost, none redone from
  // step 0, none double-counted.
  SessionConfig session = fast_session();
  session.workers = 1;
  session.checkpoint_path = ckpt;
  session.checkpoint_evals = 5;
  search::EvalService service(session);
  EXPECT_GE(service.stats().checkpoints_loaded, 1u);
  const auto r = service.submit(g, qaoa::MixerSpec::qnas(), 1, options).wait();
  EXPECT_EQ(r.energy, expected.energy);
  EXPECT_EQ(r.ratio, expected.ratio);
  EXPECT_EQ(r.sampled_ratio, expected.sampled_ratio);
  EXPECT_EQ(r.theta, expected.theta);
  EXPECT_EQ(r.evaluations, expected.evaluations);
  const auto stats = service.stats();
  EXPECT_GE(stats.resumed, 1u);
  EXPECT_EQ(stats.checkpoints_discarded, 0u);
  EXPECT_EQ(stats.completed, 1u);
  std::remove(ckpt.c_str());
}

// A forked child inherits the forking thread's inner team but none of its
// helper threads. Its first parallel_for must build a fresh team: one that
// waited on the inherited helpers would never pass the rendezvous below.
TEST(FaultRecovery, ParallelForAfterForkBuildsAFreshTeam) {
  std::atomic<int> warm{0};
  parallel::parallel_for(0, 2, [&](std::size_t) { warm.fetch_add(1); }, 2);
  ASSERT_EQ(warm.load(), 2);

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    std::latch both(2);
    parallel::parallel_for(0, 2, [&](std::size_t) { both.arrive_and_wait(); },
                           2);
    std::vector<std::atomic<int>> hits(1000);
    parallel::parallel_for(
        0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 2);
    for (const auto& h : hits)
      if (h.load() != 1) std::_Exit(1);
    std::_Exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace

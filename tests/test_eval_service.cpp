// EvalService tests: the submit/ticket surface, concurrent multi-client
// usage, cancellation mid-queue, the candidate-result cache, determinism of
// SearchReport.best across worker counts, backend=Auto agreement with the
// forced engines, and the SessionConfig reconciliation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "qtensor/planner.hpp"
#include "search/combinations.hpp"
#include "search/engine.hpp"
#include "search/eval_service.hpp"
#include "search/fault.hpp"
#include "search/halving.hpp"
#include "search/report_io.hpp"
#include "session.hpp"
#include "sim/sim_program.hpp"

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

TEST(EvalService, SubmitMatchesDirectEvaluator) {
  const auto g = test_graph(11);
  const SessionConfig session = fast_session();

  search::EvalService service(session);
  auto ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1);
  const auto& r = ticket.wait();

  // The service wires the SAME EvaluatorOptions a direct client would build
  // through the session facade, so results are bit-identical.
  const search::Evaluator direct(
      g, session.evaluator_options(qaoa::EngineKind::Statevector));
  const auto expected = direct.evaluate(qaoa::MixerSpec::qnas(), 1);
  EXPECT_EQ(r.energy, expected.energy);
  EXPECT_EQ(r.sampled_ratio, expected.sampled_ratio);
  EXPECT_EQ(r.theta, expected.theta);

  EXPECT_TRUE(ticket.ready());
  EXPECT_FALSE(ticket.cache_hit());
  EXPECT_GE(r.queue_seconds, 0.0);
  EXPECT_GT(r.eval_seconds, 0.0);
  EXPECT_GE(ticket.finished_at(), ticket.submitted_at());
}

TEST(EvalService, ConcurrentMultiClientSubmitsAgreeWithSerial) {
  const auto g = test_graph(13);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 2, search::CombinationMode::Product);

  // Serial reference.
  const search::Evaluator direct(
      g, fast_session().evaluator_options(qaoa::EngineKind::Statevector));
  std::vector<double> expected;
  for (const auto& m : cohort) expected.push_back(direct.evaluate(m, 1).energy);

  // Four client threads hammer one shared 4-worker service with the same
  // cohort concurrently.
  SessionConfig session = fast_session();
  session.workers = 4;
  search::EvalService service(session);
  constexpr std::size_t kClients = 4;
  std::vector<std::vector<double>> energies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto tickets = service.submit_batch(g, cohort, 1);
      for (const auto& r : service.collect(tickets))
        energies[c].push_back(r.energy);
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) EXPECT_EQ(energies[c], expected);

  // Dedup across clients: every candidate ran at most once service-wide.
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kClients * cohort.size());
  EXPECT_EQ(stats.completed, cohort.size());
  EXPECT_EQ(stats.cache_misses, cohort.size());
  EXPECT_EQ(stats.cache_hits, (kClients - 1) * cohort.size());
}

TEST(EvalService, DuplicateSubmissionHitsResultCache) {
  const auto g = test_graph(17);
  search::EvalService service(fast_session());

  auto first = service.submit(g, qaoa::MixerSpec::qnas(), 1);
  const auto r1 = first.wait();
  auto second = service.submit(g, qaoa::MixerSpec::qnas(), 1);
  const auto r2 = second.wait();

  EXPECT_FALSE(first.cache_hit());
  EXPECT_TRUE(second.cache_hit());
  EXPECT_FALSE(r1.from_cache);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r1.energy, r2.energy);
  EXPECT_EQ(r1.theta, r2.theta);

  // A different budget is a different candidate as far as the cache goes.
  search::JobOptions deeper;
  deeper.training_evals = 60;
  auto third = service.submit(g, qaoa::MixerSpec::qnas(), 1, deeper);
  (void)third.wait();
  EXPECT_FALSE(third.cache_hit());

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(EvalService, ResultCacheCanBeDisabled) {
  const auto g = test_graph(17);
  SessionConfig session = fast_session();
  session.result_cache = 0;
  search::EvalService service(session);

  (void)service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  auto second = service.submit(g, qaoa::MixerSpec::qnas(), 1);
  (void)second.wait();
  EXPECT_FALSE(second.cache_hit());
  EXPECT_EQ(service.stats().completed, 2u);
}

TEST(EvalService, CancellationMidQueue) {
  const auto g = test_graph(19, 8, 3);
  SessionConfig session = fast_session();
  session.workers = 1;           // one worker → everything else queues
  session.training_evals = 200;  // keep the blocker busy
  search::EvalService service(session);

  // The blocker occupies the single worker; the rest sit in the queue.
  auto blocker = service.submit(g, qaoa::MixerSpec::baseline(), 1);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  auto queued = service.submit_batch(g, cohort, 2);

  std::size_t cancelled = 0;
  for (auto& t : queued)
    if (t.cancel()) ++cancelled;
  EXPECT_GT(cancelled, 0u);

  for (auto& t : queued) {
    if (t.cancelled()) {
      EXPECT_TRUE(t.ready());
      EXPECT_THROW((void)t.wait(), Error);
    } else {
      (void)t.wait();  // raced into Running before the cancel — completes
    }
  }

  // The blocker itself is not cancellable once done.
  (void)blocker.wait();
  EXPECT_FALSE(blocker.cancel());

  const auto stats = service.stats();
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.completed + stats.cancelled, 1u + cohort.size());
}

TEST(EvalService, SearchBestIsDeterministicAcrossWorkerCounts) {
  const auto g = test_graph(23);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session = fast_session();

  cfg.session.workers = 1;
  const auto serial = search::SearchEngine(cfg).run_exhaustive(g, 2);
  cfg.session.workers = 4;
  const auto parallel = search::SearchEngine(cfg).run_exhaustive(g, 2);
  // The two-level split fig4 times against the serial row: inner threads
  // engage at n = 6 once the kernels' threshold drops below it.
  cfg.session.workers = 2;
  cfg.session.inner_workers = 2;
  cfg.session.base.energy.sv_plan.parallel_threshold_qubits = 2;
  const auto two_level = search::SearchEngine(cfg).run_exhaustive(g, 2);

  for (const auto* other : {&parallel, &two_level}) {
    EXPECT_EQ(serial.best.mixer, other->best.mixer);
    EXPECT_EQ(serial.best.energy, other->best.energy);
    ASSERT_EQ(serial.evaluated.size(), other->evaluated.size());
    for (std::size_t i = 0; i < serial.evaluated.size(); ++i)
      EXPECT_EQ(serial.evaluated[i].energy, other->evaluated[i].energy);
  }
}

TEST(EvalService, SearchReportCountsCacheHitsAndServiceTime) {
  const auto g = test_graph(29);
  search::SearchConfig cfg;
  cfg.p_max = 1;
  cfg.session = fast_session();
  // 40 random proposals over the 5 length-1 mixers guarantee duplicates.
  search::RandomPredictor pred(cfg.alphabet, 1, 40, /*seed=*/5);
  const auto report = search::SearchEngine(cfg).run(g, pred);

  EXPECT_EQ(report.num_candidates, 40u);
  EXPECT_EQ(report.cache_hits + report.cache_misses, 40u);
  EXPECT_LE(report.cache_misses, 5u);
  EXPECT_GT(report.cache_hits, 0u);
  EXPECT_GT(report.seconds, 0.0);
  for (const auto& c : report.evaluated) {
    EXPECT_GE(c.queue_seconds, 0.0);
    EXPECT_GE(c.eval_seconds, 0.0);
  }
}

TEST(EvalService, AutoPicksStatevectorOnSmallInstances) {
  const auto g = test_graph(31);  // 6 qubits << auto_statevector_qubits
  SessionConfig session = fast_session();
  EXPECT_EQ(search::auto_engine_choice(session, g, qaoa::MixerSpec::qnas(), 1),
            qaoa::EngineKind::Statevector);

  session.backend = BackendChoice::Auto;
  search::EvalService auto_service(session);
  const auto r_auto =
      auto_service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  EXPECT_EQ(auto_service.stats().picked_statevector, 1u);
  EXPECT_EQ(auto_service.stats().picked_tensornetwork, 0u);

  session.backend = BackendChoice::Statevector;
  search::EvalService sv_service(session);
  const auto r_sv = sv_service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  EXPECT_EQ(r_auto.energy, r_sv.energy);
  EXPECT_EQ(r_auto.theta, r_sv.theta);
}

TEST(EvalService, AutoPicksTensorNetworkOnLargeSparseInstances) {
  // 16 qubits, 3-regular, p=1: past the statevector cutoff with a narrow
  // per-edge lightcone — exactly the regime the paper ran QTensor in.
  const auto g = test_graph(37, 16, 3);
  SessionConfig session = fast_session();
  session.training_evals = 15;
  EXPECT_EQ(search::auto_engine_choice(session, g, qaoa::MixerSpec::qnas(), 1),
            qaoa::EngineKind::TensorNetwork);

  session.backend = BackendChoice::Auto;
  search::EvalService auto_service(session);
  const auto r_auto =
      auto_service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  EXPECT_EQ(auto_service.stats().picked_tensornetwork, 1u);

  session.backend = BackendChoice::TensorNetwork;
  search::EvalService tn_service(session);
  const auto r_tn = tn_service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  EXPECT_EQ(r_auto.energy, r_tn.energy);
  EXPECT_EQ(r_auto.theta, r_tn.theta);

  // Dense lightcones push Auto back to the statevector engine.
  session.auto_lightcone_qubits = 2;
  EXPECT_EQ(search::auto_engine_choice(session, g, qaoa::MixerSpec::qnas(), 1),
            qaoa::EngineKind::Statevector);
}

TEST(EvalService, ForcedEnginesAgreeNumerically) {
  // The two engines compute the same <C>; trained energies track closely
  // (same deterministic optimizer on numerically identical objectives).
  const auto g = test_graph(41);
  SessionConfig session = fast_session();
  search::EvalService sv(session);
  session.backend = BackendChoice::TensorNetwork;
  search::EvalService tn(session);
  const auto r_sv = sv.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  const auto r_tn = tn.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  EXPECT_NEAR(r_sv.energy, r_tn.energy, 1e-6);
}

TEST(EvalService, SharedServiceCompilesEachCandidatePlanOnce) {
  const auto g = test_graph(43);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);

  SessionConfig session = fast_session();
  session.workers = 2;
  search::EvalService service(session);

  sim::reset_program_compile_count();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c)
    clients.emplace_back([&] {
      (void)service.collect(service.submit_batch(g, cohort, 1));
    });
  for (auto& t : clients) t.join();
  const auto compiles_shared = sim::program_compile_count();

  // Reference: one client, fresh service → the per-candidate baseline.
  search::EvalService reference(session);
  sim::reset_program_compile_count();
  (void)reference.collect(reference.submit_batch(g, cohort, 1));
  EXPECT_EQ(compiles_shared, sim::program_compile_count())
      << "two clients sharing a service must not duplicate compilations";
}

TEST(EvalService, HalvingSharesTheServiceAndBudgetsPerRound) {
  const auto g = test_graph(47);
  auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);

  SessionConfig session = fast_session();
  search::EvalService service(session);
  search::HalvingConfig cfg;
  cfg.initial_budget = 10;
  cfg.session = session;  // only backend/width matter for the shared form
  const auto report = search::successive_halving(service, g, cohort, cfg);

  EXPECT_EQ(report.rounds.front().candidates_in, cohort.size());
  EXPECT_EQ(report.rounds.back().candidates_in, 1u);
  EXPECT_GT(report.best.energy, 0.0);
  EXPECT_GT(report.seconds, 0.0);
  // Rounds ran at distinct budgets through JobOptions, so nothing hit the
  // result cache... except the final round re-scoring a survivor at a
  // budget it already ran (growth can repeat a budget only if it stalls,
  // which it doesn't here).
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(SessionConfig, ReconciliationAbsorbsEffectiveEnergy) {
  SessionConfig s;
  s.backend = BackendChoice::Auto;
  s.inner_workers = 3;
  s.training_evals = 77;
  s.restarts = 2;
  s.shots = 64;
  s.sample_trials = 4;
  s.base.energy.sv_plan.block_qubits = 12;
  s.base.energy.plan_cache_capacity = 5;

  const auto opt = s.evaluator_options(qaoa::EngineKind::Statevector);
  EXPECT_EQ(opt.energy.engine, qaoa::EngineKind::Statevector);
  EXPECT_EQ(opt.energy.inner_workers, 3u);
  EXPECT_EQ(opt.cobyla.max_evals, 77u);
  EXPECT_EQ(opt.restarts, 2u);
  EXPECT_EQ(opt.shots, 64u);
  EXPECT_EQ(opt.sample_trials, 4u);
  // Deep toggles pass through from base untouched.
  EXPECT_EQ(opt.energy.sv_plan.block_qubits, 12u);
  EXPECT_EQ(opt.energy.plan_cache_capacity, 5u);

  // Per-job budget override (the halving path).
  EXPECT_EQ(s.evaluator_options(qaoa::EngineKind::Statevector, 9)
                .cobyla.max_evals,
            9u);

  // energy_options() absorbs the effective_energy() contract: evaluator-side
  // pre-simplification turns the plan-level presimplify off.
  EXPECT_TRUE(s.simplify_circuit);
  EXPECT_FALSE(s.energy_options(qaoa::EngineKind::Statevector)
                   .sv_plan.presimplify);

  EXPECT_EQ(backend_from_name("auto"), BackendChoice::Auto);
  EXPECT_EQ(backend_from_name("sv"), BackendChoice::Statevector);
  EXPECT_EQ(backend_from_name("tn"), BackendChoice::TensorNetwork);
  EXPECT_EQ(backend_name(BackendChoice::Auto), "auto");
  EXPECT_THROW(backend_from_name("qpu"), Error);
}

// ---------------------------------------------------------------------------
// Fair-share scheduling
// ---------------------------------------------------------------------------

TEST(EvalService, FairShareInterleavesConcurrentClients) {
  // One worker; a heavy blocker holds it while two registered clients queue
  // up, so the dispatch order below is decided purely by the scheduler.
  const auto blocker_graph = test_graph(61, 10, 3);
  const auto g = test_graph(62);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  search::JobOptions heavy;
  heavy.training_evals = 500;
  auto blocker =
      service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);

  auto wide = service.register_client("wide", 1.0);
  auto interactive = service.register_client("interactive", 1.0);
  std::vector<search::EvalTicket> wide_tickets, inter_tickets;
  for (const auto& m : cohort) {  // 5 jobs for the wide client
    search::JobOptions job;
    job.training_evals = 60;
    job.client = wide.id();
    wide_tickets.push_back(service.submit(g, m, 1, job));
  }
  for (std::size_t i = 0; i < 3; ++i) {  // 3 near-equal-cost jobs after it
    search::JobOptions job;
    job.training_evals = 61;
    job.client = interactive.id();
    inter_tickets.push_back(service.submit(g, cohort[i], 1, job));
  }
  (void)blocker.wait();
  (void)service.collect(wide_tickets);
  (void)service.collect(inter_tickets);

  double inter_last = 0.0;
  for (const auto& t : inter_tickets)
    inter_last = std::max(inter_last, t.finished_at());
  std::size_t wide_before = 0;
  for (const auto& t : wide_tickets)
    if (t.finished_at() < inter_last) ++wide_before;
  // FIFO would finish all 5 wide jobs before the later-submitted interactive
  // cohort (wide_before == 5); deficit-weighted round robin alternates the
  // two equal-weight queues (exactly 3 in a race-free run).
  EXPECT_LE(wide_before, 4u);
  EXPECT_EQ(service.stats().clients_registered, 2u);
}

TEST(EvalService, FairShareHonorsClientWeights) {
  const auto blocker_graph = test_graph(63, 10, 3);
  const auto g = test_graph(64);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  search::JobOptions heavy;
  heavy.training_evals = 500;
  auto blocker =
      service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);

  auto light = service.register_client("light", 1.0);
  auto favored = service.register_client("favored", 4.0);
  std::vector<search::EvalTicket> light_tickets, favored_tickets;
  for (const auto& m : cohort) {
    search::JobOptions job;
    job.training_evals = 60;
    job.client = light.id();
    light_tickets.push_back(service.submit(g, m, 1, job));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    search::JobOptions job;
    job.training_evals = 61;
    job.client = favored.id();
    favored_tickets.push_back(service.submit(g, cohort[i], 1, job));
  }
  (void)blocker.wait();
  (void)service.collect(light_tickets);
  (void)service.collect(favored_tickets);

  double favored_last = 0.0;
  for (const auto& t : favored_tickets)
    favored_last = std::max(favored_last, t.finished_at());
  std::size_t light_before = 0;
  for (const auto& t : light_tickets)
    if (t.finished_at() < favored_last) ++light_before;
  // Weight 4 lets the favored client drain its whole queue on one visit's
  // quantum (1 light job slips in race-free); equal weights would alternate
  // to ~4.
  EXPECT_LE(light_before, 2u);
}

TEST(EvalService, JobPriorityOrdersWithinOneClient) {
  const auto blocker_graph = test_graph(65, 10, 3);
  const auto g = test_graph(66);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  search::JobOptions heavy;
  heavy.training_evals = 500;
  auto blocker =
      service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);

  auto client = service.register_client("prioritized", 1.0);
  std::vector<search::EvalTicket> tickets;
  for (std::size_t i = 0; i < 3; ++i) {
    search::JobOptions job;
    job.training_evals = 40;
    job.client = client.id();
    job.priority = i == 2 ? 7 : 0;  // the LAST submission outranks the rest
    tickets.push_back(service.submit(g, cohort[i], 1, job));
  }
  (void)blocker.wait();
  (void)service.collect(tickets);
  EXPECT_LT(tickets[2].finished_at(), tickets[0].finished_at());
  EXPECT_LT(tickets[2].finished_at(), tickets[1].finished_at());
}

TEST(EvalService, RegisterClientRejectsBadWeights) {
  search::EvalService service(fast_session());
  EXPECT_THROW((void)service.register_client("bad", 0.0), Error);
  EXPECT_THROW((void)service.register_client("bad", -1.0), Error);
  // A vanishing weight would make the scheduler spin ~1/weight rotations
  // inside the service mutex per dispatch, so it is rejected outright.
  EXPECT_THROW((void)service.register_client("bad", 1e-9), Error);
  EXPECT_THROW((void)service.register_client("bad", 1e9), Error);
}

TEST(EvalService, CrossServiceClientIdFallsBackToDefaultQueue) {
  // Client ids are process-wide unique, so an id minted by one service can
  // never be mistaken for another service's registered client — it takes
  // the documented default-queue fallback instead.
  search::EvalService a(fast_session());
  search::EvalService b(fast_session());
  const auto ca = a.register_client("a");
  const auto cb = b.register_client("b");
  EXPECT_NE(ca.id(), cb.id());

  const auto g = test_graph(103);
  search::JobOptions job;
  job.client = ca.id();  // foreign id on service b
  EXPECT_NO_THROW((void)b.submit(g, qaoa::MixerSpec::qnas(), 1, job).wait());
}

// ---------------------------------------------------------------------------
// Cancellation semantics
// ---------------------------------------------------------------------------

TEST(EvalService, CollectSkipsCancelledTickets) {
  const auto blocker_graph = test_graph(67, 10, 3);
  const auto g = test_graph(68);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  search::JobOptions heavy;
  heavy.training_evals = 400;
  auto blocker =
      service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);
  auto tickets = service.submit_batch(g, cohort, 1);
  ASSERT_TRUE(tickets[1].cancel());  // queued behind the blocker: must succeed
  ASSERT_TRUE(tickets[3].cancel());

  // One cancelled ticket must not discard the rest of the batch.
  const auto results = service.collect(tickets);
  ASSERT_EQ(results.size(), cohort.size() - 2);
  std::vector<std::string> got, expected;
  for (const auto& r : results) got.push_back(r.mixer.to_string());
  for (std::size_t i = 0; i < cohort.size(); ++i)
    if (i != 1 && i != 3) expected.push_back(cohort[i].to_string());
  EXPECT_EQ(got, expected);  // surviving results keep ticket order
  (void)blocker.wait();
}

TEST(EvalService, ConcurrentCancelOfOneTicketReleasesOneWaiterOnly) {
  // Two copies of ONE handle cancelled from two threads while a third ticket
  // (a separate submission of the same candidate) still wants the result: a
  // double waiter decrement would withdraw the shared job and lose it.
  const auto blocker_graph = test_graph(69, 10, 3);
  const auto g = test_graph(70);
  SessionConfig session = fast_session();
  session.workers = 1;
  for (int iter = 0; iter < 20; ++iter) {
    search::EvalService service(session);
    search::JobOptions heavy;
    heavy.training_evals = 300;
    auto blocker =
        service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);
    auto doomed = service.submit(g, qaoa::MixerSpec::qnas(), 1);
    auto survivor = service.submit(g, qaoa::MixerSpec::qnas(), 1);
    ASSERT_TRUE(survivor.cache_hit());  // attached to the same in-flight job

    search::EvalTicket doomed_copy = doomed;
    std::thread racer([&doomed_copy] { (void)doomed_copy.cancel(); });
    (void)doomed.cancel();
    racer.join();

    EXPECT_TRUE(doomed.cancelled());
    EXPECT_THROW((void)doomed.wait(), Error);
    // The survivor's waiter must still be counted: the job runs and
    // resolves normally once the blocker frees the worker.
    EXPECT_NO_THROW((void)survivor.wait());
    (void)blocker.wait();
  }
}

TEST(EvalService, CancelResubmitStressKeepsAccountsConsistent) {
  // Hammer concurrent cancel() + duplicate submit() of ONE candidate key.
  // result_cache = 0 keeps every post-completion submission publishing a
  // fresh job, so the cancellation window stays open the whole test.
  const auto g = test_graph(71);
  SessionConfig session = fast_session();
  session.workers = 2;
  session.result_cache = 0;
  session.training_evals = 6;
  search::EvalService service(session);

  const search::Evaluator reference(
      g, session.evaluator_options(qaoa::EngineKind::Statevector, 6));
  const double expected_energy =
      reference.evaluate(qaoa::MixerSpec::qnas(), 1).energy;

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kIters = 40;
  std::atomic<std::size_t> resolved{0}, withdrawn{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        auto ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1);
        if ((t + i) % 3 == 0) {
          search::EvalTicket copy = ticket;
          std::thread racer([&copy] { (void)copy.cancel(); });
          const bool mine = ticket.cancel();
          racer.join();
          if (ticket.cancelled()) {
            EXPECT_TRUE(mine);
            EXPECT_THROW((void)ticket.wait(), Error);
            ++withdrawn;
            continue;
          }
        }
        // No result may be lost: an un-cancelled ticket always resolves,
        // and always to the deterministic energy.
        EXPECT_EQ(ticket.wait().energy, expected_energy);
        ++resolved;
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = service.stats();
  EXPECT_EQ(resolved + withdrawn, kThreads * kIters);
  EXPECT_EQ(stats.submitted, kThreads * kIters);
  // Every submission was accounted exactly once...
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.submitted);
  // ...and every published job either ran exactly once or was withdrawn
  // exactly once — the no-lost-result / no-double-run invariant.
  EXPECT_EQ(stats.completed + stats.cancelled, stats.cache_misses);
  EXPECT_EQ(stats.failed, 0u);

  // The service stays fully functional after the storm.
  auto after = service.submit(g, qaoa::MixerSpec::baseline(), 1);
  EXPECT_NO_THROW((void)after.wait());
}

// ---------------------------------------------------------------------------
// Persistent result cache
// ---------------------------------------------------------------------------

namespace persist {
std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}
}  // namespace persist

TEST(ReportIo, ResultCacheRoundTripsEntries) {
  search::CacheEntry e;
  e.graph_fp = std::string("\x00\xff\x1e\x7f raw", 8);  // arbitrary bytes
  e.training_evals = 42;
  e.engine = "sv";
  e.result.mixer = qaoa::MixerSpec::qnas();
  e.result.p = 2;
  e.result.energy = 3.25;
  e.result.ratio = 0.8125;
  e.result.sampled_ratio = 0.9375;
  e.result.theta = {0.1234567891234567, -2.5};
  e.result.evaluations = 37;

  const auto doc = search::result_cache_to_json({e}, "vX");
  const auto parsed = json::parse(doc.dump(2));
  const auto loaded = search::result_cache_from_json(parsed, "vX");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].graph_fp, e.graph_fp);
  EXPECT_EQ(loaded[0].training_evals, 42u);
  EXPECT_EQ(loaded[0].engine, "sv");
  EXPECT_EQ(loaded[0].result.mixer, e.result.mixer);
  EXPECT_EQ(loaded[0].result.p, 2u);
  EXPECT_EQ(loaded[0].result.energy, e.result.energy);
  EXPECT_EQ(loaded[0].result.theta, e.result.theta);

  // A different cache code version invalidates the whole file.
  EXPECT_TRUE(search::result_cache_from_json(parsed, "vY").empty());
}

TEST(EvalService, PersistentCacheWarmStartsAcrossServices) {
  const std::string path = persist::temp_path("qarch_warm_start.json");
  std::remove(path.c_str());
  const auto g = test_graph(73);
  SessionConfig session = fast_session();
  session.cache_path = path;

  search::CandidateResult first;
  {
    search::EvalService cold(session);
    EXPECT_EQ(cold.stats().cache_loaded, 0u);
    first = cold.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }  // destructor persists the cache

  {
    search::EvalService warm(session);
    EXPECT_EQ(warm.stats().cache_loaded, 1u);
    auto ticket = warm.submit(g, qaoa::MixerSpec::qnas(), 1);
    const auto& r = ticket.wait();
    EXPECT_TRUE(ticket.cache_hit());
    EXPECT_TRUE(r.from_cache);
    EXPECT_EQ(r.energy, first.energy);
    EXPECT_EQ(r.theta, first.theta);  // %.17g JSON doubles round-trip exactly
    EXPECT_EQ(warm.stats().completed, 0u);  // nothing retrained

    // A different budget is still a cold candidate.
    search::JobOptions deeper;
    deeper.training_evals = 60;
    auto miss = warm.submit(g, qaoa::MixerSpec::qnas(), 1, deeper);
    (void)miss.wait();
    EXPECT_FALSE(miss.cache_hit());
  }

  // The second shutdown re-persisted the grown cache (2 entries now).
  search::EvalService third(session);
  EXPECT_EQ(third.stats().cache_loaded, 2u);
  std::remove(path.c_str());
}

TEST(EvalService, PersistentCacheIsGatedByResolvedEngine) {
  // Processes with different forced backends may share one cache file; a
  // tensor-network service must not warm-start from statevector-trained
  // entries (and vice versa). backend=Auto accepts either engine's results.
  const std::string path = persist::temp_path("qarch_engine_gate.json");
  std::remove(path.c_str());
  const auto g = test_graph(101);
  SessionConfig session = fast_session();  // backend = Statevector
  session.cache_path = path;
  {
    search::EvalService sv(session);
    (void)sv.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }

  SessionConfig tn_session = session;
  tn_session.backend = BackendChoice::TensorNetwork;
  {
    search::EvalService tn(tn_session);
    EXPECT_EQ(tn.stats().cache_loaded, 0u);  // sv entry filtered out
    auto ticket = tn.submit(g, qaoa::MixerSpec::qnas(), 1);
    (void)ticket.wait();
    EXPECT_FALSE(ticket.cache_hit());  // retrained on its own engine
    EXPECT_EQ(tn.stats().picked_tensornetwork, 1u);
  }  // cache_write on: rewrites the file WITHOUT erasing the sv entry

  {
    search::EvalService sv_again(session);
    EXPECT_EQ(sv_again.stats().cache_loaded, 1u);  // sv entry survived
    auto ticket = sv_again.submit(g, qaoa::MixerSpec::qnas(), 1);
    (void)ticket.wait();
    EXPECT_TRUE(ticket.cache_hit());
  }

  // Both engines' entries coexist in the file; an Auto service accepts
  // either, so the same-key twin dedups to one in-memory load.
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::size_t sv_entries = 0, tn_entries = 0;
    const auto doc = json::parse(buf.str());
    const auto& list = doc.at("entries");
    for (std::size_t i = 0; i < list.size(); ++i) {
      const std::string& engine = list.at(i).at("engine").as_string();
      sv_entries += engine == "sv" ? 1 : 0;
      tn_entries += engine == "tn" ? 1 : 0;
    }
    EXPECT_EQ(sv_entries, 1u);
    EXPECT_EQ(tn_entries, 1u);
  }
  SessionConfig auto_session = session;
  auto_session.backend = BackendChoice::Auto;
  auto_session.cache_write = false;
  search::EvalService any(auto_session);
  EXPECT_EQ(any.stats().cache_loaded, 1u);
  std::remove(path.c_str());
}

TEST(EvalService, SmallOrDisabledCacheDoesNotTruncateSharedFile) {
  // A service with a smaller in-memory bound — or caching disabled — must
  // not shrink a shared cache file it could not fully load.
  const std::string path = persist::temp_path("qarch_truncate_guard.json");
  std::remove(path.c_str());
  const auto g = test_graph(107);
  SessionConfig session = fast_session();
  session.cache_path = path;
  {
    search::EvalService writer(session);
    (void)writer.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
    (void)writer.submit(g, qaoa::MixerSpec::baseline(), 1).wait();
  }  // 2 entries on disk

  SessionConfig tiny = session;
  tiny.result_cache = 1;
  {
    search::EvalService bounded(tiny);
    EXPECT_EQ(bounded.stats().cache_loaded, 1u);  // LRU bound respected
    // A fresh third candidate evicts the loaded entry from the 1-slot LRU;
    // the eviction must not cost the file that entry either.
    search::JobOptions deeper;
    deeper.training_evals = 45;
    (void)bounded.submit(g, qaoa::MixerSpec::qnas(), 1, deeper).wait();
  }  // rewrite carries the unloaded AND the evicted entries through

  SessionConfig disabled = session;
  disabled.result_cache = 0;
  { search::EvalService off(disabled); }  // must not truncate the file

  search::EvalService reloaded(session);
  EXPECT_EQ(reloaded.stats().cache_loaded, 3u);  // nothing was lost
  std::remove(path.c_str());
}

TEST(EvalService, PersistentCacheToleratesCorruptFiles) {
  const std::string path = persist::temp_path("qarch_corrupt_cache.json");
  {
    std::ofstream out(path);
    out << "{ this is ] not json \x01\x02";
  }
  const auto g = test_graph(79);
  SessionConfig session = fast_session();
  session.cache_path = path;
  {
    search::EvalService service(session);  // must not throw
    EXPECT_EQ(service.stats().cache_loaded, 0u);
    (void)service.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }
  // The corrupt file was atomically replaced with a valid cache.
  search::EvalService reloaded(session);
  EXPECT_EQ(reloaded.stats().cache_loaded, 1u);
  std::remove(path.c_str());
}

TEST(EvalService, CacheWriteOffIsReadOnlyWarmStart) {
  const std::string path = persist::temp_path("qarch_readonly_cache.json");
  std::remove(path.c_str());
  const auto g = test_graph(83);
  SessionConfig session = fast_session();
  session.cache_path = path;
  {
    search::EvalService writer(session);
    (void)writer.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }
  std::string before;
  {
    std::ifstream in(path);
    before.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(before.empty());

  session.cache_write = false;
  {
    search::EvalService reader(session);
    EXPECT_EQ(reader.stats().cache_loaded, 1u);
    (void)reader.submit(g, qaoa::MixerSpec::baseline(), 1).wait();  // new entry
  }
  std::string after;
  {
    std::ifstream in(path);
    after.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(before, after);  // file untouched by the read-only service
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Persistent contraction-plan cache (the tier below the result cache)
// ---------------------------------------------------------------------------

SessionConfig tn_plan_session(const std::string& plan_path) {
  SessionConfig s = fast_session();
  s.backend = BackendChoice::TensorNetwork;
  s.training_evals = 10;
  s.cache_path.clear();  // results NOT cached: every run retrains
  s.plan_cache_path = plan_path;
  return s;
}

TEST(EvalService, PlanCacheWarmStartSkipsThePlanner) {
  const std::string path = persist::temp_path("qarch_plan_warm.json");
  std::remove(path.c_str());
  const auto g = test_graph(113);
  const SessionConfig session = tn_plan_session(path);

  qtensor::reset_planner_invocation_count();
  search::CandidateResult first;
  {
    search::EvalService cold(session);
    EXPECT_EQ(cold.stats().plans_loaded, 0u);
    first = cold.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }  // destructor persists the planned orders
  EXPECT_GT(qtensor::planner_invocation_count(), 0u);

  qtensor::reset_planner_invocation_count();
  {
    search::EvalService warm(session);
    EXPECT_GT(warm.stats().plans_loaded, 0u);
    auto ticket = warm.submit(g, qaoa::MixerSpec::qnas(), 1);
    const auto& r = ticket.wait();
    // Unlike the result cache, the candidate IS retrained — plan reuse is
    // orthogonal to result reuse — but compiling its programs planned
    // nothing: every elimination order came from disk.
    EXPECT_FALSE(ticket.cache_hit());
    EXPECT_NEAR(r.energy, first.energy, 1e-8);
  }
  EXPECT_EQ(qtensor::planner_invocation_count(), 0u);
  std::remove(path.c_str());
}

TEST(EvalService, PlanCacheToleratesCorruptFiles) {
  const std::string path = persist::temp_path("qarch_plan_corrupt.json");
  {
    std::ofstream out(path);
    out << "]] not a plan cache {";
  }
  const auto g = test_graph(127);
  const SessionConfig session = tn_plan_session(path);
  {
    search::EvalService service(session);  // must not throw
    EXPECT_EQ(service.stats().plans_loaded, 0u);
    (void)service.submit(g, qaoa::MixerSpec::baseline(), 1).wait();
  }
  // The corrupt file was atomically replaced with a valid plan cache.
  search::EvalService reloaded(session);
  EXPECT_GT(reloaded.stats().plans_loaded, 0u);
  std::remove(path.c_str());
}

TEST(EvalService, PlanCacheWriteOffLeavesFileUntouched) {
  const std::string path = persist::temp_path("qarch_plan_readonly.json");
  std::remove(path.c_str());
  const auto g = test_graph(131);
  SessionConfig session = tn_plan_session(path);
  {
    search::EvalService writer(session);
    (void)writer.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }
  std::string before;
  {
    std::ifstream in(path);
    before.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_FALSE(before.empty());

  session.cache_write = false;
  {
    search::EvalService reader(session);
    EXPECT_GT(reader.stats().plans_loaded, 0u);
    // A new candidate shape plans in memory but must not touch the file.
    (void)reader.submit(g, qaoa::MixerSpec::baseline(), 1).wait();
  }
  std::string after;
  {
    std::ifstream in(path);
    after.assign(std::istreambuf_iterator<char>(in), {});
  }
  EXPECT_EQ(before, after);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Halving accounting
// ---------------------------------------------------------------------------

TEST(Halving, WarmCacheRunSpendsNoNewEvaluations) {
  const auto g = test_graph(89);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  search::EvalService service(session);
  search::HalvingConfig cfg;
  cfg.initial_budget = 10;
  cfg.session = session;

  const auto cold = search::successive_halving(service, g, cohort, cfg);
  EXPECT_GT(cold.total_evaluations, 0u);

  // Same sweep against the warm service: every round is served from the
  // result cache, so zero NEW objective calls are billed.
  const auto warm = search::successive_halving(service, g, cohort, cfg);
  EXPECT_EQ(warm.total_evaluations, 0u);
  EXPECT_EQ(warm.best.energy, cold.best.energy);
  EXPECT_EQ(warm.best.mixer, cold.best.mixer);
}

TEST(Halving, StagnantBudgetRoundsDoNotDoubleCount) {
  // budget_growth == 1.0 re-scores survivors at an unchanged budget: those
  // rounds are cache hits and must not re-bill their original evaluations.
  const auto g = test_graph(97);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  search::HalvingConfig cfg;
  cfg.initial_budget = 10;
  cfg.budget_growth = 1.0;
  cfg.session = session;
  const auto report = search::successive_halving(g, cohort, cfg);
  ASSERT_GT(report.rounds.size(), 1u);  // the re-scoring rounds exist

  // Exact bill: one fresh run per unique candidate, nothing else.
  const search::Evaluator direct(
      g, session.evaluator_options(qaoa::EngineKind::Statevector, 10));
  std::size_t fresh = 0;
  for (const auto& m : cohort) fresh += direct.evaluate(m, 1).evaluations;
  EXPECT_EQ(report.total_evaluations, fresh);
}

// ---------------------------------------------------------------------------
// SessionConfig::base precedence
// ---------------------------------------------------------------------------

TEST(SessionConfig, BaseDeepTogglesSurviveReconciliation) {
  SessionConfig s;
  s.inner_workers = 2;
  s.training_evals = 77;
  s.simplify_circuit = false;
  // Deep engine toggles only reachable through the escape hatch:
  s.base.energy.sv_plan.simd = false;
  s.base.energy.sv_plan.phase_tables = false;
  s.base.energy.sv_plan.fuse_single_qubit = false;
  s.base.energy.qtensor.slice_above_width = 20;
  s.base.energy.qtensor.random_restarts = 3;
  s.base.energy.plan_cache_capacity = 2;
  s.base.cobyla.rho_begin = 0.25;
  s.base.cobyla.rho_end = 1e-4;
  s.base.restart_perturbation = 2.5;
  s.base.restart_seed = 123;
  s.base.sample_seed = 321;

  const auto opt = s.evaluator_options(qaoa::EngineKind::TensorNetwork, 33);
  // Named knobs win where both exist...
  EXPECT_EQ(opt.energy.engine, qaoa::EngineKind::TensorNetwork);
  EXPECT_EQ(opt.energy.inner_workers, 2u);
  EXPECT_EQ(opt.cobyla.max_evals, 33u);
  EXPECT_FALSE(opt.simplify_circuit);
  // ...but every deep toggle must survive the merge untouched.
  EXPECT_FALSE(opt.energy.sv_plan.simd);
  EXPECT_FALSE(opt.energy.sv_plan.phase_tables);
  EXPECT_FALSE(opt.energy.sv_plan.fuse_single_qubit);
  EXPECT_EQ(opt.energy.qtensor.slice_above_width, 20u);
  EXPECT_EQ(opt.energy.qtensor.random_restarts, 3u);
  EXPECT_EQ(opt.energy.plan_cache_capacity, 2u);
  EXPECT_EQ(opt.cobyla.rho_begin, 0.25);
  EXPECT_EQ(opt.cobyla.rho_end, 1e-4);
  EXPECT_EQ(opt.restart_perturbation, 2.5);
  EXPECT_EQ(opt.restart_seed, 123u);
  EXPECT_EQ(opt.sample_seed, 321u);

  // The same toggles survive through energy_options(); with the evaluator
  // NOT pre-simplifying, the plan-level presimplify keeps base's value.
  const auto en = s.energy_options(qaoa::EngineKind::Statevector);
  EXPECT_FALSE(en.sv_plan.simd);
  EXPECT_TRUE(en.sv_plan.presimplify);

  // Named-knob precedence over a conflicting base value is part of the
  // contract, not an accident: the facade's budget beats base.cobyla's.
  s.base.cobyla.max_evals = 999;
  EXPECT_EQ(s.evaluator_options(qaoa::EngineKind::Statevector).cobyla.max_evals,
            77u);
}

// A deliberate three-way race on ticket resolution. While one worker is
// pinned by a blocker, queued jobs are concurrently cancelled (twice each,
// from two threads, through duplicate tickets sharing ONE deduped job),
// expired (deadlines far shorter than the blocker), and completed — all
// while a collect() in a fourth thread is already waiting on those same
// tickets. However the races land, every scheduled job must resolve exactly
// once: completed + cancelled + deadline_expired + failed == cache_misses.
TEST(EvalService, RacedCancelExpiryCompletionResolvesEveryJobOnce) {
  // 150 ms of injected delay per evaluation job guarantees the blocker
  // outlives the 50 ms deadlines below no matter how quickly COBYLA
  // converges on this machine.
  struct FaultGuard {
    ~FaultGuard() { search::FaultInjector::instance().reset(); }
  } guard;
  search::FaultPlan slow;
  slow.delay_seconds = 0.15;
  slow.delay_rate = 1.0;
  search::FaultInjector::instance().configure(slow);

  const auto blocker_graph = test_graph(71, 10, 3);
  const auto g = test_graph(72);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), 1, search::CombinationMode::Product);
  SessionConfig session = fast_session();
  session.workers = 1;
  search::EvalService service(session);

  search::JobOptions heavy;
  heavy.training_evals = 500;
  auto blocker =
      service.submit(blocker_graph, qaoa::MixerSpec::baseline(), 2, heavy);

  // p distinguishes the three fates; mixers are distinct within each fate.
  // The cancel cohort is submitted TWICE: the duplicate dedups onto the same
  // in-flight job (a cache hit), so the two cancelling threads race on one
  // underlying job through different handles.
  std::vector<search::EvalTicket> cancel_a, cancel_b, doomed, winners;
  for (std::size_t i = 0; i < 3; ++i) {
    cancel_a.push_back(service.submit(g, cohort[i], 3));
    cancel_b.push_back(service.submit(g, cohort[i], 3));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    search::JobOptions job;
    job.deadline_seconds = 0.05;  // the blocker alone outlives this
    doomed.push_back(service.submit(g, cohort[i], 2, job));
  }
  for (std::size_t i = 0; i < 3; ++i)
    winners.push_back(service.submit(g, cohort[i], 1));

  // The collector is already blocked inside collect() when the cancellations
  // and expiries start landing — resolution must wake it, not strand it.
  std::thread collector([&] {
    (void)service.collect(winners);
    (void)service.collect(doomed);
    (void)service.collect(cancel_a);
  });
  std::thread canceller_a([&] {
    for (auto& t : cancel_a) (void)t.cancel();
  });
  std::thread canceller_b([&] {
    for (auto& t : cancel_b) (void)t.cancel();
  });
  canceller_a.join();
  canceller_b.join();
  (void)blocker.wait();
  collector.join();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 13u);  // blocker + 3x2 + 3 + 3
  EXPECT_EQ(stats.cache_hits, 3u);  // the duplicate cancel submissions
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.submitted);
  EXPECT_EQ(stats.cancelled, 3u);   // once per job, despite racing handles
  EXPECT_EQ(stats.deadline_expired, 3u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed + stats.cancelled + stats.deadline_expired +
                stats.failed,
            stats.cache_misses);
}

// ---------------------------------------------------------------------------
// Generalized objectives / Hamiltonians through the service, and the timed
// cache-refresh cross-pollination satellite.
// ---------------------------------------------------------------------------

TEST(EvalService, ObjectiveAndHamiltonianAreDistinctCacheKeys) {
  const auto g = test_graph(211);
  SessionConfig session = fast_session();
  search::EvalService service(session);

  // Default objective, CVaR objective, and a MIS Hamiltonian are three
  // distinct candidates for the same (graph, mixer, p, budget).
  auto base = service.submit(g, qaoa::MixerSpec::qnas(), 1);
  const auto r_base = base.wait();

  search::JobOptions cvar;
  cvar.objective = qaoa::ObjectiveSpec{};
  cvar.objective->kind = qaoa::ObjectiveKind::CVaR;
  cvar.objective->alpha = 0.5;
  auto cvar_ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1, cvar);
  const auto r_cvar = cvar_ticket.wait();
  EXPECT_FALSE(cvar_ticket.cache_hit());

  search::JobOptions mis;
  mis.hamiltonian = qaoa::HamiltonianSpec{};
  mis.hamiltonian->kind = qaoa::HamiltonianKind::MIS;
  auto mis_ticket = service.submit(g, qaoa::MixerSpec::qnas(), 1, mis);
  (void)mis_ticket.wait();
  EXPECT_FALSE(mis_ticket.cache_hit());

  // Resubmitting each spec hits its own cache entry.
  auto cvar_again = service.submit(g, qaoa::MixerSpec::qnas(), 1, cvar);
  const auto r_cvar2 = cvar_again.wait();
  EXPECT_TRUE(cvar_again.cache_hit());
  EXPECT_EQ(r_cvar.energy, r_cvar2.energy);
  EXPECT_EQ(r_cvar.theta, r_cvar2.theta);

  // An explicit default spec and an omitted spec are the SAME candidate
  // (the key stays byte-identical to the pre-objective format).
  search::JobOptions explicit_default;
  explicit_default.objective = qaoa::ObjectiveSpec{};
  explicit_default.hamiltonian = qaoa::HamiltonianSpec{};
  auto dup = service.submit(g, qaoa::MixerSpec::qnas(), 1, explicit_default);
  const auto r_dup = dup.wait();
  EXPECT_TRUE(dup.cache_hit());
  EXPECT_EQ(r_base.energy, r_dup.energy);

  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(EvalService, ObjectiveTaggedEntriesSurvivePersistence) {
  const std::string path = persist::temp_path("qarch_objective_cache.json");
  std::remove(path.c_str());
  const auto g = test_graph(223);
  SessionConfig session = fast_session();
  session.cache_path = path;

  search::JobOptions cvar;
  cvar.objective = qaoa::ObjectiveSpec{};
  cvar.objective->kind = qaoa::ObjectiveKind::CVaR;

  search::CandidateResult first;
  {
    search::EvalService cold(session);
    first = cold.submit(g, qaoa::MixerSpec::qnas(), 1, cvar).wait();
    // The default-objective candidate is a distinct entry.
    (void)cold.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }

  search::EvalService warm(session);
  EXPECT_EQ(warm.stats().cache_loaded, 2u);
  auto hit = warm.submit(g, qaoa::MixerSpec::qnas(), 1, cvar);
  const auto& r = hit.wait();
  EXPECT_TRUE(hit.cache_hit());
  EXPECT_EQ(r.energy, first.energy);
  EXPECT_EQ(r.theta, first.theta);
  EXPECT_EQ(warm.stats().completed, 0u);
  std::remove(path.c_str());
}

TEST(EvalService, TimedCacheRefreshCrossPollinates) {
  const std::string path = persist::temp_path("qarch_cache_refresh.json");
  std::remove(path.c_str());
  const auto g = test_graph(227);
  SessionConfig session = fast_session();
  session.cache_path = path;

  // The long-lived reader polls the shared file at most every 10 ms.
  SessionConfig reader_session = session;
  reader_session.cache_refresh_seconds = 0.01;
  search::EvalService reader(reader_session);
  EXPECT_EQ(reader.stats().cache_loaded, 0u);  // file did not exist yet

  // A second process trains the candidate and persists on shutdown.
  search::CandidateResult trained;
  {
    search::EvalService writer(session);
    trained = writer.submit(g, qaoa::MixerSpec::qnas(), 1).wait();
  }

  // Past the refresh interval, the reader's next submit re-reads the file
  // and serves the candidate from cache without training.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  auto ticket = reader.submit(g, qaoa::MixerSpec::qnas(), 1);
  const auto& r = ticket.wait();
  EXPECT_TRUE(ticket.cache_hit());
  EXPECT_EQ(r.energy, trained.energy);
  EXPECT_EQ(r.theta, trained.theta);
  const auto stats = reader.stats();
  EXPECT_GE(stats.cache_refreshes, 1u);
  EXPECT_EQ(stats.cache_loaded, 1u);
  EXPECT_EQ(stats.completed, 0u);

  // cache_refresh_seconds = 0 (the default) never re-reads.
  search::EvalService no_refresh(session);
  std::remove(path.c_str());
}

TEST(GraphFingerprint, DistinguishesStructureNotIdentity) {
  const auto g1 = test_graph(53);
  const auto g2 = test_graph(53);  // same seed → same structure
  const auto g3 = test_graph(59);
  EXPECT_EQ(search::graph_fingerprint(g1), search::graph_fingerprint(g2));
  EXPECT_NE(search::graph_fingerprint(g1), search::graph_fingerprint(g3));

  graph::Graph w1(3), w2(3);
  w1.add_edge(0, 1, 1.0);
  w1.add_edge(1, 2, 2.0);
  w2.add_edge(0, 1, 1.0);
  w2.add_edge(1, 2, 2.5);  // weight differs
  EXPECT_NE(search::graph_fingerprint(w1), search::graph_fingerprint(w2));
}

}  // namespace

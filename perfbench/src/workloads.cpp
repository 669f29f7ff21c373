#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "graph/maxcut.hpp"
#include "parallel/thread.hpp"
#include "search/combinations.hpp"
#include "search/engine.hpp"
#include "search/eval_service.hpp"
#include "search/report_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace server = qarch::server;
using qarch::Rng;
using qarch::Timer;

namespace {

/// The graphs of graph set `set`: seeded random 3-regular. The search
/// workloads run on one; wire_tenants gives graph 0 to the interactive
/// tenant and graphs 1..3 to the batch tenant.
std::vector<graph::Graph> rep_graphs(const Workload& w, std::uint64_t seed,
                                     std::size_t set) {
  std::vector<graph::Graph> graphs;
  for (std::uint64_t i = 0; i < (w.wire ? 4u : 1u); ++i) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + set * 64 + i + 1);
    graphs.push_back(graph::random_regular(w.sizes.n, 3, rng));
  }
  return graphs;
}

/// The first `k` gates of the standard alphabet as one mixer sequence.
qaoa::MixerSpec leading_gates(std::size_t k) {
  const search::GateAlphabet alphabet = search::GateAlphabet::standard();
  qaoa::MixerSpec m;
  for (std::size_t i = 0; i < k; ++i)
    m.gates.push_back(alphabet.gates[i % alphabet.gates.size()]);
  return m;
}

/// Adds fresh timed evaluations to the rep's counts and busy time.
void account(const Workload& w,
             const std::vector<search::CandidateResult>& results, Rep& rep) {
  for (const search::CandidateResult& r : results) {
    ++rep.counts.candidates;
    (w.cvar ? rep.counts.samples : rep.counts.replays) += r.evaluations;
    rep.eval_seconds_sum += r.eval_seconds;
  }
}

// ---- search workloads -------------------------------------------------------

/// Wraps the exhaustive predictor to time each proposed batch: a batch span
/// runs from the proposal (the engine submits it right away) to the
/// feedback (the engine has collected every result).
class TracingPredictor final : public search::Predictor {
 public:
  struct Batch {
    Tracer::Id span;
    std::size_t size;
  };

  TracingPredictor(search::Predictor& inner, Tracer& tracer, Tracer::Id parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  std::vector<search::Encoding> propose(std::size_t max_batch) override {
    std::vector<search::Encoding> out = inner_.propose(max_batch);
    if (!out.empty())
      batches_.push_back({tracer_.open("search.batch", parent_), out.size()});
    return out;
  }
  void feedback(const std::vector<search::Encoding>& encodings,
                const std::vector<double>& rewards) override {
    tracer_.close(batches_.back().span);
    inner_.feedback(encodings, rewards);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] const std::vector<Batch>& batches() const { return batches_; }

 private:
  search::Predictor& inner_;
  Tracer& tracer_;
  Tracer::Id parent_;
  std::vector<Batch> batches_;
};

/// Service-tier spans of each candidate from its public timestamps: queued
/// from its batch's submission, then evaluated.
void add_service_spans(Tracer& tracer,
                       const std::vector<TracingPredictor::Batch>& batches,
                       const std::vector<search::CandidateResult>& results) {
  const std::vector<Tracer::Span> spans = tracer.spans();
  std::size_t next = 0;
  for (const TracingPredictor::Batch& b : batches) {
    const double submit = spans.at(static_cast<std::size_t>(b.span)).start;
    for (std::size_t i = 0; i < b.size && next < results.size(); ++i, ++next) {
      const search::CandidateResult& r = results[next];
      const auto id = static_cast<std::int64_t>(next);
      const double start = submit + r.queue_seconds;
      tracer.add("service.queue", submit, start, b.span, id);
      tracer.add("service.eval", start, start + r.eval_seconds, b.span, id);
    }
  }
}

/// In-process round trips of resubmitted candidates, each answered from the
/// service's result cache.
void probe_cache_hits(search::EvalService& service, Tracer& tracer, Rep& rep) {
  const Tracer::Id root = tracer.open("hits", Tracer::kNone);
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const search::CandidateResult& r = rep.results[i];
    const Tracer::Id span =
        tracer.open("search.cache_hit", root, static_cast<std::int64_t>(i));
    (void)service.submit(rep.graphs.front(), r.mixer, r.p).wait();
    tracer.close(span);
    rep.hit_rtt_us.push_back(tracer.millis(span) * 1e3);
  }
  tracer.close(root);
}

Rep run_search_rep(const Workload& w, std::uint64_t seed, std::size_t set,
                   Ops& ops, Tracer* tracer) {
  const Timer workload_clock;
  const double cpu_start = process_cpu_seconds();
  const Tracer::Id setup_span =
      tracer ? tracer->open("setup", Tracer::kNone) : Tracer::kNone;
  Rep rep;
  rep.graphs = rep_graphs(w, seed, set);
  const graph::Graph& g = rep.graphs.front();
  search::EvalService service(session_for(w));
  // The warm-up candidate is longer than any measured one, so it builds the
  // evaluator (exact optimum), starts the workers and compiles once without
  // answering any measured candidate from the cache. It trains at the
  // deepest measured depth, so set-up rests on a few hundred milliseconds
  // of compute even on an idle host.
  (void)service.submit(g, leading_gates(w.sizes.k_max + 1), w.sizes.p_max)
      .wait();
  rep.setup_s = workload_clock.seconds();
  const double cpu_timed = process_cpu_seconds();
  rep.setup_cpu_s = cpu_timed - cpu_start;
  if (tracer) tracer->close(setup_span);

  search::SearchConfig config;
  config.p_max = w.sizes.p_max;
  const search::SearchEngine engine(config);
  const std::size_t expected =
      config.p_max * search::all_combinations(config.alphabet, w.sizes.k_max,
                                              search::CombinationMode::Product)
                         .size();
  ops.attempt(expected);
  const Probes before = Probes::read();
  const search::EvalService::Stats stats_before = service.stats();
  search::SearchReport report;
  try {
    if (tracer) {
      search::ExhaustivePredictor exhaustive(config.alphabet, w.sizes.k_max);
      const Tracer::Id root = tracer->open("search", Tracer::kNone);
      TracingPredictor predictor(exhaustive, *tracer, root);
      report = engine.run(service, g, predictor);
      tracer->close(root);
      add_service_spans(*tracer, predictor.batches(), report.evaluated);
    } else {
      report = engine.run_exhaustive(service, g, w.sizes.k_max);
    }
  } catch (const std::exception& e) {
    ops.fail(w.name + " search threw: " + e.what(), expected);
    return rep;
  }
  if (report.evaluated.size() != expected)
    ops.fail(w.name + " search returned too few candidates",
             expected - std::min(expected, report.evaluated.size()));
  rep.search_s = report.seconds;
  rep.search_cpu_s = process_cpu_seconds() - cpu_timed;
  rep.counts.probes = Probes::read() - before;
  const search::EvalService::Stats stats = service.stats();
  rep.counts.cache_hits = stats.cache_hits - stats_before.cache_hits;
  rep.submitted = stats.submitted - stats_before.submitted;
  rep.results = std::move(report.evaluated);
  for (const search::CandidateResult& r : rep.results)
    rep.latency_ms.push_back((r.queue_seconds + r.eval_seconds) * 1e3);
  account(w, rep.results, rep);
  if (tracer) probe_cache_hits(service, *tracer, rep);
  return rep;
}

// ---- wire_tenants -----------------------------------------------------------

constexpr double kLongPollMs = 30000.0;

/// Polls one ticket until it resolves; returns the final response.
qarch::json::Value await(server::QarchClient& client, const std::string& ticket) {
  qarch::json::Value response = client.result(ticket, kLongPollMs);
  while (response.at("status").as_string() == "pending")
    response = client.result(ticket, kLongPollMs);
  return response;
}

struct Job {
  std::size_t graph;
  qaoa::MixerSpec mixer;
  std::size_t p;
};

Rep run_wire_rep(const Workload& w, std::uint64_t seed, std::size_t set,
                 Ops& ops, Tracer* tracer) {
  const Timer workload_clock;
  const double cpu_start = process_cpu_seconds();
  const Tracer::Id setup_span =
      tracer ? tracer->open("setup", Tracer::kNone) : Tracer::kNone;
  const search::GateAlphabet alphabet = search::GateAlphabet::standard();
  Rep rep;
  rep.graphs = rep_graphs(w, seed, set);

  server::ServerConfig config;
  config.session = session_for(w);
  config.tenants = {
      server::TenantSpec{.name = "interactive", .api_key = "key-i",
                         .weight = 4.0},
      server::TenantSpec{.name = "batch", .api_key = "key-b", .weight = 1.0}};
  server::QarchServer daemon(config);
  daemon.start();
  const auto client_options = [&](const std::string& key) {
    server::ClientOptions o;
    o.port = daemon.port();
    o.api_key = key;
    return o;
  };
  server::QarchClient interactive(client_options("key-i"));
  server::QarchClient batch(client_options("key-b"));
  const auto body = [&](const Job& job) {
    return server::QarchClient::submit_body(rep.graphs[job.graph],
                                            job.mixer.to_string(), job.p);
  };

  // Priming pass: the k<=k_max cohort at p=1..p_max on the interactive
  // graph. The interactive loop re-asks these, so a quarter of its requests
  // are cache hits. Each batch graph warms up on a sequence longer than its
  // sweep.
  std::vector<Job> primed;
  for (std::size_t p = 1; p <= w.sizes.p_max; ++p)
    for (const qaoa::MixerSpec& m : search::all_combinations(
             alphabet, w.sizes.k_max, search::CombinationMode::Product))
      primed.push_back({0, m, p});
  {
    std::vector<std::string> tickets;
    for (const Job& job : primed) tickets.push_back(interactive.submit(body(job)));
    std::vector<std::string> warm;
    for (std::size_t gi = 1; gi < rep.graphs.size(); ++gi)
      warm.push_back(batch.submit(body({gi, leading_gates(w.sizes.batch_k + 1), 1})));
    for (const std::string& t : tickets) (void)await(interactive, t);
    for (const std::string& t : warm) (void)await(batch, t);
  }
  rep.setup_s = workload_clock.seconds();
  const double cpu_timed = process_cpu_seconds();
  rep.setup_cpu_s = cpu_timed - cpu_start;
  if (tracer) tracer->close(setup_span);

  // Timed phase. The batch tenant floods its sweep first, so the
  // interactive closed loop always competes with a backlog.
  std::vector<Job> sweep;
  for (std::size_t gi = 1; gi < rep.graphs.size(); ++gi)
    for (std::size_t p = 1; p <= w.sizes.p_max; ++p)
      for (const qaoa::MixerSpec& m : search::all_combinations(
               alphabet, w.sizes.batch_k, search::CombinationMode::Product))
        sweep.push_back({gi, m, p});
  std::vector<qaoa::MixerSpec> fresh = search::get_combinations(
      alphabet, 3, search::CombinationMode::Product);
  Rng order(seed ^ 0x7a11ULL);
  order.shuffle(fresh);

  const server::QarchServer::Counters counters_before = daemon.counters();
  const search::EvalService::Stats stats_before = daemon.service().stats();
  const Probes probes_before = Probes::read();
  const Tracer::Id root =
      tracer ? tracer->open("search", Tracer::kNone) : Tracer::kNone;
  const Timer timed;
  ops.attempt(sweep.size() + w.sizes.requests);

  std::vector<std::string> batch_tickets;
  std::size_t batch_failed = 0;
  try {
    for (const Job& job : sweep) batch_tickets.push_back(batch.submit(body(job)));
  } catch (const std::exception&) {
    batch_failed = sweep.size() - batch_tickets.size();
  }
  std::vector<search::CandidateResult> batch_results;
  {
    // The batch client is handed to this thread and not used elsewhere
    // until it is joined.
    qarch::parallel::Thread batch_thread([&] {
      for (const std::string& t : batch_tickets) {
        try {
          const double t0 = tracer ? tracer->now() : 0.0;
          const qarch::json::Value response = await(batch, t);
          if (tracer)
            tracer->add("wire.batch_result", t0, tracer->now(), root);
          if (response.at("status").as_string() == "done")
            batch_results.push_back(
                search::candidate_from_json(response.at("result")));
          else
            ++batch_failed;
        } catch (const std::exception&) {
          ++batch_failed;
        }
      }
    });

    std::size_t next_fresh = 0;
    Rng reask(seed ^ 0x4e4eULL);
    for (std::size_t i = 0; i < w.sizes.requests; ++i) {
      const bool hit = i % 4 == 3;
      const Job job = hit ? primed[reask.uniform_int(primed.size())]
                          : Job{0, fresh[next_fresh++ % fresh.size()], 1};
      const double t0 = tracer ? tracer->now() : 0.0;
      const Timer t;
      try {
        const std::string ticket = interactive.submit(body(job));
        const double t1 = tracer ? tracer->now() : 0.0;
        const qarch::json::Value response = await(interactive, ticket);
        const double elapsed = t.seconds();
        const std::string& status = response.at("status").as_string();
        if (status != "done") {
          ops.fail("interactive request resolved " + status);
          continue;
        }
        rep.latency_ms.push_back(elapsed * 1e3);
        if (tracer) {
          const Tracer::Id span = tracer->add(
              "wire.request", t0, t0 + elapsed, root,
              static_cast<std::int64_t>(i));
          tracer->add("wire.submit", t0, t1, span, static_cast<std::int64_t>(i));
          tracer->add("wire.result", t1, t0 + elapsed, span,
                      static_cast<std::int64_t>(i));
        }
        if (hit)
          rep.hit_rtt_us.push_back(elapsed * 1e6);
        else
          rep.results.push_back(
              search::candidate_from_json(response.at("result")));
      } catch (const std::exception& e) {
        ops.fail(std::string("interactive request: ") + e.what());
      }
    }
  }
  rep.search_s = timed.seconds();
  rep.search_cpu_s = process_cpu_seconds() - cpu_timed;
  if (tracer) tracer->close(root);
  if (batch_failed > 0) ops.fail("batch sweep requests", batch_failed);

  const server::QarchServer::Counters counters = daemon.counters();
  const search::EvalService::Stats stats = daemon.service().stats();
  rep.counts.probes = Probes::read() - probes_before;
  rep.counts.requests = counters.requests - counters_before.requests;
  rep.counts.rejected =
      (counters.bad_requests - counters_before.bad_requests) +
      (counters.unauthorized - counters_before.unauthorized) +
      (counters.rate_limited - counters_before.rate_limited) +
      (counters.quota_rejected - counters_before.quota_rejected);
  rep.counts.cache_hits = stats.cache_hits - stats_before.cache_hits;
  rep.submitted = stats.submitted - stats_before.submitted;
  account(w, rep.results, rep);
  account(w, batch_results, rep);
  // The service's own answer for each interactive result (cache hits).
  for (const search::CandidateResult& r : rep.results)
    rep.service_results.push_back(
        daemon.service().submit(rep.graphs.front(), r.mixer, r.p).wait());
  daemon.stop();
  return rep;
}

// ---- rep isolation ------------------------------------------------------------

qarch::json::Value numbers_to_json(const std::vector<double>& xs) {
  qarch::json::Value a = qarch::json::Value::array();
  for (double x : xs) a.push_back(x);
  return a;
}

std::vector<double> numbers_from_json(const qarch::json::Value& a) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < a.size(); ++i) xs.push_back(a.at(i).as_number());
  return xs;
}

qarch::json::Value results_to_json(
    const std::vector<search::CandidateResult>& results) {
  qarch::json::Value a = qarch::json::Value::array();
  for (const search::CandidateResult& r : results)
    a.push_back(search::candidate_to_json(r));
  return a;
}

std::vector<search::CandidateResult> results_from_json(
    const qarch::json::Value& a) {
  std::vector<search::CandidateResult> results;
  for (std::size_t i = 0; i < a.size(); ++i)
    results.push_back(search::candidate_from_json(a.at(i)));
  return results;
}

/// Every field of a Rep but its graphs, which the parent regenerates.
qarch::json::Value rep_to_json(const Rep& rep) {
  qarch::json::Value o = qarch::json::Value::object();
  o.set("setup_s", rep.setup_s);
  o.set("search_s", rep.search_s);
  o.set("setup_cpu_s", rep.setup_cpu_s);
  o.set("search_cpu_s", rep.search_cpu_s);
  o.set("results", results_to_json(rep.results));
  o.set("service_results", results_to_json(rep.service_results));
  const Counts& c = rep.counts;
  o.set("counts", numbers_to_json({
      static_cast<double>(c.candidates), static_cast<double>(c.replays),
      static_cast<double>(c.samples),
      static_cast<double>(c.probes.sim_compiles),
      static_cast<double>(c.probes.planner_calls),
      static_cast<double>(c.probes.network_builds),
      static_cast<double>(c.cache_hits), static_cast<double>(c.requests),
      static_cast<double>(c.rejected)}));
  o.set("submitted", rep.submitted);
  o.set("eval_seconds_sum", rep.eval_seconds_sum);
  o.set("latency_ms", numbers_to_json(rep.latency_ms));
  o.set("hit_rtt_us", numbers_to_json(rep.hit_rtt_us));
  return o;
}

Rep rep_from_json(const qarch::json::Value& o) {
  Rep rep;
  rep.setup_s = o.at("setup_s").as_number();
  rep.search_s = o.at("search_s").as_number();
  rep.setup_cpu_s = o.at("setup_cpu_s").as_number();
  rep.search_cpu_s = o.at("search_cpu_s").as_number();
  rep.results = results_from_json(o.at("results"));
  rep.service_results = results_from_json(o.at("service_results"));
  const std::vector<double> c = numbers_from_json(o.at("counts"));
  const auto count = [&](std::size_t i) {
    return static_cast<std::size_t>(c.at(i));
  };
  rep.counts.candidates = count(0);
  rep.counts.replays = count(1);
  rep.counts.samples = count(2);
  rep.counts.probes.sim_compiles = count(3);
  rep.counts.probes.planner_calls = count(4);
  rep.counts.probes.network_builds = count(5);
  rep.counts.cache_hits = count(6);
  rep.counts.requests = count(7);
  rep.counts.rejected = count(8);
  rep.submitted = static_cast<std::size_t>(o.at("submitted").as_number());
  rep.eval_seconds_sum = o.at("eval_seconds_sum").as_number();
  rep.latency_ms = numbers_from_json(o.at("latency_ms"));
  rep.hit_rtt_us = numbers_from_json(o.at("hit_rtt_us"));
  return rep;
}

/// The child's side of run_rep_isolated: runs the rep, writes
/// {"attempted", "failed", "rep"?} to `fd`, and never returns.
[[noreturn]] void rep_child(const Workload& w, std::uint64_t seed,
                            std::size_t set, int fd) {
  Ops ops;
  qarch::json::Value out = qarch::json::Value::object();
  try {
    out.set("rep", rep_to_json(run_rep(w, seed, set, ops, nullptr)));
  } catch (const std::exception& e) {
    ops.attempt();
    ops.fail(std::string("rep threw: ") + e.what());
  }
  out.set("attempted", ops.attempted());
  out.set("failed", ops.failed());
  const std::string text = out.dump();
  for (std::size_t done = 0; done < text.size();) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) std::_Exit(1);
    done += static_cast<std::size_t>(n);
  }
  std::fflush(stderr);
  std::_Exit(0);
}

}  // namespace

Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t set, Ops& ops,
            Tracer* tracer) {
  return w.wire ? run_wire_rep(w, seed, set, ops, tracer)
                : run_search_rep(w, seed, set, ops, tracer);
}

Rep run_rep_isolated(const Workload& w, std::uint64_t seed, std::size_t set,
                     Ops& ops, double& rss_mb) {
  int fds[2];
  if (::pipe(fds) != 0) throw qarch::Error("pipe failed");
  // Nothing buffered may be duplicated into the child.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw qarch::Error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    rep_child(w, seed, set, fds[1]);
  }
  ::close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
    throw qarch::Error("rep process ended abnormally");
  const qarch::json::Value out = qarch::json::parse(text);
  ops.attempt(static_cast<std::size_t>(out.at("attempted").as_number()));
  const auto failed = static_cast<std::size_t>(out.at("failed").as_number());
  if (failed > 0) ops.fail("rep process operations", failed);
  Rep rep = out.contains("rep") ? rep_from_json(out.at("rep")) : Rep{};
  rep.graphs = rep_graphs(w, seed, set);
  return rep;
}

void check_cross_engine(const Workload& w, const Rep& rep, Ops& ops) {
  if (rep.results.empty()) return;
  const graph::Graph& g = rep.graphs.front();
  const qarch::SessionConfig session = session_for(w);
  const qaoa::EngineKind other = w.engine == qaoa::EngineKind::Statevector
                                     ? qaoa::EngineKind::TensorNetwork
                                     : qaoa::EngineKind::Statevector;
  const search::EvaluatorOptions options = session.evaluator_options(other);
  const qaoa::EnergyEvaluator evaluator(options.hamiltonian.build(g),
                                        options.effective_energy());
  const double optimum = graph::maxcut_exact(g).value;
  for (std::size_t p = 1; p <= w.sizes.p_max; ++p) {
    const search::CandidateResult* best = nullptr;
    for (const search::CandidateResult& r : rep.results)
      if (r.p == p && (best == nullptr || r.energy > best->energy)) best = &r;
    const std::string tag = w.name + " p=" + std::to_string(p) + " best " +
                            (best ? best->mixer.to_string() : "none");
    if (best == nullptr) {
      ops.check(false, tag + " missing");
      continue;
    }
    const circuit::Circuit c = candidate_circuit(g, options, best->mixer, p);
    const double energy = evaluator.make_plan(c)->energy(best->theta);
    ops.check(close_rel(energy, best->energy, 1e-9),
              tag + ": <C> on the other engine");
    ops.check(close_rel(best->energy / optimum, best->ratio, 1e-9),
              tag + ": ratio from maxcut_exact");
  }
}

void check_direct(const Workload& w, const Rep& rep, std::uint64_t seed,
                  bool inject, Ops& ops) {
  constexpr std::size_t kSampled = 2;
  if (rep.results.empty()) return;
  const qarch::SessionConfig session = session_for(w);
  const search::Evaluator direct(rep.graphs.front(),
                                 session.evaluator_options(w.engine));
  Rng rng(seed ^ 0xd1ec7ULL);
  for (std::size_t k = 0; k < kSampled; ++k) {
    const std::size_t i = rng.uniform_int(rep.results.size());
    search::CandidateResult observed = rep.results[i];
    if (inject && k == 0)
      observed.energy = std::nextafter(observed.energy, observed.energy + 1.0);
    const search::CandidateResult expected =
        direct.evaluate(observed.mixer, observed.p);
    const std::string tag = w.name + " result " + std::to_string(i) + " " +
                            observed.mixer.to_string() +
                            " p=" + std::to_string(observed.p);
    ops.check(same_result(observed, expected),
              tag + (w.wire ? ": wire == direct" : ": service == direct"));
    if (w.wire)
      ops.check(same_result(rep.service_results.at(i), expected),
                tag + ": service == direct");
  }
}

}  // namespace perfbench

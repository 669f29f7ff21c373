// qarchd protocol conformance: every test drives a real in-process daemon on
// an ephemeral loopback port through the qarch_client library (or a raw
// socket where the client is too well-behaved to produce the abuse), and
// asserts the wire behaviour promised in src/server/README.md — status
// codes for malformed input, tenant isolation, admission control, long-poll
// semantics, cancel over the wire, and bit-for-bit parity between a wire
// response and a direct in-process EvalService evaluation.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/optimizer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qaoa/objective.hpp"
#include "query/sampler.hpp"
#include "search/eval_service.hpp"
#include "search/fault.hpp"
#include "search/report_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "session.hpp"
#include "sim/sim_program.hpp"

namespace {

using namespace qarch;
using server::ApiError;
using server::ClientOptions;
using server::QarchClient;
using server::QarchServer;
using server::ServerConfig;
using server::TenantSpec;

SessionConfig fast_session() {
  SessionConfig s;
  s.backend = BackendChoice::Statevector;
  s.training_evals = 20;
  s.shots = 32;
  s.sample_trials = 2;
  s.workers = 2;
  s.server_io_threads = 4;
  return s;
}

graph::Graph test_graph(std::uint64_t seed, std::size_t n = 6,
                        std::size_t degree = 3) {
  Rng rng(seed);
  return graph::random_regular(n, degree, rng);
}

ServerConfig base_config() {
  ServerConfig config;
  config.session = fast_session();
  config.tenants = {TenantSpec{.name = "alice", .api_key = "key-a"},
                    TenantSpec{.name = "bob", .api_key = "key-b"}};
  return config;
}

QarchClient make_client(const QarchServer& server, const std::string& key,
                        int retries = 2) {
  ClientOptions options;
  options.port = const_cast<QarchServer&>(server).port();
  options.api_key = key;
  options.max_retries = retries;
  return QarchClient(options);
}

json::Value ring_body(std::size_t n = 4, const std::string& mixer = "rx",
                      std::size_t p = 1) {
  json::Value gen = json::Value::object();
  gen.set("name", "ring");
  gen.set("n", n);
  json::Value body = json::Value::object();
  body.set("generator", std::move(gen));
  body.set("mixer", mixer);
  body.set("p", p);
  return body;
}

// Pins the daemon's worker(s) for a while: COBYLA may converge before any
// single budget, so busy-ness comes from a queue of DISTINCT heavy jobs,
// not one huge one. Returns the tickets (poll them to quiesce).
std::vector<std::string> flood_heavy(QarchClient& client, std::size_t count,
                                     std::uint64_t seed0) {
  std::vector<std::string> tickets;
  for (std::size_t i = 0; i < count; ++i)
    tickets.push_back(client.submit(QarchClient::submit_body(
        test_graph(seed0 + i, 10, 3), "rx", 2, /*budget=*/400)));
  return tickets;
}

int api_status(QarchClient& client, const std::string& method,
               const std::string& target, const std::string& body) {
  try {
    (void)client.request(method, target, body);
    return 200;
  } catch (const ApiError& e) {
    return e.status();
  }
}

// ---------------------------------------------------------------------------
// Pure parsing units
// ---------------------------------------------------------------------------

TEST(TenantSpec, ParsesTheFullGrammar) {
  const auto minimal = TenantSpec::parse("alice:key-a");
  EXPECT_EQ(minimal.name, "alice");
  EXPECT_EQ(minimal.api_key, "key-a");
  EXPECT_EQ(minimal.weight, 1.0);
  EXPECT_EQ(minimal.rate, 0.0);
  EXPECT_EQ(minimal.burst, 0.0);
  EXPECT_EQ(minimal.max_inflight, 0);

  const auto full = TenantSpec::parse("bob:key-b:4:2.5:10:8");
  EXPECT_EQ(full.weight, 4.0);
  EXPECT_EQ(full.rate, 2.5);
  EXPECT_EQ(full.burst, 10.0);
  EXPECT_EQ(full.max_inflight, 8);

  EXPECT_THROW((void)TenantSpec::parse("justaname"), InvalidArgument);
  EXPECT_THROW((void)TenantSpec::parse(":key"), InvalidArgument);
  EXPECT_THROW((void)TenantSpec::parse("a:k:notanumber"), InvalidArgument);
  EXPECT_THROW((void)TenantSpec::parse("a:k:0"), InvalidArgument);  // weight
  EXPECT_THROW((void)TenantSpec::parse("a:k:1:1:1:1:extra"), InvalidArgument);
}

TEST(SubmitJson, BuildsGraphsFromBothForms) {
  json::Value body = json::parse(
      R"({"graph":{"n":3,"edges":[[0,1],[1,2,2.5]]},"mixer":"rx","p":1})");
  const auto g = server::graph_from_submit_json(body, 32);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edges()[1].weight, 2.5);

  json::Value gen = json::parse(
      R"({"generator":{"name":"regular","n":6,"degree":3,"seed":11}})");
  const auto rg = server::graph_from_submit_json(gen, 32);
  EXPECT_EQ(rg.num_vertices(), 6u);
  EXPECT_EQ(rg.degree(0), 3u);
  // Same seed, same graph: wire submissions are reproducible.
  EXPECT_EQ(search::graph_fingerprint(rg),
            search::graph_fingerprint(server::graph_from_submit_json(gen, 32)));
}

TEST(SubmitJson, RejectsMalformedGraphSpecs) {
  const auto reject = [](const char* text) {
    EXPECT_THROW(
        (void)server::graph_from_submit_json(json::parse(text), 8),
        InvalidArgument)
        << text;
  };
  reject(R"({"mixer":"rx"})");                                 // neither form
  reject(R"({"graph":{"n":3,"edges":[[0,1]]},"generator":{}})");  // both
  reject(R"({"graph":{"n":99,"edges":[]}})");                  // too large
  reject(R"({"graph":{"n":3,"edges":[[0,1,1.0,9]]}})");        // bad arity
  reject(R"({"graph":{"n":3,"edges":[[0,0]]}})");              // self loop
  reject(R"({"graph":{"n":3,"edges":[[0,5]]}})");              // out of range
  reject(R"({"generator":{"name":"mobius","n":4}})");          // unknown
  reject(R"({"generator":{"name":"grid","rows":4,"cols":4}})");  // 16 > 8
  reject(R"({"graph":{"n":-3,"edges":[]}})");                  // negative n
}

// ---------------------------------------------------------------------------
// Wire conformance
// ---------------------------------------------------------------------------

TEST(QarchServer, HealthzIsUnauthenticated) {
  QarchServer server(base_config());
  server.start();
  QarchClient anon = make_client(server, "");
  const json::Value health = anon.healthz();
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("engine").as_string(), "sv");
}

TEST(QarchServer, MissingOrUnknownApiKeyIs401) {
  QarchServer server(base_config());
  server.start();
  QarchClient anon = make_client(server, "");
  QarchClient wrong = make_client(server, "not-a-key");
  EXPECT_EQ(api_status(anon, "GET", "/v1/stats", ""), 401);
  EXPECT_EQ(api_status(wrong, "POST", "/v1/submit", ring_body().dump()), 401);
  EXPECT_EQ(server.counters().unauthorized, 2u);
  EXPECT_EQ(server.counters().submits, 0u);
}

TEST(QarchServer, MalformedJsonIs400) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", "{nope"), 400);
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", ""), 400);
  // Unknown top-level fields are typos, not extensions: reject loudly.
  json::Value typo = ring_body();
  typo.set("bugdet", 50);
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", typo.dump()), 400);
  // A priority outside ±(2^31 - 1) cannot be negated into the scheduler.
  json::Value huge_priority = ring_body();
  huge_priority.set("priority", -1e10);
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", huge_priority.dump()),
            400);
  // Bad wait_ms on an otherwise fine request.
  const std::string ticket = alice.submit(ring_body());
  EXPECT_EQ(api_status(alice, "GET", "/v1/result/" + ticket + "?wait_ms=soon",
                       ""),
            400);
  EXPECT_EQ(server.counters().bad_requests, 5u);
}

TEST(QarchServer, UnknownTicketAndEndpointAre404) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");
  EXPECT_EQ(api_status(alice, "GET", "/v1/result/t-999", ""), 404);
  EXPECT_EQ(api_status(alice, "POST", "/v1/cancel/t-999", ""), 404);
  EXPECT_EQ(api_status(alice, "GET", "/v2/everything", ""), 404);
}

TEST(QarchServer, CrossTenantTicketLookupIs404) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");
  QarchClient bob = make_client(server, "key-b");
  const std::string ticket = alice.submit(ring_body());
  // Bob can neither read nor cancel Alice's ticket — and the answer is
  // indistinguishable from "no such ticket".
  EXPECT_EQ(api_status(bob, "GET", "/v1/result/" + ticket, ""), 404);
  EXPECT_EQ(api_status(bob, "POST", "/v1/cancel/" + ticket, ""), 404);
  // Alice still can.
  EXPECT_EQ(alice.result(ticket, 20000.0).at("status").as_string(), "done");
}

TEST(QarchServer, WrongMethodIs405) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");
  EXPECT_EQ(api_status(alice, "GET", "/v1/submit", ""), 405);
  EXPECT_EQ(api_status(alice, "POST", "/v1/stats", ""), 405);
  EXPECT_EQ(api_status(alice, "POST", "/healthz", ""), 405);
}

TEST(QarchServer, OversizedBodyIs413) {
  ServerConfig config = base_config();
  config.session.server_max_body_bytes = 256;
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");
  // Rejected on the Content-Length header, before any body bytes are
  // buffered or parsed.
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", std::string(1024, 'x')),
            413);
  EXPECT_EQ(server.counters().submits, 0u);
}

TEST(QarchServer, OversizedHeaderSectionIs431) {
  QarchServer server(base_config());
  server.start();
  server::Socket conn = server::tcp_connect("127.0.0.1", server.port(), 5.0);
  std::string request = "GET /healthz HTTP/1.1\r\nHost: x\r\n";
  request += "X-Padding: " + std::string(16384, 'p') + "\r\n\r\n";
  ASSERT_TRUE(conn.send_all(request));
  server::HttpResponse response;
  server::read_http_response(conn, response, server::HttpLimits{});
  EXPECT_EQ(response.status, 431);
}

TEST(QarchServer, EngineFieldIsAnAssertionNotARequest) {
  QarchServer server(base_config());  // forced statevector
  server.start();
  QarchClient alice = make_client(server, "key-a");
  json::Value body = ring_body();
  body.set("engine", "tn");
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", body.dump()), 409);
  body.set("engine", "sv");
  EXPECT_NO_THROW((void)alice.submit(body));
}

TEST(QarchServer, WireResultMatchesDirectServiceBitForBit) {
  const auto g = test_graph(21);
  ServerConfig config = base_config();
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");

  const json::Value body = QarchClient::submit_body(g, "rx,ry", 1);
  const search::CandidateResult wire = alice.evaluate(body);

  // An equally configured in-process service must produce the identical
  // candidate: the daemon adds transport, not semantics.
  search::EvalService direct(config.session);
  const auto direct_ticket = direct.submit(g, qaoa::MixerSpec::parse("rx,ry"), 1);
  const search::CandidateResult expected = direct_ticket.wait();
  EXPECT_EQ(wire.energy, expected.energy);
  EXPECT_EQ(wire.ratio, expected.ratio);
  EXPECT_EQ(wire.sampled_ratio, expected.sampled_ratio);
  EXPECT_EQ(wire.theta, expected.theta);
  EXPECT_EQ(wire.evaluations, expected.evaluations);

  // Second submit of the same candidate: served from the service cache with
  // ZERO new program compilations, and flagged as such on the wire.
  const std::size_t compiles = sim::program_compile_count();
  const std::string ticket = alice.submit(body);
  const json::Value again = alice.result(ticket, 20000.0);
  EXPECT_EQ(again.at("status").as_string(), "done");
  EXPECT_TRUE(again.at("from_cache").as_bool());
  EXPECT_EQ(sim::program_compile_count(), compiles);
  const auto cached = search::candidate_from_json(again.at("result"));
  EXPECT_EQ(cached.energy, expected.energy);
  EXPECT_EQ(cached.theta, expected.theta);
}

/// The sampler a /v1/sample request resolves to, built the same way the
/// daemon builds it (ansatz simplification + engine-reconciled options), so
/// wire draws can be compared bit-for-bit against direct ones.
query::Sampler direct_sampler(const SessionConfig& session,
                              const graph::Graph& g, const std::string& mixer,
                              std::size_t p, qaoa::EngineKind engine) {
  circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, p, qaoa::MixerSpec::parse(mixer));
  if (session.simplify_circuit) ansatz = circuit::optimize(ansatz);
  const qaoa::EnergyOptions energy = session.energy_options(engine);
  query::SamplerOptions so;
  so.engine = engine == qaoa::EngineKind::Statevector
                  ? query::SamplerEngine::Statevector
                  : query::SamplerEngine::TensorNetwork;
  so.query = query::query_options(energy.qtensor);
  so.tn_backend = energy.qtensor.backend;
  so.sv_plan = energy.sv_plan;
  so.sv_workers = energy.inner_workers;
  return query::Sampler(ansatz, so);
}

TEST(QarchServer, SampleOverTheWireMatchesDirectSampler) {
  const auto g = test_graph(31);
  ServerConfig config = base_config();
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");

  const std::vector<double> theta = {0.4, -0.7};
  const std::size_t shots = 48;
  const std::uint64_t seed = 12345;

  json::Value body = QarchClient::submit_body(g, "rx", 1);
  json::Value theta_json = json::Value::array();
  for (const double t : theta) theta_json.push_back(t);
  body.set("theta", std::move(theta_json));
  body.set("shots", shots);
  body.set("seed", seed);

  // Statevector daemon, both engines requestable per call: draws must match
  // an identically configured direct sampler at the same seed bit-for-bit.
  for (const std::string& engine : {std::string("sv"), std::string("tn")}) {
    body.set("engine", engine);
    const json::Value response =
        alice.request("POST", "/v1/sample", body.dump());
    EXPECT_EQ(response.at("engine").as_string(), engine);
    ASSERT_EQ(response.at("samples").size(), shots);
    ASSERT_EQ(response.at("values").size(), shots);

    const query::Sampler sampler = direct_sampler(
        config.session, g, "rx", 1,
        engine == "sv" ? qaoa::EngineKind::Statevector
                       : qaoa::EngineKind::TensorNetwork);
    Rng rng(seed);
    const std::vector<std::size_t> expected =
        sampler.sample(theta, shots, rng);
    const qaoa::Hamiltonian ham(g);
    for (std::size_t i = 0; i < shots; ++i) {
      EXPECT_EQ(
          static_cast<std::size_t>(response.at("samples").at(i).as_number()),
          expected[i]);
      EXPECT_DOUBLE_EQ(response.at("values").at(i).as_number(),
                       ham.classical_value_bits(expected[i]));
    }
  }

  // A non-default Hamiltonian reprices the same draws.
  body.set("engine", "sv");
  body.set("hamiltonian", "mis");
  body.set("mis_penalty", 2.5);
  const json::Value mis_response =
      alice.request("POST", "/v1/sample", body.dump());
  const qaoa::Hamiltonian mis = qaoa::Hamiltonian::mis(g, 2.5);
  const query::Sampler sampler = direct_sampler(
      config.session, g, "rx", 1, qaoa::EngineKind::Statevector);
  Rng rng(seed);
  const auto expected = sampler.sample(theta, shots, rng);
  for (std::size_t i = 0; i < shots; ++i)
    EXPECT_DOUBLE_EQ(mis_response.at("values").at(i).as_number(),
                     mis.classical_value_bits(expected[i]));

  // The wire counter ticked once per sample request.
  const json::Value stats = alice.stats();
  EXPECT_EQ(stats.at("server").at("samples").as_number(), 3.0);
}

TEST(QarchServer, SampleRejectsMalformedRequests) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");

  json::Value body = ring_body();
  json::Value theta = json::Value::array();
  theta.push_back(0.1);
  theta.push_back(0.2);
  body.set("theta", std::move(theta));
  body.set("shots", 4);
  EXPECT_EQ(api_status(alice, "POST", "/v1/sample", body.dump()), 200);
  EXPECT_EQ(api_status(alice, "GET", "/v1/sample", ""), 405);

  json::Value bad = json::parse(body.dump());
  bad.set("budget", 10);  // a submit field, not a sample field
  EXPECT_EQ(api_status(alice, "POST", "/v1/sample", bad.dump()), 400);

  json::Value no_theta = ring_body();
  no_theta.set("shots", 4);
  EXPECT_EQ(api_status(alice, "POST", "/v1/sample", no_theta.dump()), 400);

  json::Value short_theta = json::parse(body.dump());
  json::Value one = json::Value::array();
  one.push_back(0.1);
  short_theta.set("theta", std::move(one));
  EXPECT_EQ(api_status(alice, "POST", "/v1/sample", short_theta.dump()), 400);

  json::Value no_shots = json::parse(body.dump());
  no_shots.set("shots", 0);
  EXPECT_EQ(api_status(alice, "POST", "/v1/sample", no_shots.dump()), 400);
}

TEST(QarchServer, ObjectiveSubmitMatchesDirectServiceBitForBit) {
  const auto g = test_graph(37);
  ServerConfig config = base_config();
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");

  json::Value body = QarchClient::submit_body(g, "rx", 1);
  body.set("objective", "cvar");
  body.set("cvar_alpha", 0.5);
  body.set("hamiltonian", "mis");
  const search::CandidateResult wire = alice.evaluate(body);

  search::EvalService direct(config.session);
  search::JobOptions options;
  options.objective = qaoa::ObjectiveSpec{};
  options.objective->kind = qaoa::ObjectiveKind::CVaR;
  options.objective->alpha = 0.5;
  options.hamiltonian = qaoa::HamiltonianSpec{};
  options.hamiltonian->kind = qaoa::HamiltonianKind::MIS;
  const search::CandidateResult expected =
      direct.submit(g, qaoa::MixerSpec::parse("rx"), 1, options).wait();
  EXPECT_EQ(wire.energy, expected.energy);
  EXPECT_EQ(wire.ratio, expected.ratio);
  EXPECT_EQ(wire.sampled_ratio, expected.sampled_ratio);
  EXPECT_EQ(wire.theta, expected.theta);

  // The spec'd candidate and the default candidate are distinct wire
  // submissions (no false cache hit between them).
  const std::string default_ticket =
      alice.submit(QarchClient::submit_body(g, "rx", 1));
  const json::Value default_result = alice.result(default_ticket, 20000.0);
  EXPECT_EQ(default_result.at("status").as_string(), "done");
  EXPECT_FALSE(default_result.at("from_cache").as_bool());

  // Unknown kinds and orphaned parameter fields are the client's fault.
  json::Value bad = QarchClient::submit_body(g, "rx", 1);
  bad.set("objective", "nope");
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", bad.dump()), 400);
  json::Value orphan = QarchClient::submit_body(g, "rx", 1);
  orphan.set("cvar_alpha", 0.5);
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", orphan.dump()), 400);
  json::Value orphan_ham = QarchClient::submit_body(g, "rx", 1);
  orphan_ham.set("mis_penalty", 2.0);
  EXPECT_EQ(api_status(alice, "POST", "/v1/submit", orphan_ham.dump()), 400);
}

TEST(QarchClient, KeepAliveReusesOneConnectionAndSurvivesRestart) {
  ServerConfig config = base_config();
  std::optional<QarchServer> daemon;
  daemon.emplace(config);
  daemon->start();
  const std::uint16_t port = daemon->port();

  ClientOptions options;
  options.port = port;
  options.api_key = "key-a";
  options.max_retries = 4;
  options.retry_backoff_seconds = 0.01;
  QarchClient client(options);

  // Several sequential requests ride ONE connection.
  (void)client.healthz();
  (void)client.stats();
  (void)client.submit(ring_body());
  (void)client.stats();
  EXPECT_EQ(client.connections_opened(), 1u);

  // Restart the daemon on the same port: the cached socket goes stale. The
  // next request recovers on a fresh connection (at most one extra for the
  // dead-socket discovery) without surfacing an error.
  daemon->stop();
  daemon.reset();
  config.port = port;
  daemon.emplace(config);
  daemon->start();
  EXPECT_NO_THROW((void)client.stats());
  EXPECT_GE(client.connections_opened(), 2u);
  EXPECT_LE(client.connections_opened(), 3u);

  // And stays on the new connection afterwards.
  const std::size_t settled = client.connections_opened();
  (void)client.healthz();
  (void)client.stats();
  EXPECT_EQ(client.connections_opened(), settled);
}

TEST(QarchServer, LongPollWaitsAndImmediatePollReportsPending) {
  ServerConfig config = base_config();
  config.session.workers = 1;
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");

  // Heavy jobs pin the single worker...
  const auto blockers = flood_heavy(alice, 4, 220);
  // ...so the queued job is still pending for an immediate poll.
  const std::string ticket = alice.submit(ring_body());
  EXPECT_EQ(alice.result(ticket, 0.0).at("status").as_string(), "pending");
  // A long-poll rides out the queue wait and returns done.
  const json::Value done = alice.result(ticket, 30000.0);
  EXPECT_EQ(done.at("status").as_string(), "done");
  for (const auto& t : blockers) (void)alice.result(t, 30000.0);
}

TEST(QarchServer, CancelAndDeadlineOverTheWire) {
  ServerConfig config = base_config();
  config.session.workers = 1;
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");

  const auto blockers = flood_heavy(alice, 8, 230);

  // Cancel a queued submission over the wire.
  const std::string doomed = alice.submit(ring_body(4, "ry"));
  EXPECT_TRUE(alice.cancel(doomed));
  EXPECT_EQ(alice.result(doomed).at("status").as_string(), "cancelled");
  EXPECT_EQ(server.counters().cancels, 1u);

  // A queued job whose deadline passes resolves expired, not stuck.
  json::Value dated = ring_body(4, "rz");
  dated.set("deadline_ms", 20.0);
  const std::string expired = alice.submit(dated);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(alice.result(expired, 1000.0).at("status").as_string(), "expired");

  for (const auto& t : blockers) (void)alice.result(t, 30000.0);
}

TEST(QarchServer, TokenBucketRateLimits) {
  ServerConfig config = base_config();
  // burst 2, refill 0: exactly two submits, then 429 forever — fully
  // deterministic, no sleeps.
  config.tenants = {TenantSpec{.name = "limited",
                               .api_key = "key-l",
                               .weight = 1.0,
                               .rate = 0.0,
                               .burst = 2.0},
                    TenantSpec{.name = "free", .api_key = "key-f"}};
  QarchServer server(config);
  server.start();
  QarchClient limited = make_client(server, "key-l");
  QarchClient free_rider = make_client(server, "key-f");

  (void)limited.submit(ring_body(4, "rx"));
  (void)limited.submit(ring_body(4, "ry"));
  try {
    (void)limited.submit(ring_body(4, "rz"));
    FAIL() << "third submit must be rate-limited";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 429);
    EXPECT_NE(std::string(e.what()).find("rate limit"), std::string::npos);
  }
  EXPECT_EQ(server.counters().rate_limited, 1u);
  EXPECT_EQ(server.counters().submits, 2u);
  // Rate limiting is per tenant: the other tenant is unaffected.
  EXPECT_NO_THROW((void)free_rider.submit(ring_body(4, "rz")));
}

TEST(QarchServer, InflightQuotaCountsOutstandingTickets) {
  ServerConfig config = base_config();
  config.session.workers = 1;
  config.tenants = {TenantSpec{.name = "quota",
                               .api_key = "key-q",
                               .weight = 1.0,
                               .rate = 0.0,
                               .burst = 0.0,
                               .max_inflight = 1},
                    TenantSpec{.name = "blocker", .api_key = "key-x"}};
  QarchServer server(config);
  server.start();
  QarchClient blocker = make_client(server, "key-x");
  QarchClient quota = make_client(server, "key-q");

  const auto blockers = flood_heavy(blocker, 4, 240);

  const std::string first = quota.submit(ring_body(4, "rx"));
  try {
    (void)quota.submit(ring_body(4, "ry"));
    FAIL() << "second outstanding ticket must exceed the quota";
  } catch (const ApiError& e) {
    EXPECT_EQ(e.status(), 429);
  }
  EXPECT_EQ(server.counters().quota_rejected, 1u);
  // Resolving the outstanding ticket (here: cancelling it) frees the slot.
  EXPECT_TRUE(quota.cancel(first));
  EXPECT_NO_THROW((void)quota.submit(ring_body(4, "ry")));
  for (const auto& t : blockers) (void)blocker.result(t, 30000.0);
}

TEST(QarchServer, StatsReportPerTenantQueues) {
  QarchServer server(base_config());
  server.start();
  QarchClient alice = make_client(server, "key-a");
  (void)alice.evaluate(ring_body());
  const json::Value stats = alice.stats();
  EXPECT_EQ(stats.at("engine").as_string(), "sv");
  EXPECT_GE(stats.at("service").at("completed").as_number(), 1.0);
  EXPECT_EQ(stats.at("server").at("submits").as_number(), 1.0);
  const json::Value& tenants = stats.at("tenants");
  ASSERT_EQ(tenants.size(), 2u);
  bool saw_alice = false;
  for (std::size_t i = 0; i < tenants.size(); ++i)
    if (tenants.at(i).at("name").as_string() == "alice") {
      saw_alice = true;
      EXPECT_EQ(tenants.at(i).at("submitted").as_number(), 1.0);
      EXPECT_EQ(tenants.at(i).at("outstanding").as_number(), 0.0);
    }
  EXPECT_TRUE(saw_alice);
}

TEST(QarchServer, StopUnblocksLongPollsAndDrains) {
  // Evaluation speed must not decide this test: a 20 ms injected delay per
  // objective call makes every queued job take >= 400 ms deterministically,
  // so the flood is guaranteed to still be running when stop() fires.
  struct FaultGuard {
    ~FaultGuard() { search::FaultInjector::instance().reset(); }
  } guard;
  search::FaultPlan slow;
  slow.delay_seconds = 0.02;
  slow.delay_rate = 1.0;
  search::FaultInjector::instance().configure(slow);

  ServerConfig config = base_config();
  config.session.workers = 1;
  QarchServer server(config);
  server.start();
  QarchClient alice = make_client(server, "key-a");
  const auto blockers = flood_heavy(alice, 12, 250);

  // A long poll on the last queued job is parked on an IO thread...
  json::Value polled;
  std::thread poller([&] {
    QarchClient c = make_client(server, "key-a");
    polled = c.result(blockers.back(), 25000.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...and stop() must not wait the full 25 s for it: the poll answers
  // "pending" as soon as shutdown begins, then the service drains.
  const auto t0 = std::chrono::steady_clock::now();
  server.stop(5.0);
  poller.join();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(stop_seconds, 15.0);
  EXPECT_EQ(polled.at("status").as_string(), "pending");

  // The daemon is gone: new connections fail, but as a clean client error.
  QarchClient after = make_client(server, "key-a", /*retries=*/0);
  EXPECT_THROW((void)after.healthz(), Error);
}

}  // namespace

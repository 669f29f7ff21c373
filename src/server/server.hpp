// qarchd: the networked, multi-tenant front door of search::EvalService.
//
// Everything behind the wire already exists — one EvalService dedups,
// caches, schedules fairly, preempts, checkpoints, and survives crashes
// (src/search/README.md). QarchServer is deliberately a THIN adapter in the
// OSRM routed/engine mold: it maps HTTP/JSON requests onto the service's
// submit/ticket surface and tenants onto the service's fair-share weighted
// queues, and adds only what a shared network endpoint needs on top:
//
//   * authentication — every /v1/* request carries an X-Api-Key header that
//     must match a configured tenant (401 otherwise);
//   * per-tenant fair share — each tenant registers one EvalClient queue
//     with its configured weight, so a greedy batch tenant cannot starve an
//     interactive one (the deficit-weighted round robin underneath does the
//     actual scheduling);
//   * admission control — a token-bucket rate limit (burst + refill/sec) and
//     a max-outstanding-tickets quota per tenant, both answered with 429
//     before any work is enqueued;
//   * wire safety — bounded request bodies (413), bounded header sections
//     (431), malformed JSON answered 400, long-polls capped so a connection
//     cannot pin an IO thread forever;
//   * graceful shutdown — stop() stops accepting, finishes in-flight
//     requests, then runs EvalService::drain(): running evaluations park at
//     their next safe point and checkpoints/caches persist, so a restarted
//     daemon on the same paths resumes mid-training.
//
// Protocol (full spec with examples in src/server/README.md):
//
//   POST /v1/submit            {graph|generator, mixer, p, budget?, engine?,
//                               priority?, deadline_ms?, objective?,
//                               cvar_alpha?, objective_shots?, hamiltonian?,
//                               mis_penalty?, ising_coupling?, ising_field?}
//                                                          -> 202 {ticket}
//   POST /v1/sample            {graph|generator, mixer, p, theta, shots,
//                               seed?, engine?, hamiltonian?, ...}
//                                                          -> 200 {samples,
//                                                              values, engine}
//   GET  /v1/result/<ticket>?wait_ms=N                     -> 200 {status,...}
//   POST /v1/cancel/<ticket>                               -> 200 {cancelled}
//   GET  /v1/stats                                         -> 200 {...}
//   GET  /healthz              (unauthenticated)           -> 200 {status:ok}
//
// Tickets are per-tenant: one tenant can never see or cancel another's
// ticket (the lookup answers 404, indistinguishable from "never existed").
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "search/eval_service.hpp"
#include "server/http.hpp"
#include "session.hpp"

namespace qarch::server {

/// One authenticated tenant of the daemon. An omitted limit is off: a spec
/// of just a name and a key is an unlimited weight-1 tenant.
struct TenantSpec {
  std::string name;          ///< diagnostic label (also the EvalClient name)
  std::string api_key;       ///< value of the X-Api-Key header
  double weight = 1.0;       ///< fair-share weight of the tenant's queue
  double rate = 0.0;         ///< token refill per second (0 = none: the
                             ///< tenant spends its burst, then gets 429)
  double burst = 0.0;        ///< bucket capacity (0 = rate limiting off)
  long max_inflight = 0;     ///< outstanding-ticket quota (0 = unlimited);
                             ///< at the quota a submit gets 429 until
                             ///< results resolve

  /// Parses "name:key[:weight[:rate[:burst[:inflight]]]]" (the qarchd
  /// --tenants grammar). Throws InvalidArgument on malformed specs.
  static TenantSpec parse(const std::string& text);
};

/// Everything qarchd needs to run: the evaluation session plus the serving
/// surface.
struct ServerConfig {
  SessionConfig session;     ///< backend, workers, caches, robustness knobs,
                             ///< and the server_* wire defaults
  std::uint16_t port = 0;    ///< 0 = bind an ephemeral port (tests)
  std::vector<TenantSpec> tenants;  ///< must be non-empty to serve /v1/*
  /// Reject graphs with more vertices than this (a typo'd n=10000 submit
  /// must not OOM the statevector engine before auto-selection can decline).
  std::size_t max_vertices = 32;
};

/// The daemon. One instance owns one EvalService, one listening socket, and
/// the IO threads serving it. Thread-safe: handlers run concurrently on the
/// IO pool.
class QarchServer {
 public:
  explicit QarchServer(ServerConfig config);
  ~QarchServer();

  QarchServer(const QarchServer&) = delete;
  QarchServer& operator=(const QarchServer&) = delete;

  /// Binds the port and spawns the acceptor and IO threads. Throws Error
  /// when the port cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, finish in-flight requests (long
  /// polls return "pending" immediately), then drain the evaluation service
  /// (park + checkpoint + persist caches) waiting at most
  /// `drain_timeout_seconds` for running slices. Idempotent.
  void stop(double drain_timeout_seconds = 5.0);

  /// The bound port (the real one when config.port was 0). Valid after
  /// start().
  [[nodiscard]] std::uint16_t port() const;

  /// The service behind the front door (tests compare wire responses
  /// against direct submissions to an equally configured service).
  [[nodiscard]] search::EvalService& service() { return *service_; }

  /// Wire-level accounting (monotonic counters).
  struct Counters {
    std::size_t connections = 0;     ///< accepted sockets
    std::size_t requests = 0;        ///< requests parsed off the wire
    std::size_t bad_requests = 0;    ///< 400/413/431 answers
    std::size_t unauthorized = 0;    ///< 401 answers
    std::size_t rate_limited = 0;    ///< 429: token bucket empty
    std::size_t quota_rejected = 0;  ///< 429: outstanding-ticket quota
    std::size_t submits = 0;         ///< tickets issued
    std::size_t samples = 0;         ///< /v1/sample requests served
    std::size_t cancels = 0;         ///< cancel requests honoured
    std::size_t dropped = 0;         ///< connections dropped by fault
                                     ///< injection (QARCH_FAULT drop=)
  };
  [[nodiscard]] Counters counters() const;

  /// One request dispatched in-process, bypassing the socket layer — the
  /// protocol-conformance tests exercise handler logic through this without
  /// binding ports, and the socket tests prove the wire path separately.
  HttpResponse handle(const HttpRequest& request);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::unique_ptr<search::EvalService> service_;
};

/// Builds a graph::Graph from the submit payload's "graph" (n + edge list)
/// or "generator" (named family + parameters) form. Exposed for the client
/// library and tests; throws InvalidArgument on anything malformed.
graph::Graph graph_from_submit_json(const json::Value& body,
                                    std::size_t max_vertices);

}  // namespace qarch::server

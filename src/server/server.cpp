#include "server/server.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "circuit/optimizer.hpp"
#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "parallel/thread.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/hamiltonian.hpp"
#include "qaoa/objective.hpp"
#include "query/sampler.hpp"
#include "search/evaluator.hpp"
#include "search/fault.hpp"
#include "search/report_io.hpp"

namespace qarch::server {

namespace {

double parse_spec_double(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    QARCH_REQUIRE(used == s.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("tenant spec: bad number for " + what + ": " + s);
  }
}

/// "priority": an integer in ±(2^31 − 1). The scheduler orders by its
/// negation, so INT_MIN is out of range too. Throws InvalidArgument — mapped
/// to 400 — otherwise.
int as_priority(const json::Value& v) {
  const double d = v.as_number();
  QARCH_REQUIRE(d == std::floor(d) && std::fabs(d) <= 2147483647.0,
                "\"priority\" must be an integer in ±(2^31 - 1)");
  return static_cast<int>(d);
}

std::size_t require_uint(const json::Value& body, const std::string& key) {
  QARCH_REQUIRE(body.contains(key), "submit body is missing \"" + key + "\"");
  return json::as_uint(body.at(key), "\"" + key + "\"");
}

HttpResponse json_response(int status, const json::Value& body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = body.dump();
  resp.body += '\n';
  return resp;
}

HttpResponse error_body(int status, const std::string& message) {
  json::Value out = json::Value::object();
  out.set("error", message);
  return json_response(status, out);
}

/// Optional training-objective fields shared by /v1/submit: "objective"
/// names the kind, "cvar_alpha" / "objective_shots" parameterize it. The
/// parameter fields without "objective" are rejected (a silent default would
/// mask a typo'd request). Unknown kinds throw InvalidArgument → 400.
std::optional<qaoa::ObjectiveSpec> objective_spec_from_json(
    const json::Value& body) {
  if (!body.contains("objective")) {
    QARCH_REQUIRE(!body.contains("cvar_alpha") &&
                      !body.contains("objective_shots"),
                  "\"cvar_alpha\" / \"objective_shots\" need \"objective\"");
    return std::nullopt;
  }
  qaoa::ObjectiveSpec spec;
  spec.kind =
      qaoa::objective_kind_from_name(body.at("objective").as_string());
  if (body.contains("cvar_alpha")) {
    spec.alpha = body.at("cvar_alpha").as_number();
    QARCH_REQUIRE(spec.alpha > 0.0 && spec.alpha <= 1.0,
                  "\"cvar_alpha\" must be in (0, 1]");
  }
  if (body.contains("objective_shots"))
    spec.shots =
        json::as_uint(body.at("objective_shots"), "\"objective_shots\"");
  return spec;
}

/// Optional cost-Hamiltonian fields shared by /v1/submit and /v1/sample:
/// "hamiltonian" names the kind ("maxcut" / "mis" / "ising"),
/// "mis_penalty" / "ising_coupling" / "ising_field" parameterize it.
std::optional<qaoa::HamiltonianSpec> hamiltonian_spec_from_json(
    const json::Value& body) {
  if (!body.contains("hamiltonian")) {
    QARCH_REQUIRE(!body.contains("mis_penalty") &&
                      !body.contains("ising_coupling") &&
                      !body.contains("ising_field"),
                  "Hamiltonian parameters need \"hamiltonian\"");
    return std::nullopt;
  }
  qaoa::HamiltonianSpec spec;
  spec.kind =
      qaoa::hamiltonian_kind_from_name(body.at("hamiltonian").as_string());
  if (body.contains("mis_penalty"))
    spec.penalty = body.at("mis_penalty").as_number();
  if (body.contains("ising_coupling"))
    spec.coupling = body.at("ising_coupling").as_number();
  if (body.contains("ising_field"))
    spec.field = body.at("ising_field").as_number();
  return spec;
}

}  // namespace

TenantSpec TenantSpec::parse(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = text.find(':', pos);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(pos));
      break;
    }
    parts.push_back(text.substr(pos, colon - pos));
    pos = colon + 1;
  }
  QARCH_REQUIRE(parts.size() >= 2 && parts.size() <= 6,
                "tenant spec is name:key[:weight[:rate[:burst[:inflight]]]]: " +
                    text);
  TenantSpec spec;
  spec.name = parts[0];
  spec.api_key = parts[1];
  QARCH_REQUIRE(!spec.name.empty() && !spec.api_key.empty(),
                "tenant spec needs a non-empty name and key: " + text);
  if (parts.size() > 2) spec.weight = parse_spec_double(parts[2], "weight");
  if (parts.size() > 3) spec.rate = parse_spec_double(parts[3], "rate");
  if (parts.size() > 4) spec.burst = parse_spec_double(parts[4], "burst");
  if (parts.size() > 5) {
    const double inflight = parse_spec_double(parts[5], "inflight");
    QARCH_REQUIRE(inflight >= 0.0 && inflight == std::floor(inflight),
                  "tenant spec: inflight must be a non-negative integer");
    spec.max_inflight = static_cast<long>(inflight);
  }
  QARCH_REQUIRE(spec.weight >= 0.001 && spec.weight <= 1000.0,
                "tenant spec: weight must be in [0.001, 1000]");
  QARCH_REQUIRE(spec.rate >= 0.0, "tenant spec: negative rate");
  QARCH_REQUIRE(spec.burst >= 0.0, "tenant spec: negative burst");
  return spec;
}

graph::Graph graph_from_submit_json(const json::Value& body,
                                    std::size_t max_vertices) {
  QARCH_REQUIRE(!(body.contains("graph") && body.contains("generator")),
                "submit body has both \"graph\" and \"generator\"");
  if (body.contains("graph")) {
    const json::Value& g = body.at("graph");
    const std::size_t n = require_uint(g, "n");
    QARCH_REQUIRE(n <= max_vertices,
                  "graph has " + std::to_string(n) + " vertices; this daemon " +
                      "accepts at most " + std::to_string(max_vertices));
    QARCH_REQUIRE(g.contains("edges"), "\"graph\" is missing \"edges\"");
    graph::Graph out(n);
    const json::Value& edges = g.at("edges");
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const json::Value& e = edges.at(i);
      QARCH_REQUIRE(e.size() == 2 || e.size() == 3,
                    "edge must be [u, v] or [u, v, weight]");
      const std::size_t u =
          json::as_uint(e.at(std::size_t{0}), "edge endpoint");
      const std::size_t v =
          json::as_uint(e.at(std::size_t{1}), "edge endpoint");
      const double w = e.size() == 3 ? e.at(std::size_t{2}).as_number() : 1.0;
      out.add_edge(u, v, w);
    }
    return out;
  }
  QARCH_REQUIRE(body.contains("generator"),
                "submit body needs \"graph\" or \"generator\"");
  const json::Value& spec = body.at("generator");
  QARCH_REQUIRE(spec.contains("name"), "\"generator\" is missing \"name\"");
  const std::string& name = spec.at("name").as_string();
  const std::uint64_t seed =
      spec.contains("seed") ? json::as_uint(spec.at("seed"), "\"seed\"") : 7;
  const auto checked_n = [&](std::size_t n) {
    QARCH_REQUIRE(n <= max_vertices,
                  "generator asks for " + std::to_string(n) +
                      " vertices; this daemon accepts at most " +
                      std::to_string(max_vertices));
    return n;
  };
  if (name == "regular") {
    const std::size_t n = checked_n(require_uint(spec, "n"));
    Rng rng(seed);
    return graph::random_regular(n, require_uint(spec, "degree"), rng);
  }
  if (name == "erdos_renyi") {
    const std::size_t n = checked_n(require_uint(spec, "n"));
    QARCH_REQUIRE(spec.contains("prob"), "erdos_renyi needs \"prob\"");
    Rng rng(seed);
    return graph::erdos_renyi_connected(n, spec.at("prob").as_number(), rng);
  }
  if (name == "ring") return graph::ring(checked_n(require_uint(spec, "n")));
  if (name == "complete")
    return graph::complete(checked_n(require_uint(spec, "n")));
  if (name == "grid") {
    const std::size_t rows = require_uint(spec, "rows");
    const std::size_t cols = require_uint(spec, "cols");
    QARCH_REQUIRE(rows > 0 && cols > 0 && rows * cols <= max_vertices,
                  "grid must have between 1 and " +
                      std::to_string(max_vertices) + " vertices");
    return graph::grid(rows, cols);
  }
  throw InvalidArgument(
      "unknown generator: " + name +
      " (known: regular, erdos_renyi, ring, complete, grid)");
}

struct QarchServer::Impl {
  ServerConfig config;
  search::EvalService* service = nullptr;

  /// One authenticated tenant: its spec's limits, its fair-share queue
  /// registration, its token bucket, and its outstanding tickets (the
  /// inflight quota's denominator).
  struct Tenant {
    TenantSpec spec;
    search::EvalClient client;
    double rate = 0.0;             ///< tokens refilled per second
    double burst = 0.0;            ///< bucket capacity; 0 = no rate limit
    std::size_t max_inflight = 0;  ///< 0 = unlimited
    double tokens = 0.0;
    double last_refill = 0.0;
    std::vector<std::string> outstanding;  ///< unresolved ticket ids
    std::size_t submitted = 0;
  };

  struct TicketRecord {
    search::EvalTicket ticket;
    std::string tenant_key;  ///< owning tenant's api key (404 across tenants)
  };

  // -- wire state ------------------------------------------------------------
  std::unique_ptr<TcpListener> listener;
  parallel::Thread acceptor;
  std::vector<parallel::Thread> io_threads;
  std::atomic<bool> started{false};
  std::atomic<bool> stopping{false};
  std::atomic<bool> stopped{false};
  Mutex conn_mutex{12, "server.connqueue"};
  CondVar conn_cv;
  std::deque<std::pair<Socket, std::uint64_t>> conn_queue
      QARCH_GUARDED_BY(conn_mutex);
  std::atomic<std::uint64_t> conn_seq{0};

  // -- tenant / ticket state (guarded by mutex) -------------------------------
  // Tier server.wire, rank 10 in common/lock_order.hpp: held across calls
  // into the service (service.state, rank 30) and across ticket.ready()
  // (service.job, rank 40), so it must rank below both.
  mutable Mutex mutex{10, "server.wire"};
  /// Keyed by api key. NOT annotated: the map is fixed after construction
  /// (authenticate() reads it without the lock by design); the mutable
  /// fields inside each Tenant ARE guarded by `mutex` — a cross-object
  /// guard the static analysis cannot express.
  std::map<std::string, Tenant> tenants;
  std::unordered_map<std::string, TicketRecord> tickets
      QARCH_GUARDED_BY(mutex);
  std::deque<std::string> ticket_order
      QARCH_GUARDED_BY(mutex);  ///< issue order, for eviction
  std::uint64_t next_ticket QARCH_GUARDED_BY(mutex) = 1;
  Counters counters QARCH_GUARDED_BY(mutex);

  /// Ticket-table ceiling; beyond it the oldest records are forgotten (their
  /// submissions still run — only the wire handle disappears, answered 404).
  static constexpr std::size_t kMaxTickets = 65536;

  // -- helpers ---------------------------------------------------------------

  /// Drops resolved/evicted ids from a tenant's outstanding list.
  void prune_outstanding(Tenant& tenant) QARCH_REQUIRES(mutex) {
    auto resolved = [&](const std::string& id) {
      const auto it = tickets.find(id);
      return it == tickets.end() || it->second.ticket.ready();
    };
    tenant.outstanding.erase(std::remove_if(tenant.outstanding.begin(),
                                            tenant.outstanding.end(), resolved),
                             tenant.outstanding.end());
  }

  void evict_tickets() QARCH_REQUIRES(mutex) {
    while (tickets.size() > kMaxTickets && !ticket_order.empty()) {
      tickets.erase(ticket_order.front());
      ticket_order.pop_front();
    }
  }

  HttpResponse error_response(int status, const std::string& message) {
    if (status == 400 || status == 413 || status == 431) {
      LockGuard lock(mutex);
      ++counters.bad_requests;
    }
    return error_body(status, message);
  }

  /// Resolves the X-Api-Key header to a tenant; nullptr = 401 (counted).
  /// Tenant pointers are stable: the map is fixed after construction.
  Tenant* authenticate(const HttpRequest& request) {
    const auto header = request.headers.find("x-api-key");
    if (header != request.headers.end()) {
      const auto it = tenants.find(header->second);
      if (it != tenants.end()) return &it->second;
    }
    LockGuard lock(mutex);
    ++counters.unauthorized;
    return nullptr;
  }

  // -- handlers --------------------------------------------------------------

  HttpResponse handle_healthz() {
    json::Value out = json::Value::object();
    out.set("status", "ok");
    out.set("engine", backend_name(config.session.backend));
    out.set("workers", service->workers());
    out.set("pending", service->pending());
    return json_response(200, out);
  }

  /// Token-bucket admission shared by submit and sample: nullopt = admitted,
  /// otherwise the 429 answer. Runs before any JSON parsing so a
  /// rate-limited tenant must not cost the server parsing either.
  std::optional<HttpResponse> rate_limit(Tenant& tenant) {
    LockGuard lock(mutex);
    if (tenant.burst <= 0.0) return std::nullopt;
    const double now = service->now();
    tenant.tokens = std::min(
        tenant.burst, tenant.tokens + (now - tenant.last_refill) * tenant.rate);
    tenant.last_refill = now;
    if (tenant.tokens < 1.0) {
      ++counters.rate_limited;
      return error_body(429, "rate limit exceeded for tenant \"" +
                                 tenant.spec.name + "\"");
    }
    tenant.tokens -= 1.0;
    return std::nullopt;
  }

  HttpResponse handle_submit(Tenant& tenant, const HttpRequest& request) {
    if (auto rejected = rate_limit(tenant)) return *rejected;

    const json::Value body = json::parse(request.body);
    static const std::array<std::string, 15> kKnown = {
        "graph",       "generator",      "mixer",
        "p",           "budget",         "engine",
        "priority",    "deadline_ms",    "objective",
        "cvar_alpha",  "objective_shots", "hamiltonian",
        "mis_penalty", "ising_coupling", "ising_field"};
    for (const auto& [key, value] : body.items()) {
      (void)value;
      QARCH_REQUIRE(std::find(kKnown.begin(), kKnown.end(), key) !=
                        kKnown.end(),
                    "unknown submit field: \"" + key + "\"");
    }
    const graph::Graph g = graph_from_submit_json(body, config.max_vertices);
    QARCH_REQUIRE(body.contains("mixer"), "submit body is missing \"mixer\"");
    const qaoa::MixerSpec mixer =
        qaoa::MixerSpec::parse(body.at("mixer").as_string());
    const std::size_t p = require_uint(body, "p");
    QARCH_REQUIRE(p >= 1, "\"p\" must be at least 1");

    if (body.contains("engine")) {
      const std::string& engine = body.at("engine").as_string();
      const std::string mine = backend_name(config.session.backend);
      // EvalService has no per-job engine override, so "engine" is an
      // assertion, not a request: mismatches are refused rather than
      // silently served by a different simulator.
      if (engine != mine)
        return error_response(
            409, "engine mismatch: this daemon runs \"" + mine +
                     "\", the request requires \"" + engine + "\"");
    }

    search::JobOptions options;
    options.client = tenant.client.id();
    if (body.contains("budget"))
      options.training_evals = json::as_uint(body.at("budget"), "\"budget\"");
    if (body.contains("priority"))
      options.priority = as_priority(body.at("priority"));
    if (body.contains("deadline_ms")) {
      const double deadline_ms = body.at("deadline_ms").as_number();
      QARCH_REQUIRE(deadline_ms >= 0.0, "\"deadline_ms\" must be >= 0");
      options.deadline_seconds = deadline_ms / 1000.0;
    }
    // nullopt = inherit the daemon's session-level objective/Hamiltonian —
    // an explicit field overrides per job (and becomes part of the
    // candidate's cache identity inside the service).
    options.objective = objective_spec_from_json(body);
    options.hamiltonian = hamiltonian_spec_from_json(body);

    // Quota check, submission, and bookkeeping under one lock so concurrent
    // submits cannot both squeeze through the last quota slot.
    std::string id;
    search::EvalTicket ticket;
    {
      LockGuard lock(mutex);
      if (tenant.max_inflight > 0) {
        prune_outstanding(tenant);
        if (tenant.outstanding.size() >= tenant.max_inflight) {
          ++counters.quota_rejected;
          return error_body(
              429, "tenant \"" + tenant.spec.name + "\" already has " +
                       std::to_string(tenant.outstanding.size()) +
                       " unresolved tickets (quota " +
                       std::to_string(tenant.max_inflight) + ")");
        }
      }
      ticket = service->submit(g, mixer, p, options);
      id = "t-" + std::to_string(next_ticket++);
      tickets.emplace(id, TicketRecord{ticket, tenant.spec.api_key});
      ticket_order.push_back(id);
      tenant.outstanding.push_back(id);
      ++tenant.submitted;
      ++counters.submits;
      evict_tickets();
    }

    json::Value out = json::Value::object();
    out.set("ticket", id);
    out.set("status", ticket.ready() ? "ready" : "queued");
    out.set("cached", ticket.cache_hit());
    return json_response(202, out);
  }

  /// POST /v1/sample: draw basis states from a fixed-parameter ansatz,
  /// synchronously on the IO thread (sampling is a bounded replay, not a
  /// training loop — no ticket, no queue, no outstanding-quota charge).
  /// Unlike submit, "engine" here is a REQUEST: "sv" / "tn" / "auto" pick
  /// the sampling engine per call (sampling has no cross-process cache whose
  /// identity an engine switch could corrupt).
  HttpResponse handle_sample(Tenant& tenant, const HttpRequest& request) {
    if (auto rejected = rate_limit(tenant)) return *rejected;

    const json::Value body = json::parse(request.body);
    static const std::array<std::string, 12> kKnown = {
        "graph", "generator",   "mixer",       "p",
        "theta", "shots",       "seed",        "engine",
        "hamiltonian", "mis_penalty", "ising_coupling", "ising_field"};
    for (const auto& [key, value] : body.items()) {
      (void)value;
      QARCH_REQUIRE(std::find(kKnown.begin(), kKnown.end(), key) !=
                        kKnown.end(),
                    "unknown sample field: \"" + key + "\"");
    }
    const graph::Graph g = graph_from_submit_json(body, config.max_vertices);
    QARCH_REQUIRE(body.contains("mixer"), "sample body is missing \"mixer\"");
    const qaoa::MixerSpec mixer =
        qaoa::MixerSpec::parse(body.at("mixer").as_string());
    const std::size_t p = require_uint(body, "p");
    QARCH_REQUIRE(p >= 1, "\"p\" must be at least 1");
    const std::size_t shots = require_uint(body, "shots");
    QARCH_REQUIRE(shots >= 1 && shots <= 1000000,
                  "\"shots\" must be in [1, 1000000]");
    const std::uint64_t seed =
        body.contains("seed") ? json::as_uint(body.at("seed"), "\"seed\"") : 0;

    BackendChoice choice = config.session.backend;
    if (body.contains("engine"))
      choice = backend_from_name(body.at("engine").as_string());
    const qaoa::EngineKind engine =
        choice == BackendChoice::Statevector ? qaoa::EngineKind::Statevector
        : choice == BackendChoice::TensorNetwork
            ? qaoa::EngineKind::TensorNetwork
            : search::auto_engine_choice(config.session, g, mixer, p);

    circuit::Circuit ansatz = qaoa::build_qaoa_circuit(g, p, mixer);
    if (config.session.simplify_circuit) ansatz = circuit::optimize(ansatz);
    QARCH_REQUIRE(body.contains("theta"), "sample body is missing \"theta\"");
    const json::Value& theta_json = body.at("theta");
    std::vector<double> theta;
    theta.reserve(theta_json.size());
    for (std::size_t i = 0; i < theta_json.size(); ++i)
      theta.push_back(theta_json.at(i).as_number());
    QARCH_REQUIRE(theta.size() == ansatz.num_params(),
                  "\"theta\" must have " +
                      std::to_string(ansatz.num_params()) +
                      " entries for p=" + std::to_string(p) + ", got " +
                      std::to_string(theta.size()));

    // The same engine-reconciled options the Evaluator samples with
    // (search::sampler_options), so wire draws match direct ones
    // bit-for-bit at equal (engine, seed).
    const query::Sampler sampler(
        ansatz, search::sampler_options(config.session.energy_options(engine)));

    Rng rng(seed);
    const std::vector<std::size_t> samples = sampler.sample(theta, shots, rng);
    const qaoa::Hamiltonian ham =
        hamiltonian_spec_from_json(body).value_or(config.session.hamiltonian)
            .build(g);

    json::Value samples_json = json::Value::array();
    json::Value values_json = json::Value::array();
    for (const std::size_t s : samples) {
      samples_json.push_back(s);
      values_json.push_back(ham.classical_value_bits(s));
    }
    {
      LockGuard lock(mutex);
      ++counters.samples;
    }
    json::Value out = json::Value::object();
    out.set("samples", std::move(samples_json));
    out.set("values", std::move(values_json));
    out.set("engine", engine_tag(engine));
    out.set("shots", shots);
    return json_response(200, out);
  }

  /// Looks a ticket up for a tenant; an invalid EvalTicket means 404 —
  /// unknown and foreign tickets are deliberately indistinguishable.
  search::EvalTicket lookup(const Tenant& tenant, const std::string& id) {
    LockGuard lock(mutex);
    const auto it = tickets.find(id);
    if (it == tickets.end() || it->second.tenant_key != tenant.spec.api_key)
      return {};
    return it->second.ticket;
  }

  HttpResponse handle_result(Tenant& tenant, const std::string& id,
                             const HttpRequest& request) {
    const search::EvalTicket ticket = lookup(tenant, id);
    if (!ticket.valid()) return error_body(404, "unknown ticket: " + id);

    double wait_ms = 0.0;
    const std::string wait_text = request.query_value("wait_ms", "0");
    try {
      std::size_t used = 0;
      wait_ms = std::stod(wait_text, &used);
      QARCH_REQUIRE(used == wait_text.size() && wait_ms >= 0.0, "wait_ms");
    } catch (const std::exception&) {
      return error_response(400, "bad wait_ms: " + wait_text);
    }
    const double wait_seconds =
        std::min(wait_ms / 1000.0, config.session.server_max_wait_seconds);

    // Long-poll in short slices so stop() never waits behind a poller: once
    // stopping is set, unresolved polls answer "pending" immediately.
    std::string status;
    std::string error;
    const search::CandidateResult* result = nullptr;
    try {
      result = ticket.wait_for(0.0);
      double waited = 0.0;
      while (result == nullptr && waited < wait_seconds && !stopping.load()) {
        const double slice = std::min(0.05, wait_seconds - waited);
        result = ticket.wait_for(slice);
        waited += slice;
      }
      status = result != nullptr ? "done" : "pending";
    } catch (const Error& e) {
      if (ticket.expired()) {
        status = "expired";
      } else if (ticket.cancelled() ||
                 std::string(e.what()).find("cancelled") !=
                     std::string::npos) {
        status = "cancelled";
      } else {
        status = "failed";
        error = e.what();
      }
    }

    json::Value out = json::Value::object();
    out.set("ticket", id);
    out.set("status", status);
    if (result != nullptr) {
      json::Value r = search::candidate_to_json(*result);
      // from_cache is per-SUBMISSION (did THIS ticket cause a run?), not the
      // cached CandidateResult's stale flag.
      r.set("from_cache", ticket.cache_hit());
      out.set("from_cache", ticket.cache_hit());
      out.set("result", std::move(r));
    }
    if (!error.empty()) out.set("error", error);
    return json_response(200, out);
  }

  HttpResponse handle_cancel(Tenant& tenant, const std::string& id) {
    search::EvalTicket ticket = lookup(tenant, id);
    if (!ticket.valid()) return error_body(404, "unknown ticket: " + id);
    const bool cancelled = ticket.cancel();
    if (cancelled) {
      LockGuard lock(mutex);
      ++counters.cancels;
    }
    json::Value out = json::Value::object();
    out.set("ticket", id);
    out.set("cancelled", cancelled);
    return json_response(200, out);
  }

  HttpResponse handle_stats() {
    const search::EvalService::Stats stats = service->stats();
    const std::vector<search::EvalService::ClientInfo> queues =
        service->clients();

    json::Value svc = json::Value::object();
    svc.set("submitted", stats.submitted);
    svc.set("completed", stats.completed);
    svc.set("cancelled", stats.cancelled);
    svc.set("failed", stats.failed);
    svc.set("cache_hits", stats.cache_hits);
    svc.set("cache_misses", stats.cache_misses);
    svc.set("deadline_expired", stats.deadline_expired);
    svc.set("parked", stats.parked);
    svc.set("resumed", stats.resumed);
    svc.set("retried", stats.retried);

    json::Value wire = json::Value::object();
    Counters snapshot;
    {
      LockGuard lock(mutex);
      snapshot = counters;
    }
    wire.set("connections", snapshot.connections);
    wire.set("requests", snapshot.requests);
    wire.set("bad_requests", snapshot.bad_requests);
    wire.set("unauthorized", snapshot.unauthorized);
    wire.set("rate_limited", snapshot.rate_limited);
    wire.set("quota_rejected", snapshot.quota_rejected);
    wire.set("submits", snapshot.submits);
    wire.set("samples", snapshot.samples);
    wire.set("cancels", snapshot.cancels);
    wire.set("dropped", snapshot.dropped);

    json::Value tenants_json = json::Value::array();
    {
      LockGuard lock(mutex);
      for (auto& [key, tenant] : tenants) {
        (void)key;
        prune_outstanding(tenant);
        json::Value t = json::Value::object();
        t.set("name", tenant.spec.name);
        t.set("weight", tenant.spec.weight);
        t.set("outstanding", tenant.outstanding.size());
        t.set("submitted", tenant.submitted);
        for (const auto& queue : queues)
          if (queue.id == tenant.client.id()) t.set("queued", queue.queued);
        tenants_json.push_back(std::move(t));
      }
    }

    json::Value out = json::Value::object();
    out.set("service", std::move(svc));
    out.set("server", std::move(wire));
    out.set("tenants", std::move(tenants_json));
    out.set("pending", service->pending());
    out.set("workers", service->workers());
    out.set("engine", backend_name(config.session.backend));
    out.set("uptime_seconds", service->now());
    return json_response(200, out);
  }

  HttpResponse dispatch(const HttpRequest& request) {
    try {
      if (request.path == "/healthz") {
        if (request.method != "GET")
          return error_body(405, "healthz is GET-only");
        return handle_healthz();
      }
      Tenant* tenant = authenticate(request);
      if (tenant == nullptr)
        return error_body(401, "missing or unknown X-Api-Key");
      if (request.path == "/v1/submit") {
        if (request.method != "POST")
          return error_body(405, "submit is POST-only");
        return handle_submit(*tenant, request);
      }
      if (request.path == "/v1/sample") {
        if (request.method != "POST")
          return error_body(405, "sample is POST-only");
        return handle_sample(*tenant, request);
      }
      if (request.path.rfind("/v1/result/", 0) == 0) {
        if (request.method != "GET")
          return error_body(405, "result is GET-only");
        return handle_result(*tenant, request.path.substr(11), request);
      }
      if (request.path.rfind("/v1/cancel/", 0) == 0) {
        if (request.method != "POST")
          return error_body(405, "cancel is POST-only");
        return handle_cancel(*tenant, request.path.substr(11));
      }
      if (request.path == "/v1/stats") {
        if (request.method != "GET")
          return error_body(405, "stats is GET-only");
        return handle_stats();
      }
      return error_body(404, "no such endpoint: " + request.path);
    } catch (const HttpError& e) {
      return error_response(e.status(), e.what());
    } catch (const Error& e) {
      // Everything qarch throws out of a handler is an input problem
      // (malformed JSON, bad graph, unparsable mixer): the client's fault.
      return error_response(400, e.what());
    } catch (const std::exception& e) {
      return error_body(500, e.what());
    }
  }

  // -- wire loops ------------------------------------------------------------

  void handle_connection(Socket conn, std::uint64_t conn_id) {
    HttpLimits limits;
    limits.max_body_bytes = config.session.server_max_body_bytes;
    // One fault verdict per connection, decided up front: a doomed
    // connection still reads its request (the client committed the bytes)
    // and then vanishes without an answer — the nastiest drop to recover
    // from, because the client cannot know whether the submit landed.
    const bool doomed =
        search::FaultInjector::instance().drop_connection(conn_id);
    for (;;) {
      // Idle in short slices between keep-alive requests so a quiet
      // connection never delays shutdown.
      bool ready = false;
      while (!stopping.load())
        if (conn.readable(0.1)) {
          ready = true;
          break;
        }
      if (!ready) return;

      HttpRequest request;
      try {
        if (!read_http_request(conn, request, limits)) return;
      } catch (const HttpError& e) {
        // Framing is unreliable after a malformed request: answer and close.
        if (e.status() == 400 || e.status() == 413 || e.status() == 431) {
          LockGuard lock(mutex);
          ++counters.bad_requests;
        }
        write_http_response(conn, error_body(e.status(), e.what()));
        return;
      }
      if (doomed) {
        LockGuard lock(mutex);
        ++counters.dropped;
        return;
      }
      {
        LockGuard lock(mutex);
        ++counters.requests;
      }
      const HttpResponse response = dispatch(request);
      if (!conn.send_all(serialize_response_head(response))) return;
      // The mid-response crash point: header bytes are on the wire, the
      // body is not. QARCH_FAULT="crash=server_response:N" kills here.
      search::FaultInjector::instance().at_point("server_response");
      if (!conn.send_all(response.body)) return;

      const auto connection = request.headers.find("connection");
      if (connection != request.headers.end() &&
          connection->second == "close")
        return;
      if (stopping.load()) return;
    }
  }

  void accept_loop() {
    while (!stopping.load()) {
      Socket conn = listener->accept(0.1);
      if (!conn.valid()) continue;
      const std::uint64_t id = ++conn_seq;
      {
        LockGuard lock(mutex);
        ++counters.connections;
      }
      {
        LockGuard lock(conn_mutex);
        conn_queue.emplace_back(std::move(conn), id);
      }
      conn_cv.notify_one();
    }
  }

  void io_loop() {
    for (;;) {
      std::pair<Socket, std::uint64_t> item;
      {
        UniqueLock lock(conn_mutex);
        while (!stopping.load() && conn_queue.empty()) conn_cv.wait(lock);
        if (conn_queue.empty()) return;  // stopping, queue drained
        item = std::move(conn_queue.front());
        conn_queue.pop_front();
      }
      handle_connection(std::move(item.first), item.second);
    }
  }
};

QarchServer::QarchServer(ServerConfig config)
    : impl_(std::make_unique<Impl>()),
      service_(std::make_unique<search::EvalService>(config.session)) {
  impl_->config = std::move(config);
  impl_->service = service_.get();
  for (const TenantSpec& spec : impl_->config.tenants) {
    QARCH_REQUIRE(!spec.name.empty() && !spec.api_key.empty(),
                  "every tenant needs a name and an api key");
    QARCH_REQUIRE(spec.rate >= 0.0 && spec.burst >= 0.0 &&
                      spec.max_inflight >= 0,
                  "tenant limits must be non-negative");
    Impl::Tenant tenant;
    tenant.spec = spec;
    tenant.rate = spec.rate;
    tenant.burst = spec.burst;
    tenant.max_inflight = static_cast<std::size_t>(spec.max_inflight);
    tenant.tokens = tenant.burst;
    tenant.client = service_->register_client(spec.name, spec.weight);
    const bool inserted =
        impl_->tenants.emplace(spec.api_key, std::move(tenant)).second;
    QARCH_REQUIRE(inserted, "duplicate tenant api key");
  }
}

QarchServer::~QarchServer() {
  try {
    stop(1.0);
  } catch (...) {
    // Destructors do not throw; a failed drain still falls through to the
    // service destructor, which persists caches itself.
  }
}

void QarchServer::start() {
  QARCH_REQUIRE(!impl_->started.load(), "QarchServer already started");
  QARCH_REQUIRE(!impl_->tenants.empty(),
                "QarchServer needs at least one tenant to serve /v1/*");
  impl_->listener = std::make_unique<TcpListener>(impl_->config.port);
  impl_->started.store(true);
  impl_->acceptor = parallel::Thread([this] { impl_->accept_loop(); });
  const std::size_t n = std::max<std::size_t>(
      1, impl_->config.session.server_io_threads);
  impl_->io_threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    impl_->io_threads.emplace_back([this] { impl_->io_loop(); });
}

void QarchServer::stop(double drain_timeout_seconds) {
  if (impl_->stopped.exchange(true)) return;
  impl_->stopping.store(true);
  if (impl_->listener) impl_->listener->close();
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  impl_->conn_cv.notify_all();
  for (parallel::Thread& t : impl_->io_threads)
    if (t.joinable()) t.join();
  {
    LockGuard lock(impl_->conn_mutex);
    impl_->conn_queue.clear();  // never-served sockets close here
  }
  service_->drain(drain_timeout_seconds);
}

std::uint16_t QarchServer::port() const {
  QARCH_REQUIRE(impl_->listener != nullptr, "QarchServer not started");
  return impl_->listener->port();
}

QarchServer::Counters QarchServer::counters() const {
  LockGuard lock(impl_->mutex);
  return impl_->counters;
}

HttpResponse QarchServer::handle(const HttpRequest& request) {
  return impl_->dispatch(request);
}

}  // namespace qarch::server

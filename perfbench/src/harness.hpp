// Shared pieces of the perfbench harness: workload definitions, operation
// accounting, the in-memory span recorder, and the process-global probe
// counters read around each timed phase.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/annotations.hpp"
#include "graph/graph.hpp"
#include "qaoa/energy.hpp"
#include "search/evaluator.hpp"
#include "session.hpp"

namespace perfbench {

namespace circuit = qarch::circuit;
namespace graph = qarch::graph;
namespace qaoa = qarch::qaoa;
namespace search = qarch::search;

/// Sizes of one workload. Every value is fixed per workload; only the graphs
/// change with the seed.
struct Sizes {
  std::size_t n = 0;         ///< qubits of every graph of the workload
  std::size_t p_max = 0;     ///< depths searched: 1..p_max
  std::size_t k_max = 0;     ///< mixer sequences of length <= k_max
  std::size_t evals = 0;     ///< COBYLA evaluations per candidate
  std::size_t workers = 0;   ///< EvalService workers (outer level)
  std::size_t inner = 0;     ///< threads inside one simulator call
  std::size_t requests = 0;  ///< wire_tenants: interactive requests per rep
  std::size_t batch_k = 0;   ///< wire_tenants: batch sweep mixer length
};

struct Workload {
  std::string name;
  qaoa::EngineKind engine = qaoa::EngineKind::Statevector;
  bool cvar = false;  ///< train on CVaR-0.25 of sampled cuts
  bool wire = false;  ///< run through an in-process QarchServer
  Sizes sizes;
};

/// The four workloads at benchmark size, or at self-check size (`tiny`).
/// Returns false for an unknown name.
bool find_workload(const std::string& name, bool tiny, Workload& out);
const std::vector<std::string>& workload_names();

/// The SessionConfig every workload's service runs with.
qarch::SessionConfig session_for(const Workload& w);

/// Attempted / failed operation accounting. One timed submission or one
/// correctness check is one operation.
class Ops {
 public:
  void attempt(std::size_t count = 1) { attempted_ += count; }
  void fail(const std::string& what, std::size_t count = 1);
  /// One correctness check: counts it, and counts a failure when !ok.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Spans held in memory and written out at the end of a traced run.
/// Thread-safe; times are seconds since the tracer was created.
class Tracer {
 public:
  using Id = std::int64_t;
  static constexpr Id kNone = -1;

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    Id parent = kNone;
    std::int64_t candidate = -1;  ///< -1 when the span is not per candidate
  };

  [[nodiscard]] double now() const;
  /// Records a finished span and returns its id.
  Id add(std::string name, double start, double end, Id parent,
         std::int64_t candidate = -1);
  /// Opens a span; close() stamps its end.
  Id open(std::string name, Id parent, std::int64_t candidate = -1);
  void close(Id id);
  /// Duration of a recorded span, in milliseconds.
  [[nodiscard]] double millis(Id id) const;

  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes every span as one JSON document.
  void write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable qarch::Mutex mutex_;
  std::vector<Span> spans_ QARCH_GUARDED_BY(mutex_);
};

/// Process-global probe counters of the library.
struct Probes {
  std::uint64_t sim_compiles = 0;
  std::uint64_t planner_calls = 0;
  std::uint64_t network_builds = 0;
  static Probes read();
  Probes operator-(const Probes& base) const;
};

/// Exact counts of one timed phase, compared between reps of one run.
struct Counts {
  std::size_t candidates = 0;
  std::size_t replays = 0;   ///< EnergyPlan::energy calls (Σ evaluations)
  std::size_t samples = 0;   ///< Sampler::sample calls (sampled objectives)
  Probes probes;
  std::size_t cache_hits = 0;
  std::size_t requests = 0;  ///< wire requests parsed by the server
  std::size_t rejected = 0;  ///< wire requests answered 4xx

  [[nodiscard]] std::map<std::string, double> named() const;
};

/// Everything one rep (set-up + timed phase) of a workload produced.
struct Rep {
  double setup_s = 0.0;       ///< wall-clock seconds of the set-up
  double search_s = 0.0;      ///< wall-clock seconds of the timed phase
  double setup_cpu_s = 0.0;   ///< process CPU seconds of the set-up
  double search_cpu_s = 0.0;  ///< process CPU seconds of the timed phase
  /// Every graph of the workload; front() is the searched (on
  /// wire_tenants: the interactive) graph, which all `results` are on.
  std::vector<graph::Graph> graphs;
  std::vector<search::CandidateResult> results;  ///< timed, in order
  /// wire_tenants: the service's own answer for each of `results`, asked
  /// in process after the timed phase.
  std::vector<search::CandidateResult> service_results;
  Counts counts;
  std::size_t submitted = 0;       ///< service submissions, timed phase
  double eval_seconds_sum = 0.0;   ///< over every timed evaluation
  /// Submit -> result of each request: one candidate submission of the
  /// search (service clock), or one interactive wire request.
  std::vector<double> latency_ms;
  /// Round trips answered from the result cache: interactive wire requests
  /// that re-ask a primed candidate, or (traced search workloads) an
  /// in-process resubmission of each timed candidate.
  std::vector<double> hit_rtt_us;
};

/// CPU seconds every thread of this process has run so far. A KVM guest
/// with paravirtual steal accounting leaves out the time its host held a
/// virtual CPU off, so unlike wall-clock time this does not grow with the
/// CPU steal of a shared host.
double process_cpu_seconds();

/// Thread CPU seconds of one fixed pass of the benchmark's calibration
/// kernel: complex multiply-adds streamed over 2 MiB with AVX2/FMA (the
/// shape of the statevector kernels), in the harness's own code, so no
/// change to the library moves it. Its time follows the host's per-core
/// speed, which CPU seconds alone do not cancel.
double calibration_cpu_seconds();

/// Median and the q-quantile (nearest rank) of a sample; 0 when empty.
double median(std::vector<double> xs);
double quantile(std::vector<double> xs, double q);

/// The circuit Evaluator::evaluate trains for one candidate.
circuit::Circuit candidate_circuit(const graph::Graph& g,
                                   const search::EvaluatorOptions& options,
                                   const qaoa::MixerSpec& mixer, std::size_t p);

/// Bit-for-bit equality of the fields a candidate's training determines.
bool same_result(const search::CandidateResult& a,
                 const search::CandidateResult& b);

/// |a - b| <= tol * max(|a|, |b|).
bool close_rel(double a, double b, double tol);

}  // namespace perfbench

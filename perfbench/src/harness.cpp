#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "circuit/optimizer.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "qaoa/ansatz.hpp"
#include "qtensor/network.hpp"
#include "qtensor/planner.hpp"
#include "sim/sim_program.hpp"

namespace perfbench {

namespace {

// Sizes were chosen so that every timed interval rests on hundreds of
// milliseconds of compute (short intervals do not repeat on a shared VM)
// and so that a rep fits several times into a 36 s run. Only sv_two_level
// keeps four threads busy; its gated figure is CPU seconds, which do not
// count the host's CPU steal or waits for the guest scheduler (its wall
// time moved with the steal by up to 2x). The budgets of 40 and 20
// evaluations end before COBYLA converges on any candidate, so every
// candidate does the same number of simulator calls whatever the graph.
const std::vector<Workload>& workloads(bool tiny) {
  static const std::vector<Workload> full = {
      {"sv_two_level", qaoa::EngineKind::Statevector, false, false,
       {.n = 16, .p_max = 2, .k_max = 1, .evals = 40, .workers = 2,
        .inner = 2}},
      {"tn_search", qaoa::EngineKind::TensorNetwork, false, false,
       {.n = 18, .p_max = 2, .k_max = 1, .evals = 40, .workers = 2,
        .inner = 1}},
      {"tn_cvar", qaoa::EngineKind::TensorNetwork, true, false,
       {.n = 12, .p_max = 1, .k_max = 1, .evals = 20, .workers = 2,
        .inner = 1}},
      {"wire_tenants", qaoa::EngineKind::Statevector, false, true,
       {.n = 12, .p_max = 2, .k_max = 2, .evals = 100, .workers = 2,
        .inner = 1, .requests = 80, .batch_k = 2}},
  };
  // The self-check runs the same code paths on inputs that finish in
  // well under a second per workload.
  static const std::vector<Workload> small = {
      {"sv_two_level", qaoa::EngineKind::Statevector, false, false,
       {.n = 8, .p_max = 2, .k_max = 1, .evals = 12, .workers = 2,
        .inner = 2}},
      {"tn_search", qaoa::EngineKind::TensorNetwork, false, false,
       {.n = 8, .p_max = 2, .k_max = 1, .evals = 12, .workers = 2,
        .inner = 1}},
      {"tn_cvar", qaoa::EngineKind::TensorNetwork, true, false,
       {.n = 6, .p_max = 1, .k_max = 1, .evals = 8, .workers = 2,
        .inner = 1}},
      {"wire_tenants", qaoa::EngineKind::Statevector, false, true,
       {.n = 8, .p_max = 1, .k_max = 1, .evals = 12, .workers = 2,
        .inner = 1, .requests = 80, .batch_k = 1}},
  };
  return tiny ? small : full;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : workloads(false)) out.push_back(w.name);
    return out;
  }();
  return names;
}

bool find_workload(const std::string& name, bool tiny, Workload& out) {
  for (const Workload& w : workloads(tiny)) {
    if (w.name != name) continue;
    out = w;
    return true;
  }
  return false;
}

qarch::SessionConfig session_for(const Workload& w) {
  qarch::SessionConfig s;
  s.backend = w.engine == qaoa::EngineKind::Statevector
                  ? qarch::BackendChoice::Statevector
                  : qarch::BackendChoice::TensorNetwork;
  s.workers = w.sizes.workers;
  s.inner_workers = w.sizes.inner;
  s.training_evals = w.sizes.evals;
  if (w.cvar) {
    s.objective.kind = qaoa::ObjectiveKind::CVaR;
    s.objective.alpha = 0.25;
  }
  s.server_io_threads = 2;
  return s;
}

void Ops::fail(const std::string& what, std::size_t count) {
  failed_ += count;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

void Ops::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) fail("check " + what);
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

Tracer::Id Tracer::add(std::string name, double start, double end, Id parent,
                       std::int64_t candidate) {
  qarch::LockGuard lock(mutex_);
  spans_.push_back({std::move(name), start, end, parent, candidate});
  return static_cast<Id>(spans_.size()) - 1;
}

Tracer::Id Tracer::open(std::string name, Id parent, std::int64_t candidate) {
  const double t = now();
  return add(std::move(name), t, t, parent, candidate);
}

void Tracer::close(Id id) {
  const double t = now();
  qarch::LockGuard lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = t;
}

double Tracer::millis(Id id) const {
  qarch::LockGuard lock(mutex_);
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return (s.end - s.start) * 1e3;
}

std::vector<Tracer::Span> Tracer::spans() const {
  qarch::LockGuard lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  qarch::json::Value arr = qarch::json::Value::array();
  for (const Span& s : spans()) {
    qarch::json::Value o = qarch::json::Value::object();
    o.set("name", s.name);
    o.set("start", s.start);
    o.set("end", s.end);
    o.set("parent", static_cast<double>(s.parent));
    o.set("candidate", static_cast<double>(s.candidate));
    arr.push_back(std::move(o));
  }
  std::ofstream out(path);
  out << arr.dump() << "\n";
}

Probes Probes::read() {
  Probes p;
  p.sim_compiles = qarch::sim::program_compile_count();
  p.planner_calls = qarch::qtensor::planner_invocation_count();
  p.network_builds = qarch::qtensor::network_build_count();
  return p;
}

Probes Probes::operator-(const Probes& base) const {
  Probes d;
  d.sim_compiles = sim_compiles - base.sim_compiles;
  d.planner_calls = planner_calls - base.planner_calls;
  d.network_builds = network_builds - base.network_builds;
  return d;
}

std::map<std::string, double> Counts::named() const {
  return {
      {"candidates", static_cast<double>(candidates)},
      {"qaoa.replays", static_cast<double>(replays)},
      {"query.samples", static_cast<double>(samples)},
      {"sim.compiles", static_cast<double>(probes.sim_compiles)},
      {"qtensor.planner_calls", static_cast<double>(probes.planner_calls)},
      {"qtensor.network_builds", static_cast<double>(probes.network_builds)},
      {"search.cache_hits", static_cast<double>(cache_hits)},
      {"server.requests", static_cast<double>(requests)},
      {"server.rejected", static_cast<double>(rejected)},
  };
}

double process_cpu_seconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

namespace {

constexpr std::size_t kCalibrationLength = std::size_t{1} << 16;
constexpr int kCalibrationPasses = 1000;

/// Rotates a by a fixed phase and adds a small multiple of b, elementwise.
[[gnu::always_inline]] inline void calibration_pass(double* ar, double* ai,
                                                    const double* br,
                                                    const double* bi) {
  constexpr double c = 0.99995, s = 0.0099998, e = 1e-3;
  for (std::size_t i = 0; i < kCalibrationLength; ++i) {
    const double re = ar[i] * c - ai[i] * s + br[i] * e;
    const double im = ar[i] * s + ai[i] * c + bi[i] * e;
    ar[i] = re;
    ai[i] = im;
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("avx2,fma")]] void calibration_passes_avx2(double* ar, double* ai,
                                                         const double* br,
                                                         const double* bi) {
  for (int p = 0; p < kCalibrationPasses; ++p) calibration_pass(ar, ai, br, bi);
}
#endif

void calibration_passes(double* ar, double* ai, const double* br,
                        const double* bi) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    calibration_passes_avx2(ar, ai, br, bi);
    return;
  }
#endif
  for (int p = 0; p < kCalibrationPasses; ++p) calibration_pass(ar, ai, br, bi);
}

}  // namespace

double calibration_cpu_seconds() {
  std::vector<double> ar(kCalibrationLength), ai(kCalibrationLength),
      br(kCalibrationLength), bi(kCalibrationLength);
  for (std::size_t i = 0; i < kCalibrationLength; ++i) {
    ar[i] = 1.0 / static_cast<double>(i + 1);
    ai[i] = 0.5;
    br[i] = 0.3;
    bi[i] = 1.0 / static_cast<double>(i + 2);
  }
  timespec t0{}, t1{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  calibration_passes(ar.data(), ai.data(), br.data(), bi.data());
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  // Reading every element keeps the passes from being optimized away.
  double sum = 0.0;
  for (std::size_t i = 0; i < kCalibrationLength; ++i) sum += ar[i] + ai[i];
  if (!std::isfinite(sum)) throw qarch::Error("calibration kernel diverged");
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

circuit::Circuit candidate_circuit(const graph::Graph& g,
                                   const search::EvaluatorOptions& options,
                                   const qaoa::MixerSpec& mixer,
                                   std::size_t p) {
  circuit::Circuit c = qaoa::build_qaoa_circuit(g, p, mixer);
  return options.simplify_circuit ? circuit::optimize(c) : c;
}

bool same_result(const search::CandidateResult& a,
                 const search::CandidateResult& b) {
  return a.mixer.to_string() == b.mixer.to_string() && a.p == b.p &&
         a.energy == b.energy && a.ratio == b.ratio &&
         a.sampled_ratio == b.sampled_ratio && a.theta == b.theta &&
         a.evaluations == b.evaluations;
}

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

}  // namespace perfbench

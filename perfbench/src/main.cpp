// perfbench: the repository's end-to-end benchmark of an Algorithm-1 mixer
// search, run one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--git-sha SHA] [--src-hash HASH]
//   perfbench --selfcheck
//
// Untraced (--trace 0), the run repeats set-up + timed phase, each rep in a
// child process of its own, until S seconds have passed (at least one rep
// per graph set), checks the results, and prints the end-to-end metrics:
// medians of the CPU seconds each phase took, scaled by the host speed a
// calibration kernel measures between reps, and the reps' peak resident
// set. Unscaled and wall-clock times and latencies are printed as comments.
// Traced (--trace 1), it runs one untraced and one traced rep, re-drives the
// traced rep's candidates through the library's public calls with a span
// around each, writes the spans to --trace-out and prints the per-layer
// metrics. The last line of stdout is always one JSON
// object {correct, attempted, failed, metrics}. See README.md beside this
// directory's CMakeLists.txt.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "graph/maxcut.hpp"
#include "harness.hpp"
#include "redrive.hpp"
#include "sim/simd.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using qarch::Timer;

constexpr std::size_t kMinReps = kGraphSets;
/// Calibration-kernel time the end-to-end CPU seconds are rescaled to:
/// about what the kernel took on the 4-vCPU Xeon guest the benchmark was
/// tuned on while its host was idle.
constexpr double kCalibrationReference = 0.04;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  Ops ops;
  std::vector<Metric> metrics;
};

std::size_t cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.substr(0, s.find('\0'));
    const auto first = s.find_first_not_of(' ');
    if (first != std::string::npos) return s.substr(first);
  }
#endif
  return "unknown";
}

/// No workload uses more compute threads than the CPUs it may run on.
void fit_to_cpus(Workload& w) {
  const std::size_t cpus = cpu_count();
  w.sizes.workers = std::min(w.sizes.workers, cpus);
  const std::size_t per_worker = std::max<std::size_t>(1, cpus / w.sizes.workers);
  w.sizes.inner = std::min(w.sizes.inner, per_worker);
}

void print_header(const Workload& w, std::uint64_t seed, double seconds,
                  int trace, const qarch::Cli& cli) {
  const Sizes& s = w.sizes;
  std::printf(
      "# perfbench workload=%s seed=%llu seconds=%g trace=%d\n"
      "# git_sha=%s src_hash=%s build=%s\n"
      "# cpu=\"%s\" nproc=%zu simd_active=%d\n"
      "# sizes n=%zu p_max=%zu k_max=%zu evals=%zu workers=%zu inner=%zu "
      "requests=%zu batch_k=%zu engine=%s objective=%s\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), seconds, trace,
      cli.get("git-sha", "unknown").c_str(),
      cli.get("src-hash", "unknown").c_str(), PERFBENCH_BUILD_TYPE,
      cpu_model().c_str(), cpu_count(),
      qarch::sim::simd::active() ? 1 : 0, s.n, s.p_max, s.k_max, s.evals,
      s.workers, s.inner, s.requests, s.batch_k,
      w.engine == qaoa::EngineKind::Statevector ? "sv" : "tn",
      w.cvar ? "cvar0.25" : "expectation");
}

/// Flags every count that differs between two reps of identical work
/// (`a` and `b` ran the same graph set). The counts are exact for a fixed
/// code and seed unless flagged here.
void flag_count_drift(const Rep& a, const Rep& b, const std::string& label) {
  const auto base = a.counts.named();
  for (const auto& [name, value] : b.counts.named())
    if (value != base.at(name))
      std::printf("# FLAG count %s differs between %s: %.17g vs %.17g\n",
                  name.c_str(), label.c_str(), base.at(name), value);
}

void print_counts(const Rep& rep, const char* label) {
  std::printf("# counts %s:", label);
  for (const auto& [name, value] : rep.counts.named())
    std::printf(" %s=%.17g", name.c_str(), value);
  std::printf("\n");
}

void run_checks(const Workload& w, const Rep& rep, std::uint64_t seed,
                bool inject, Ops& ops) {
  try {
    if (!w.wire && !w.cvar) check_cross_engine(w, rep, ops);
    check_direct(w, rep, seed, inject, ops);
  } catch (const std::exception& e) {
    ops.attempt();
    ops.fail(std::string("checks threw: ") + e.what());
  }
}

/// Mean over graph sets of each set's median, so that every set weighs the
/// same however many reps it got. Rep r ran graph set r % kGraphSets.
double mean_over_sets(const std::vector<double>& per_rep) {
  double sum = 0.0;
  std::size_t sets = 0;
  for (std::size_t set = 0; set < std::min(per_rep.size(), kGraphSets); ++set) {
    std::vector<double> xs;
    for (std::size_t r = set; r < per_rep.size(); r += kGraphSets)
      xs.push_back(per_rep[r]);
    sum += median(std::move(xs));
    ++sets;
  }
  return sets > 0 ? sum / static_cast<double>(sets) : 0.0;
}

void print_latency(const char* what, std::vector<double> latency_ms) {
  const std::size_t beyond =
      latency_ms.size() - static_cast<std::size_t>(std::ceil(
                              0.95 * static_cast<double>(latency_ms.size())));
  std::printf("# %s latency: samples=%zu beyond_p95=%zu p50_ms=%.6g "
              "p95_ms=%.6g\n",
              what, latency_ms.size(), beyond, quantile(latency_ms, 0.5),
              quantile(latency_ms, 0.95));
}

Outcome run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                     bool inject) {
  Outcome out;
  std::vector<Rep> reps;
  std::vector<double> rss_mb, calibration;
  const Timer clock;
  while (reps.size() < kMinReps || clock.seconds() < seconds) {
    calibration.push_back(calibration_cpu_seconds());
    double rss = 0.0;
    try {
      reps.push_back(run_rep_isolated(w, seed, reps.size() % kGraphSets,
                                      out.ops, rss));
    } catch (const std::exception& e) {
      out.ops.attempt();
      out.ops.fail(std::string("rep: ") + e.what());
      break;
    }
    const Rep& rep = reps.back();
    rss_mb.push_back(rss);
    std::printf("# rep %zu: setup_cpu_s=%.6f search_cpu_s=%.6f setup_s=%.6f "
                "search_s=%.6f rss_mb=%.3f\n",
                reps.size(), rep.setup_cpu_s, rep.search_cpu_s, rep.setup_s,
                rep.search_s, rss);
    std::fflush(stdout);
  }
  calibration.push_back(calibration_cpu_seconds());
  if (reps.empty()) return out;
  for (std::size_t r = 0; r < std::min(reps.size(), kGraphSets); ++r)
    print_counts(reps[r], ("rep " + std::to_string(r + 1)).c_str());
  for (std::size_t r = kGraphSets; r < reps.size(); ++r)
    flag_count_drift(reps[r - kGraphSets], reps[r],
                     "reps " + std::to_string(r + 1 - kGraphSets) + " and " +
                         std::to_string(r + 1));
  run_checks(w, reps.back(), seed, inject, out.ops);

  std::vector<double> setup_cpu, search_cpu, setup_wall, search_wall, latency;
  for (const Rep& r : reps) {
    setup_cpu.push_back(r.setup_cpu_s);
    search_cpu.push_back(r.search_cpu_s);
    setup_wall.push_back(r.setup_s);
    search_wall.push_back(r.search_s);
    latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  // CPU seconds are rescaled to a host on which the calibration kernel
  // takes kCalibrationReference seconds: the same work took 1.6-1.9x more
  // CPU seconds when the host was busy, and the kernel tracked that.
  const double scale = kCalibrationReference / median(calibration);
  std::printf("# calibration: samples=%zu median_s=%.6g scale=%.6g "
              "unscaled medians: setup_cpu_s=%.6g search_cpu_s=%.6g\n",
              calibration.size(), median(calibration), scale,
              median(setup_cpu), median(search_cpu));
  // Wall-clock figures move with the host's load; they are printed for
  // reading, not reported as metrics.
  std::printf("# reps=%zu wall medians: setup_s=%.6g search_s=%.6g\n",
              reps.size(), median(setup_wall), median(search_wall));
  print_latency(w.wire ? "interactive request" : "candidate submission",
                latency);
  out.metrics = {
      {"setup_s", median(setup_cpu) * scale, "s"},
      {"search_cpu_s", median(search_cpu) * scale, "s"},
      {"peak_rss_mb", mean_over_sets(rss_mb), "MB"},
  };
  return out;
}

/// Share of [start, end] covered by the union of the given intervals.
double coverage(std::vector<std::pair<double, double>> spans, double start,
                double end) {
  std::sort(spans.begin(), spans.end());
  double covered = 0.0, reach = start;
  for (auto [a, b] : spans) {
    a = std::max(a, reach);
    b = std::min(b, end);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return end > start ? covered / (end - start) : 0.0;
}

/// 1 - the share of the traced timed phase that service-tier leaf spans
/// (per-candidate queue/eval, per-request wire spans) cover.
double search_unattributed(const Tracer& tracer) {
  const std::vector<Tracer::Span> spans = tracer.spans();
  double start = 0.0, end = 0.0;
  std::vector<std::pair<double, double>> leaves;
  for (const Tracer::Span& s : spans) {
    if (s.name == "search") {
      start = s.start;
      end = s.end;
    } else if (s.name == "service.queue" || s.name == "service.eval" ||
               s.name == "wire.request" || s.name == "wire.batch_result") {
      leaves.emplace_back(s.start, s.end);
    }
  }
  return 1.0 - coverage(std::move(leaves), start, end);
}

Outcome run_traced(const Workload& w, std::uint64_t seed,
                   const std::string& trace_out) {
  Outcome out;
  Ops& ops = out.ops;
  Tracer tracer;
  Rep untraced, traced;
  try {
    // Both reps start cold: the untraced one in a child process, the traced
    // one as the first rep of this process.
    double rss = 0.0;
    untraced = run_rep_isolated(w, seed, 0, ops, rss);
    traced = run_rep(w, seed, 0, ops, &tracer);
  } catch (const std::exception& e) {
    ops.attempt();
    ops.fail(std::string("rep threw: ") + e.what());
    return out;
  }
  print_counts(untraced, "untraced");
  print_counts(traced, "traced");
  print_latency(w.wire ? "untraced interactive request"
                       : "untraced candidate submission",
                untraced.latency_ms);
  flag_count_drift(untraced, traced, "the untraced and traced reps");
  if (traced.results.empty()) return out;  // the rep counted its failures
  run_checks(w, traced, seed, false, ops);

  const graph::Graph& g = traced.graphs.front();
  const Tracer::Id root = tracer.open("redrive", Tracer::kNone);
  Redrive rd = redrive(w, g, traced.results, w.sizes.inner, tracer, root);
  tracer.close(root);
  std::size_t service_calls = 0;
  for (std::size_t i = 0; i < traced.results.size(); ++i) {
    const search::CandidateResult& s = traced.results[i];
    const search::CandidateResult& d = rd.results[i];
    service_calls += s.evaluations;
    ops.check(d.theta == s.theta && d.energy == s.energy,
              w.name + " traced decomposition of " + s.mixer.to_string() +
                  " p=" + std::to_string(s.p) + " reproduces theta, energy");
  }
  std::printf("# redrive: replays=%zu samples=%zu service_calls=%zu\n",
              rd.replays, rd.samples, service_calls);
  if (rd.replays + rd.samples != service_calls)
    std::printf("# FLAG redrive objective calls differ from the service's\n");

  // Replay time at inner=1 over inner x replay time at the workload's
  // inner width, on the same candidates; 1 by definition at inner=1.
  double inner_eff = 1.0;
  if (w.sizes.inner > 1) {
    const Tracer::Id span = tracer.open("redrive.inner1", Tracer::kNone);
    const Redrive serial = redrive(w, g, traced.results, 1, tracer, span);
    tracer.close(span);
    inner_eff = median(serial.replay_us) /
                (static_cast<double>(w.sizes.inner) * median(rd.replay_us));
  }
  // The first trained p=1 candidate feeds the probes of idle layers (a TN
  // marginal walk over a p=2 lightcone at n=18 takes seconds per draw).
  const Tracer::Id probe = tracer.open("probe", Tracer::kNone);
  probe_idle_layers(w, g, traced.results.front(), tracer, probe, rd);
  tracer.close(probe);

  std::vector<double> maxcut_ms;
  for (const graph::Graph& graph : traced.graphs) {
    const Tracer::Id span = tracer.open("graph.maxcut", Tracer::kNone);
    (void)qarch::graph::maxcut_exact(graph);
    tracer.close(span);
    maxcut_ms.push_back(tracer.millis(span));
  }
  tracer.write(trace_out);

  std::vector<double> eval_ms, queue_ms;
  for (const search::CandidateResult& r : traced.results) {
    eval_ms.push_back(r.eval_seconds * 1e3);
    queue_ms.push_back(r.queue_seconds * 1e3);
  }
  const auto per_candidate = [&](double total) {
    return traced.counts.candidates > 0
               ? total / static_cast<double>(traced.counts.candidates)
               : 0.0;
  };
  const Counts& c = traced.counts;
  double programs_per_term = 0.0;  // mean over the re-driven candidates
  for (double x : rd.programs_per_term) programs_per_term += x;
  if (!rd.programs_per_term.empty())
    programs_per_term /= static_cast<double>(rd.programs_per_term.size());
  out.metrics = {
      {"qaoa.replay_us", median(rd.replay_us), "us"},
      {"qaoa.replays", per_candidate(static_cast<double>(c.replays)), "count"},
      {"parallel.inner_eff", inner_eff, "ratio"},
      {"sim.compiles",
       per_candidate(static_cast<double>(c.probes.sim_compiles)), "count"},
      {"qaoa.compile_ms", median(rd.compile_ms), "ms"},
      {"qtensor.planner_calls",
       per_candidate(static_cast<double>(c.probes.planner_calls)), "count"},
      {"qtensor.network_builds",
       per_candidate(static_cast<double>(c.probes.network_builds)), "count"},
      {"qtensor.programs_per_term", programs_per_term, "ratio"},
      {"qaoa.score_ms", median(rd.score_ms), "ms"},
      {"graph.maxcut_ms", median(maxcut_ms), "ms"},
      {"optim.self_ms", median(rd.optim_self_ms), "ms"},
      {"query.sampler_build_ms", median(rd.sampler_build_ms), "ms"},
      {"query.sample_ms", median(rd.sample_ms), "ms"},
      {"query.samples", per_candidate(static_cast<double>(c.samples)),
       "count"},
      {"search.eval_ms", median(eval_ms), "ms"},
      {"search.queue_ms", median(queue_ms), "ms"},
      {"search.busy_frac",
       traced.search_s > 0.0
           ? traced.eval_seconds_sum /
                 (static_cast<double>(w.sizes.workers) * traced.search_s)
           : 0.0,
       "ratio"},
      {"search.hit_frac",
       traced.submitted > 0 ? static_cast<double>(c.cache_hits) /
                                  static_cast<double>(traced.submitted)
                            : 0.0,
       "ratio"},
      {"search.cache_hits", static_cast<double>(c.cache_hits), "count"},
      {"server.hit_rtt_us", median(traced.hit_rtt_us), "us"},
      {"server.requests", static_cast<double>(c.requests), "count"},
      {"server.rejected", static_cast<double>(c.rejected), "count"},
      {"search.wall_s", untraced.search_s, "s"},
      {"client.req_p50_ms", quantile(untraced.latency_ms, 0.5), "ms"},
      {"client.req_p95_ms", quantile(untraced.latency_ms, 0.95), "ms"},
      {"trace.overhead_ms",
       (traced.search_cpu_s - untraced.search_cpu_s) * 1e3, "ms"},
      {"trace.search_unattributed_frac", search_unattributed(tracer), "ratio"},
      {"trace.candidate_unattributed_frac",
       rd.candidate_ms > 0.0 ? rd.unattributed_ms / rd.candidate_ms : 0.0,
       "ratio"},
  };
  return out;
}

void print_result(const Outcome& o) {
  for (const Metric& m : o.metrics)
    std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  qarch::json::Value metrics = qarch::json::Value::object();
  for (const Metric& m : o.metrics) {
    qarch::json::Value v = qarch::json::Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  qarch::json::Value result = qarch::json::Value::object();
  result.set("correct", o.ops.failed() == 0);
  result.set("attempted", o.ops.attempted());
  result.set("failed", o.ops.failed());
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
}

/// Runs every workload at tiny sizes with every check on, then once more
/// with one wrong result injected by the harness. Passes when the clean runs
/// fail nothing and the injected run fails exactly one check.
int selfcheck(const std::string& trace_out) {
  bool ok = true;
  for (const std::string& name : workload_names()) {
    Workload w;
    find_workload(name, true, w);
    fit_to_cpus(w);
    const Outcome untraced = run_untraced(w, 7, 0.0, false);
    const Outcome traced = run_traced(w, 7, trace_out);
    const bool pass = untraced.ops.failed() == 0 &&
                      traced.ops.failed() == 0 &&
                      untraced.metrics.size() == 3 && !traced.metrics.empty();
    std::printf("# selfcheck %-13s untraced %zu/%zu ok, traced %zu/%zu ok: %s\n",
                name.c_str(),
                untraced.ops.attempted() - untraced.ops.failed(),
                untraced.ops.attempted(),
                traced.ops.attempted() - traced.ops.failed(),
                traced.ops.attempted(), pass ? "pass" : "FAIL");
    ok = ok && pass;
  }
  Workload w;
  find_workload("sv_two_level", true, w);
  fit_to_cpus(w);
  const Outcome injected = run_untraced(w, 7, 0.0, true);
  const bool caught = injected.ops.failed() == 1;
  std::printf("# selfcheck injected wrong result: %zu failed (want 1): %s\n",
              injected.ops.failed(), caught ? "pass" : "FAIL");
  ok = ok && caught;
  std::printf("# selfcheck %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const qarch::Cli cli(argc, argv);
    const std::string trace_out = cli.get("trace-out", "perfbench-trace.json");
    if (cli.has("selfcheck")) return selfcheck(trace_out);

    Workload w;
    if (!find_workload(cli.get("workload", ""), false, w)) {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   cli.get("workload", "").c_str());
      return 2;
    }
    fit_to_cpus(w);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const double seconds = cli.get_double("seconds", 10.0);
    const int trace = static_cast<int>(cli.get_int("trace", 0));
    print_header(w, seed, seconds, trace, cli);
    std::fflush(stdout);
    const Outcome outcome = trace != 0
                                ? run_traced(w, seed, trace_out)
                                : run_untraced(w, seed, seconds, false);
    print_result(outcome);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

// The candidate tier of a traced run: each measured candidate is re-driven
// through the library's public calls, in the order Evaluator::evaluate
// makes them, with a span around every call.
#pragma once

#include <cstddef>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Per-call timings the re-drive collected (milliseconds unless named).
struct Redrive {
  std::vector<search::CandidateResult> results;  ///< aligned with the input
  std::vector<double> replay_us;         ///< each EnergyPlan::energy call
  std::vector<double> sample_ms;         ///< each Sampler::sample call
  std::vector<double> compile_ms;        ///< EnergyEvaluator::make_plan
  std::vector<double> sampler_build_ms;  ///< query::Sampler construction
  std::vector<double> score_ms;          ///< qaoa::expected_best_cut
  std::vector<double> optim_self_ms;     ///< Cobyla::minimize minus objective
  std::vector<double> programs_per_term; ///< EnergyPlanInfo, per candidate
  double candidate_ms = 0.0;             ///< Σ candidate spans
  double unattributed_ms = 0.0;          ///< Σ candidate span minus children
  std::size_t replays = 0;
  std::size_t samples = 0;
};

/// Re-drives `candidates` (trained on graph `g`) with `inner` threads inside
/// each simulator call and the workload's outer width of concurrent
/// candidates. Spans go under `root`.
Redrive redrive(const Workload& w, const graph::Graph& g,
                const std::vector<search::CandidateResult>& candidates,
                std::size_t inner, Tracer& tracer, Tracer::Id root);

/// Times the layers a workload's candidates do not call, on one trained
/// candidate, so every per-layer metric is measured on every workload:
/// energy-plan compile and replay for sampled objectives, query::Sampler
/// construction and 128-shot draws otherwise. Spans go under `root`.
void probe_idle_layers(const Workload& w, const graph::Graph& g,
                       const search::CandidateResult& candidate,
                       Tracer& tracer, Tracer::Id root, Redrive& out);

}  // namespace perfbench

// The workload reps and the correctness checks run over their results.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Graph sets per seed. Rep r of a run uses set r % kGraphSets, so a run's
/// medians average over several graphs, and reps r and r + kGraphSets redo
/// identical work (their exact counts must agree).
constexpr std::size_t kGraphSets = 6;

/// One rep of `w` on graph set `set` of `seed`: set-up (graphs, service or
/// daemon with its clients, and the warm-up answered through that service),
/// then the timed phase.
/// Timed submissions are counted in `ops`; a submission that throws,
/// expires or is answered non-2xx is counted failed. With a tracer, the
/// service tier is recorded as spans and cache-hit round trips are probed
/// after the timed phase.
Rep run_rep(const Workload& w, std::uint64_t seed, std::size_t set, Ops& ops,
            Tracer* tracer);

/// run_rep in a forked child process. The rep's peak resident set is then
/// its own (returned in `rss_mb`), and no rep inherits another's heap. The
/// child sends its Rep back as JSON; `graphs` are regenerated here.
Rep run_rep_isolated(const Workload& w, std::uint64_t seed, std::size_t set,
                     Ops& ops, double& rss_mb);

/// sv_two_level / tn_search: each depth's best candidate has <C> at its
/// reported theta recomputed on the other engine, and its ratio recomputed
/// from graph::maxcut_exact; both agree within 1e-9 relative.
void check_cross_engine(const Workload& w, const Rep& rep, Ops& ops);

/// Every workload: a seeded sample of the timed results is bit-identical to
/// a direct search::Evaluator::evaluate of the same candidate (on
/// wire_tenants both the wire result and the service's own answer are
/// compared). `inject` makes the harness corrupt the first sampled result
/// before comparing it, so the self-check can prove a failed check counts.
void check_direct(const Workload& w, const Rep& rep, std::uint64_t seed,
                  bool inject, Ops& ops);

}  // namespace perfbench

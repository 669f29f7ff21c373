// Search report persistence and the evaluation service's persisted stores.
//
// Long HPC searches checkpoint their results; this module serializes every
// evaluated candidate (mixer, depth, energies, trained parameters) so a
// report can be reloaded for later analysis without re-running the search.
//
// It also keeps the three stores an EvalService carries across processes:
// candidate results, contraction plans and in-flight training checkpoints.
// All three share one file discipline:
//   * the envelope {"format": <store tag>, "code_version": <version>,
//     "entries": [...]}. A file of another format or code version loads as
//     no entries, because its contents are not comparable across semantics
//     changes. One malformed entry is skipped; the rest still load.
//   * the write: the whole file goes to a unique tmp name, is fsync'd, and
//     is renamed over the target, so readers see the old file or the new
//     one, never a torn mix. A failed write throws Error.
//   * the read is tolerant: a missing, unreadable or unparsable file loads
//     as no entries. Warm starts are an optimization, never a correctness
//     requirement.
// Each store supplies only its entry codec. save_report / load_report use
// the same write and file read, but load_report throws on a missing or
// corrupt file: a report is a result, not a cache.
#pragma once

#include <string>

#include "common/json.hpp"
#include "optim/optimizer.hpp"
#include "qtensor/plan_cache.hpp"
#include "search/engine.hpp"

namespace qarch::search {

/// Serializes a candidate to a JSON object.
json::Value candidate_to_json(const CandidateResult& candidate);

/// Parses a candidate from JSON (inverse of candidate_to_json).
CandidateResult candidate_from_json(const json::Value& value);

/// Serializes a whole report (best, all candidates, timings, rejections).
json::Value report_to_json(const SearchReport& report);

/// Parses a report from JSON (inverse of report_to_json).
SearchReport report_from_json(const json::Value& value);

/// Atomically writes a report to `path` as pretty-printed JSON.
void save_report(const SearchReport& report, const std::string& path);

/// Loads a report previously written by save_report.
SearchReport load_report(const std::string& path);

/// The identity every persisted evaluation record carries, in the result
/// cache and the checkpoints alike. With the record's mixer and depth it
/// keys the candidate on disk; the code version lives in the envelope.
struct RunKey {
  std::string graph_fp;            ///< raw graph_fingerprint() bytes (hex
                                   ///< on disk)
  std::size_t training_evals = 0;  ///< COBYLA budget of the run
  std::string engine;              ///< resolved engine ("sv" / "tn")
  std::string objective;           ///< ObjectiveSpec::tag(), "" = default
  std::string hamiltonian;         ///< HamiltonianSpec::tag(), "" = default
};

// -- candidate-result cache ---------------------------------------------------

/// One cached candidate result: what EvalService holds in memory and
/// persists. The mixer and depth ride inside `result`.
struct CacheEntry : RunKey {
  CandidateResult result;
};

/// Serializes cache entries under the given cache code version.
json::Value result_cache_to_json(const std::vector<CacheEntry>& entries,
                                 const std::string& code_version);

/// Parses cache entries (see the envelope rules above).
std::vector<CacheEntry> result_cache_from_json(const json::Value& value,
                                               const std::string& code_version);

/// Atomically rewrites a result-cache file; throws Error on failure.
void save_result_cache(const std::vector<CacheEntry>& entries,
                       const std::string& path,
                       const std::string& code_version);

/// Loads a result-cache file; a missing, corrupt or other-version file
/// yields no entries.
std::vector<CacheEntry> load_result_cache(const std::string& path,
                                          const std::string& code_version);

// -- contraction-plan cache ---------------------------------------------------
//
// (lightcone shape key, network structure hash) -> elimination order.
// Reloading an order is sound regardless of tensor data; the structure hash
// only guards against applying an order to a different network.

/// Atomically rewrites a plan-cache file; throws Error on failure.
void save_plan_cache(const std::vector<qtensor::CachedPlan>& plans,
                     const std::string& path, const std::string& code_version);

/// Loads a plan-cache file; a missing, corrupt or other-version file yields
/// no plans.
std::vector<qtensor::CachedPlan> load_plan_cache(
    const std::string& path, const std::string& code_version);

// -- in-flight training checkpoints -------------------------------------------
//
// A killed process restarted on the same checkpoint_path resumes every
// parked or running candidate mid-training instead of from step 0. A
// checkpoint is tiny (theta-sized vectors plus optimizer counters), so
// persisting on every capture is cheap.

/// Serializes an opaque optimizer state. Doubles round-trip bit-exactly
/// (%.17g); non-finite values (e.g. an untouched +inf incumbent) and 64-bit
/// words cross as strings.
json::Value optim_state_to_json(const optim::OptimState& state);

/// Parses an optimizer state (inverse of optim_state_to_json).
optim::OptimState optim_state_from_json(const json::Value& value);

/// One persisted in-flight training run: the candidate's RunKey, mixer and
/// depth, plus the optimizer state that resumes it.
struct TrainingCheckpoint : RunKey {
  qaoa::MixerSpec mixer;
  std::size_t p = 0;
  optim::OptimState state;
};

/// Atomically rewrites a checkpoint file; throws Error on failure.
void save_checkpoints(const std::vector<TrainingCheckpoint>& entries,
                      const std::string& path,
                      const std::string& code_version);

/// Loads a checkpoint file; a missing, corrupt or other-version file yields
/// no checkpoints.
std::vector<TrainingCheckpoint> load_checkpoints(
    const std::string& path, const std::string& code_version);

}  // namespace qarch::search

// Shared, persistable store of chosen contraction orders.
//
// Planning is the dominant cold-path cost: every distinct lightcone shape
// pays one heuristic bake-off. This cache remembers the winning order per
// (canonical shape key, exact network structure hash) so that
//
//   * within a process, every evaluator and every candidate circuit with
//     the same lightcone shape reuses one planned order, and
//   * across processes, orders persist to disk through
//     search::save_plan_cache / load_plan_cache — one of report_io's
//     version-gated stores (fsync'd tmp+rename write, corruption-tolerant
//     load) — and a warm run plans NOTHING (planner_invocation_count()
//     stays 0).
//
// Reusing an order is always SOUND: an elimination order is valid for any
// network with the same label structure regardless of tensor data, and the
// structure hash guards exact applicability. A stale or suboptimal entry
// can only cost time, never correctness — and entries whose order does not
// cover the network's variables are rejected at lookup.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "qtensor/network.hpp"
#include "qtensor/planner.hpp"

namespace qarch::qtensor {

/// One persisted planning decision.
struct CachedPlan {
  std::string shape_key;          ///< canonical lightcone shape (may be "")
  std::uint64_t structure_hash = 0;  ///< network_structure_hash of the net
  std::vector<VarId> order;       ///< the winning elimination order
  std::string heuristic;          ///< which competitor produced it
};

/// Thread-safe map from (shape_key, structure_hash) to a planned order.
/// Shared by every ContractionProgram of a session via shared_ptr.
class PlanCache {
 public:
  /// Returns the stored plan for this key pair, if any.
  [[nodiscard]] std::optional<CachedPlan> find(
      const std::string& shape_key, std::uint64_t structure_hash) const;

  /// Stores a plan (last writer wins on duplicate keys).
  void insert(CachedPlan plan);

  /// Merges loaded entries in (existing keys keep their current value, so
  /// in-memory decisions from this run are not clobbered by stale disk
  /// state).
  void merge(std::vector<CachedPlan> plans);

  /// All entries, sorted by key for deterministic persistence.
  [[nodiscard]] std::vector<CachedPlan> snapshot() const;

  [[nodiscard]] std::size_t size() const;

 private:
  static std::string map_key(const std::string& shape_key,
                             std::uint64_t structure_hash);
  mutable Mutex mutex_{52, "cache.orders"};
  std::unordered_map<std::string, CachedPlan> plans_ QARCH_GUARDED_BY(mutex_);
};

}  // namespace qarch::qtensor

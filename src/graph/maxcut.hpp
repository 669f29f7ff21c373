// Classical max-cut solvers.
//
// The approximation ratio r = <C> / C_classical (Eq. 3) needs the classical
// optimum. search::Evaluator takes it from qaoa::classical_maximum's bucket
// elimination on every Hamiltonian; maxcut_exact enumerates all 2^(n-1)
// bipartitions and stays as the independent oracle that tests, examples and
// benches check against. Greedy + local-search heuristics are provided for
// larger instances and as cross-checks.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace qarch::graph {

/// Result of a max-cut solve: the cut weight and a witness assignment
/// (z[v] in {-1, +1}).
struct CutResult {
  double value = 0.0;
  std::vector<int> assignment;
};

/// Exact max-cut by exhaustive enumeration. Feasible up to ~26 vertices.
/// Fixing vertex 0's side halves the search space (cut is symmetric).
CutResult maxcut_exact(const Graph& g);

/// Greedy constructive heuristic: place each vertex on the side that
/// currently gains more cut weight.
CutResult maxcut_greedy(const Graph& g);

/// 1-flip local search started from `start` (or greedy if empty): flips the
/// best-improving vertex until no single flip improves the cut.
CutResult maxcut_local_search(const Graph& g, std::vector<int> start = {});

/// Multi-start randomized local search with `restarts` random initial cuts.
CutResult maxcut_multistart(const Graph& g, std::size_t restarts, Rng& rng);

}  // namespace qarch::graph

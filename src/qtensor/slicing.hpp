// Index slicing ("step-dependent parallelization", Lykov et al. 2022).
//
// Fixing s wire variables to concrete values splits one contraction into 2^s
// independent sub-contractions whose results add up — each slice is smaller
// (width drops by up to s) and the slices run embarrassingly parallel. This
// is how QTensor distributes one big contraction across GPUs/nodes; here the
// slices fan out over a thread pool.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "qtensor/contraction.hpp"
#include "qtensor/network.hpp"

namespace qarch::qtensor {

/// Projects a tensor onto var = bit: the label is removed and the data
/// restricted to the matching hyperplane. Tensors lacking the label are
/// returned unchanged.
Tensor project(const Tensor& tensor, VarId var, int bit);

/// Projects every tensor of the network and drops the sliced variables.
TensorNetwork project_network(const TensorNetwork& network,
                              const std::vector<VarId>& slice_vars,
                              std::size_t assignment);

/// Picks `count` slice variables by greedy max-degree in the line graph —
/// removing busy variables shrinks the treewidth fastest. Variables in
/// `keep` (a query's open output labels) are never picked.
std::vector<VarId> choose_slice_vars(const TensorNetwork& network,
                                     std::size_t count,
                                     std::span<const VarId> keep = {});

/// Contracts the network by summing 2^|slice_vars| projected contractions,
/// running up to `workers` slices concurrently. `order` must cover every
/// variable of the ORIGINAL network except the slice variables.
ContractionResult contract_sliced(const TensorNetwork& network,
                                  const std::vector<VarId>& order,
                                  const std::vector<VarId>& slice_vars,
                                  std::size_t workers = 1);

}  // namespace qarch::qtensor

#include "qtensor/slicing.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "qtensor/ordering.hpp"

namespace qarch::qtensor {

Tensor project(const Tensor& tensor, VarId var, int bit) {
  QARCH_REQUIRE(bit == 0 || bit == 1, "projection bit must be 0 or 1");
  const auto& labels = tensor.labels();
  const auto it = std::find(labels.begin(), labels.end(), var);
  if (it == labels.end()) return tensor;

  const std::size_t pos = static_cast<std::size_t>(it - labels.begin());
  const std::size_t r = tensor.rank();
  const std::size_t stride = std::size_t{1} << (r - 1 - pos);

  std::vector<VarId> new_labels;
  new_labels.reserve(r - 1);
  for (std::size_t k = 0; k < r; ++k)
    if (k != pos) new_labels.push_back(labels[k]);

  std::vector<cplx> out(std::size_t{1} << (r - 1));
  const auto& data = tensor.data();
  std::size_t w = 0;
  const std::size_t period = stride * 2;
  const std::size_t offset = bit == 0 ? 0 : stride;
  for (std::size_t base = 0; base < data.size(); base += period)
    for (std::size_t k = 0; k < stride; ++k)
      out[w++] = data[base + offset + k];
  return Tensor(std::move(new_labels), std::move(out));
}

TensorNetwork project_network(const TensorNetwork& network,
                              const std::vector<VarId>& slice_vars,
                              std::size_t assignment) {
  TensorNetwork out;
  out.num_vars = network.num_vars;
  out.tensors.reserve(network.tensors.size());
  for (const Tensor& t : network.tensors) {
    Tensor projected = t;
    for (std::size_t s = 0; s < slice_vars.size(); ++s)
      projected = project(projected, slice_vars[s],
                          static_cast<int>((assignment >> s) & 1));
    out.tensors.push_back(std::move(projected));
  }
  return out;
}

std::vector<VarId> choose_slice_vars(const TensorNetwork& network,
                                     std::size_t count,
                                     std::span<const VarId> keep) {
  QARCH_REQUIRE(count >= 1, "need at least one slice variable");
  LineGraph g(network);
  std::vector<VarId> chosen;
  for (std::size_t i = 0; i < count; ++i) {
    VarId best = 0;
    std::size_t best_degree = 0;
    bool found = false;
    for (VarId v : g.active_vars()) {
      if (std::find(keep.begin(), keep.end(), v) != keep.end()) continue;
      const std::size_t d = g.degree(v);
      if (!found || d > best_degree) {
        best = v;
        best_degree = d;
        found = true;
      }
    }
    if (!found) break;
    chosen.push_back(best);
    g.eliminate(best);
  }
  return chosen;
}

ContractionResult contract_sliced(const TensorNetwork& network,
                                  const std::vector<VarId>& order,
                                  const std::vector<VarId>& slice_vars,
                                  std::size_t workers) {
  QARCH_REQUIRE(!slice_vars.empty(), "no slice variables given");
  QARCH_REQUIRE(slice_vars.size() <= 20, "too many slice variables");
  for (VarId v : slice_vars)
    QARCH_REQUIRE(std::find(order.begin(), order.end(), v) == order.end(),
                  "slice variable must not appear in the elimination order");

  const std::size_t num_slices = std::size_t{1} << slice_vars.size();
  std::vector<cplx> partial(num_slices, cplx{0.0, 0.0});
  std::vector<std::size_t> widths(num_slices, 0);

  parallel::parallel_for(
      0, num_slices,
      [&](std::size_t slice) {
        const TensorNetwork projected =
            project_network(network, slice_vars, slice);
        const ContractionResult r = contract(projected, order);
        partial[slice] = r.value;
        widths[slice] = r.width;
      },
      workers);

  ContractionResult out;
  for (std::size_t s = 0; s < num_slices; ++s) {
    out.value += partial[s];
    out.width = std::max(out.width, widths[s]);
  }
  return out;
}

}  // namespace qarch::qtensor

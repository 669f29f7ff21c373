// Labeled dense tensors over binary (dimension-2) indices.
//
// This mirrors QTensor's data model: every tensor index is a *wire variable*
// of the circuit's tensor expression; all variables have dimension 2 (qubit
// wires). A tensor of rank r stores 2^r complex amplitudes row-major with
// labels()[0] outermost.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace qarch::qtensor {

using linalg::cplx;

/// Wire-variable identifier. Each qubit wire segment gets a fresh VarId.
using VarId = std::size_t;

/// Dense tensor over dimension-2 labeled indices.
class Tensor {
 public:
  Tensor() = default;

  /// Tensor with the given index labels and row-major data (size 2^rank).
  /// Labels must be distinct.
  Tensor(std::vector<VarId> labels, std::vector<cplx> data);

  /// Rank-0 scalar tensor.
  static Tensor scalar(cplx value);

  [[nodiscard]] std::size_t rank() const { return labels_.size(); }
  [[nodiscard]] const std::vector<VarId>& labels() const { return labels_; }
  [[nodiscard]] const std::vector<cplx>& data() const { return data_; }
  [[nodiscard]] std::vector<cplx>& data() { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// True when the tensor carries variable v.
  [[nodiscard]] bool has_label(VarId v) const;

  /// Value at a full assignment: bits[k] is the value of labels()[k].
  [[nodiscard]] cplx at(std::span<const int> bits) const;

  /// The scalar value of a rank-0 tensor.
  [[nodiscard]] cplx scalar_value() const;

  /// Sums this tensor over variable v (marginalization); v must be a label.
  [[nodiscard]] Tensor sum_over(VarId v) const;

  /// Returns a copy with indices permuted into `new_order` (a permutation
  /// of labels()).
  [[nodiscard]] Tensor transposed(const std::vector<VarId>& new_order) const;

  /// Conjugates every entry.
  [[nodiscard]] Tensor conjugated() const;

  /// Frobenius distance to another tensor with identical labels.
  [[nodiscard]] double distance(const Tensor& rhs) const;

  /// Human-readable summary like "Tensor[v3,v7] (rank 2)".
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<VarId> labels_;
  std::vector<cplx> data_;
};

/// Element-wise product of `factors` broadcast over `out_labels` (every
/// factor's labels must be among them): the reference contractor's bucket
/// product. Each call finds every factor label's output position by search.
[[nodiscard]] Tensor product(const std::vector<const Tensor*>& factors,
                             const std::vector<VarId>& out_labels);

/// Index steps of an odometer walk over `rank` product positions (position
/// 0 outermost, so bit t of the walk index is position rank-1-t). Given a
/// factor's stride at each position (0 where it lacks the label, a
/// broadcast), delta[t] is the change of its flat index when the walk index
/// increments to a value whose lowest set bit is t, which sets bit t and
/// clears every bit below it. Inline: every compiled bucket step runs it
/// once per factor.
inline void odometer_deltas(const std::size_t* stride, std::size_t rank,
                            std::ptrdiff_t* delta) {
  std::ptrdiff_t prefix = 0;  // sum of the strides of the bits below t
  for (std::size_t t = 0; t < rank; ++t) {
    const auto s = static_cast<std::ptrdiff_t>(stride[rank - 1 - t]);
    delta[t] = s - prefix;
    prefix += s;
  }
}

/// The broadcast product kernel behind product() and a compiled program's
/// open-label layout: out[i] = data[0][idx_0] * data[1][idx_1] * ... for
/// every i < 2^rank, multiplied in factor order, where each idx_f starts at
/// 0 and steps by delta[f * rank + t] (odometer_deltas) when i increments
/// to a value whose lowest set bit is t. `idx` is num_factors entries of
/// scratch; nothing is allocated.
void product_walk(std::size_t num_factors, std::size_t rank,
                  const cplx* const* data, const std::ptrdiff_t* delta,
                  std::size_t* idx, cplx* out);

}  // namespace qarch::qtensor

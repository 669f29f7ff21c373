#include "qtensor/backend.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace qarch::qtensor {

namespace {

/// Per-factor stride of each output bit position: factor_index(i) =
/// sum over positions p of bit_p(i) * stride[p]. Positions whose label is
/// absent from the factor get stride 0 (broadcast).
std::vector<std::size_t> factor_strides(const Tensor& factor,
                                        const std::vector<VarId>& out_labels) {
  const std::size_t out_rank = out_labels.size();
  std::vector<std::size_t> strides(out_rank, 0);
  const auto& fl = factor.labels();
  for (std::size_t j = 0; j < fl.size(); ++j) {
    const auto it = std::find(out_labels.begin(), out_labels.end(), fl[j]);
    QARCH_REQUIRE(it != out_labels.end(),
                  "factor label missing from product output labels");
    const std::size_t pos = static_cast<std::size_t>(it - out_labels.begin());
    strides[pos] = std::size_t{1} << (fl.size() - 1 - j);
  }
  return strides;
}

/// Writes all 2^out_rank entries of the factors' elementwise product.
void product_range(const std::vector<const Tensor*>& factors,
                   const std::vector<std::vector<std::size_t>>& strides,
                   std::size_t out_rank, cplx* out) {
  const std::size_t num_factors = factors.size();
  const std::size_t end = std::size_t{1} << out_rank;

  // Odometer walk: incrementing i flips its trailing one-bits to zero and
  // sets the next bit; the change to each factor's flat index is therefore a
  // function of countr_zero(i) alone. Precompute delta[f][t] =
  // stride_of_bit(t) - sum(stride_of_bit(b) for b < t), where bit b of i
  // corresponds to output position out_rank-1-b.
  std::vector<std::vector<std::ptrdiff_t>> delta(num_factors);
  std::vector<const cplx*> data(num_factors);
  std::vector<std::size_t> idx(num_factors, 0);
  for (std::size_t f = 0; f < num_factors; ++f) {
    const auto& st = strides[f];
    auto& d = delta[f];
    d.resize(out_rank);
    std::ptrdiff_t prefix = 0;  // sum of strides of bits below t
    for (std::size_t t = 0; t < out_rank; ++t) {
      const auto s = static_cast<std::ptrdiff_t>(st[out_rank - 1 - t]);
      d[t] = s - prefix;
      prefix += s;
    }
    data[f] = factors[f]->data().data();
  }

  for (std::size_t i = 0;;) {
    cplx acc = data[0][idx[0]];
    for (std::size_t f = 1; f < num_factors; ++f) acc *= data[f][idx[f]];
    out[i] = acc;
    if (++i >= end) break;
    const int t = std::countr_zero(i);
    for (std::size_t f = 0; f < num_factors; ++f)
      idx[f] = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(idx[f]) +
                                        delta[f][static_cast<std::size_t>(t)]);
  }
}

}  // namespace

Tensor Backend::product(const std::vector<const Tensor*>& factors,
                        const std::vector<VarId>& out_labels) const {
  std::vector<cplx> out(std::size_t{1} << out_labels.size());
  product_into(factors, out_labels, out.data());
  return Tensor(out_labels, std::move(out));
}

void SerialCpuBackend::product_into(const std::vector<const Tensor*>& factors,
                                    const std::vector<VarId>& out_labels,
                                    cplx* out) const {
  QARCH_REQUIRE(!factors.empty(), "product of zero factors");
  const std::size_t out_rank = out_labels.size();
  std::vector<std::vector<std::size_t>> strides;
  strides.reserve(factors.size());
  for (const Tensor* f : factors)
    strides.push_back(factor_strides(*f, out_labels));
  product_range(factors, strides, out_rank, out);
}

std::unique_ptr<Backend> make_backend(const std::string& spec) {
  if (spec == "serial") return std::make_unique<SerialCpuBackend>();
  throw InvalidArgument("unknown backend spec: " + spec);
}

}  // namespace qarch::qtensor

#include "qtensor/tensor.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hpp"

namespace qarch::qtensor {

Tensor::Tensor(std::vector<VarId> labels, std::vector<cplx> data)
    : labels_(std::move(labels)), data_(std::move(data)) {
  QARCH_REQUIRE(data_.size() == (std::size_t{1} << labels_.size()),
                "tensor data size must be 2^rank");
  auto sorted = labels_;
  std::sort(sorted.begin(), sorted.end());
  QARCH_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end(),
                "tensor labels must be distinct");
}

Tensor Tensor::scalar(cplx value) { return Tensor({}, {value}); }

bool Tensor::has_label(VarId v) const {
  return std::find(labels_.begin(), labels_.end(), v) != labels_.end();
}

cplx Tensor::at(std::span<const int> bits) const {
  QARCH_REQUIRE(bits.size() == rank(), "assignment size mismatch");
  std::size_t idx = 0;
  for (std::size_t k = 0; k < bits.size(); ++k)
    idx = (idx << 1) | static_cast<std::size_t>(bits[k] & 1);
  return data_[idx];
}

cplx Tensor::scalar_value() const {
  QARCH_REQUIRE(rank() == 0, "scalar_value on non-scalar tensor");
  return data_[0];
}

Tensor Tensor::sum_over(VarId v) const {
  const auto it = std::find(labels_.begin(), labels_.end(), v);
  QARCH_REQUIRE(it != labels_.end(), "sum_over: variable not present");
  const std::size_t pos = static_cast<std::size_t>(it - labels_.begin());
  const std::size_t r = rank();
  // Stride of position pos (labels_[0] outermost => stride 2^(r-1-pos)).
  const std::size_t stride = std::size_t{1} << (r - 1 - pos);

  std::vector<VarId> new_labels;
  new_labels.reserve(r - 1);
  for (std::size_t k = 0; k < r; ++k)
    if (k != pos) new_labels.push_back(labels_[k]);

  std::vector<cplx> out(std::size_t{1} << (r - 1));
  std::size_t w = 0;
  // Iterate blocks where the summed bit is contiguous.
  const std::size_t block = stride, period = stride * 2;
  for (std::size_t base = 0; base < data_.size(); base += period)
    for (std::size_t off = 0; off < block; ++off)
      out[w++] = data_[base + off] + data_[base + block + off];
  return Tensor(std::move(new_labels), std::move(out));
}

Tensor Tensor::transposed(const std::vector<VarId>& new_order) const {
  QARCH_REQUIRE(new_order.size() == rank(), "transpose rank mismatch");
  const std::size_t r = rank();
  // position of each new label inside the old label list
  std::vector<std::size_t> old_pos(r);
  for (std::size_t k = 0; k < r; ++k) {
    const auto it = std::find(labels_.begin(), labels_.end(), new_order[k]);
    QARCH_REQUIRE(it != labels_.end(), "transpose: label not present");
    old_pos[k] = static_cast<std::size_t>(it - labels_.begin());
  }
  std::vector<cplx> out(data_.size());
  for (std::size_t idx = 0; idx < data_.size(); ++idx) {
    // idx enumerates the NEW layout; map to old flat index.
    std::size_t old_idx = 0;
    for (std::size_t k = 0; k < r; ++k) {
      const std::size_t bit = (idx >> (r - 1 - k)) & 1;
      old_idx |= bit << (r - 1 - old_pos[k]);
    }
    out[idx] = data_[old_idx];
  }
  return Tensor(new_order, std::move(out));
}

Tensor Tensor::conjugated() const {
  Tensor t = *this;
  for (auto& x : t.data_) x = std::conj(x);
  return t;
}

double Tensor::distance(const Tensor& rhs) const {
  QARCH_REQUIRE(labels_ == rhs.labels_, "distance: label mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i)
    s += std::norm(data_[i] - rhs.data_[i]);
  return std::sqrt(s);
}

std::string Tensor::to_string() const {
  std::ostringstream os;
  os << "Tensor[";
  for (std::size_t k = 0; k < labels_.size(); ++k) {
    if (k) os << ',';
    os << 'v' << labels_[k];
  }
  os << "] (rank " << rank() << ")";
  return os.str();
}

Tensor product(const std::vector<const Tensor*>& factors,
               const std::vector<VarId>& out_labels) {
  QARCH_REQUIRE(!factors.empty(), "product of zero factors");
  const std::size_t num_factors = factors.size();
  const std::size_t rank = out_labels.size();
  std::vector<const cplx*> data(num_factors);
  std::vector<std::ptrdiff_t> delta(num_factors * rank);
  std::vector<std::size_t> stride(rank), idx(num_factors);
  for (std::size_t f = 0; f < num_factors; ++f) {
    const auto& fl = factors[f]->labels();
    std::fill(stride.begin(), stride.end(), std::size_t{0});
    for (std::size_t j = 0; j < fl.size(); ++j) {
      const auto it = std::find(out_labels.begin(), out_labels.end(), fl[j]);
      QARCH_REQUIRE(it != out_labels.end(),
                    "factor label missing from product output labels");
      stride[static_cast<std::size_t>(it - out_labels.begin())] =
          std::size_t{1} << (fl.size() - 1 - j);
    }
    odometer_deltas(stride.data(), rank, delta.data() + f * rank);
    data[f] = factors[f]->data().data();
  }
  std::vector<cplx> out(std::size_t{1} << rank);
  product_walk(num_factors, rank, data.data(), delta.data(), idx.data(),
               out.data());
  return Tensor(out_labels, std::move(out));
}

void product_walk(std::size_t num_factors, std::size_t rank,
                  const cplx* const* data, const std::ptrdiff_t* delta,
                  std::size_t* idx, cplx* out) {
  const std::size_t end = std::size_t{1} << rank;
  std::fill_n(idx, num_factors, std::size_t{0});
  for (std::size_t i = 0;;) {
    cplx acc = data[0][idx[0]];
    for (std::size_t f = 1; f < num_factors; ++f) acc *= data[f][idx[f]];
    out[i] = acc;
    if (++i >= end) break;
    const auto t = static_cast<std::size_t>(std::countr_zero(i));
    for (std::size_t f = 0; f < num_factors; ++f)
      idx[f] = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(idx[f]) + delta[f * rank + t]);
  }
}

}  // namespace qarch::qtensor

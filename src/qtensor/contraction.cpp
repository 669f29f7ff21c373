#include "qtensor/contraction.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"

namespace qarch::qtensor {

ContractionResult contract(const TensorNetwork& network,
                           const std::vector<VarId>& order) {
  {
    // Every variable of the network must be summed exactly once.
    std::set<VarId> in_order(order.begin(), order.end());
    QARCH_REQUIRE(in_order.size() == order.size(),
                  "elimination order repeats a variable");
    for (VarId v : network.variables())
      QARCH_REQUIRE(in_order.count(v) > 0,
                    "elimination order misses a network variable");
  }

  std::vector<Tensor> active = network.tensors;
  ContractionResult result;

  for (VarId v : order) {
    // Bucket = every active tensor carrying v.
    std::vector<const Tensor*> bucket;
    std::vector<Tensor> rest;
    rest.reserve(active.size());
    std::vector<Tensor> bucket_storage;
    for (Tensor& t : active) {
      if (t.has_label(v))
        bucket_storage.push_back(std::move(t));
      else
        rest.push_back(std::move(t));
    }
    if (bucket_storage.empty()) continue;
    bucket.reserve(bucket_storage.size());
    for (const Tensor& t : bucket_storage) bucket.push_back(&t);

    // Union of bucket labels, v placed first for cheap summation afterwards.
    std::set<VarId> union_set;
    for (const Tensor* t : bucket)
      union_set.insert(t->labels().begin(), t->labels().end());
    std::vector<VarId> out_labels;
    out_labels.reserve(union_set.size());
    out_labels.push_back(v);
    for (VarId w : union_set)
      if (w != v) out_labels.push_back(w);

    result.width = std::max(result.width, out_labels.size());
    rest.push_back(product(bucket, out_labels).sum_over(v));
    active = std::move(rest);
  }

  // All variables eliminated: remaining tensors are scalars.
  cplx value{1.0, 0.0};
  for (const Tensor& t : active) {
    QARCH_CHECK(t.rank() == 0, "non-scalar tensor left after contraction");
    value *= t.scalar_value();
  }
  result.value = value;
  return result;
}

void check_backend_spec(const std::string& spec) {
  if (spec != "serial") throw InvalidArgument("unknown backend spec: " + spec);
}

QTensorSimulator::QTensorSimulator(QTensorOptions options)
    : options_(std::move(options)) {
  check_backend_spec(options_.backend);
}

double QTensorSimulator::expectation_zz(const circuit::Circuit& circuit,
                                        std::span<const double> theta,
                                        std::size_t u, std::size_t v) const {
  const TensorNetwork net = expectation_zz_network(circuit, theta, u, v);
  const ContractionResult r = contract(net, order_greedy_degree(net));
  QARCH_CHECK(std::abs(r.value.imag()) < 1e-8,
              "Hermitian expectation has a large imaginary part");
  return r.value.real();
}

cplx QTensorSimulator::amplitude(const circuit::Circuit& circuit,
                                 std::span<const double> theta,
                                 std::span<const int> bits) const {
  const TensorNetwork net = amplitude_network(circuit, theta, bits);
  return contract(net, order_greedy_degree(net)).value;
}

}  // namespace qarch::qtensor

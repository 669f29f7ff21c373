// Contraction backends.
//
// QTensor supports multiple tensor-contraction backends (NumPy on CPUs in
// the paper; GPU backends as future work). We reproduce that seam: the
// reference bucket-elimination contractor delegates its kernel — the
// element-wise product of a bucket's tensors over the union of their
// labels — to a Backend, and a compiled ContractionProgram lays its
// open-label survivors out through the same product. The programs' bucket
// steps do not come here: their fused product+sum kernel replays index maps
// fixed at compile time (program.cpp), so the reference contractor stays
// an independent oracle for them. SerialCpuBackend (plain loops, the
// paper's NumPy-on-CPU analogue) is the one implementation. Parallelism
// sits above the kernel, in the callers' per-term and per-slice fan-out: a
// multithreaded kernel lost to the serial one at every size in
// BENCH_qtensor.json's sim_backend rows.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "qtensor/tensor.hpp"

namespace qarch::qtensor {

/// Abstract contraction kernel provider.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Computes the element-wise product of `factors` broadcast over the union
  /// label set `out_labels` (every factor's labels must be a subset).
  [[nodiscard]] Tensor product(const std::vector<const Tensor*>& factors,
                               const std::vector<VarId>& out_labels) const;

  /// Same product written into caller-provided storage of size
  /// 2^|out_labels| — the allocation-free kernel variant.
  virtual void product_into(const std::vector<const Tensor*>& factors,
                            const std::vector<VarId>& out_labels,
                            cplx* out) const = 0;

  /// Backend display name.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Single-threaded reference backend.
class SerialCpuBackend final : public Backend {
 public:
  void product_into(const std::vector<const Tensor*>& factors,
                    const std::vector<VarId>& out_labels,
                    cplx* out) const override;
  [[nodiscard]] std::string name() const override { return "serial-cpu"; }
};

/// Factory: "serial" is the only spec; any other throws InvalidArgument.
std::unique_ptr<Backend> make_backend(const std::string& spec);

}  // namespace qarch::qtensor

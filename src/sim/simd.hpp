// SIMD streaming passes for the statevector kernels.
//
// Every hot loop of the compiled simulation path — the Diag1/Diag2 phase
// streams, the DiagTable per-class lookup, the fused 2x2 Single kernel, the
// batched <Z_u Z_v> sweep and the cost-diagonal <C> — reduces to a handful
// of contiguous complex-double passes. This header names those passes once;
// the implementation provides an AVX2/FMA variant (interleaved re/im lanes,
// two complex doubles per 256-bit register) and a portable scalar fallback
// with identical semantics.
//
// Dispatch: the AVX2 bodies are compiled with per-function target attributes
// (`target("avx2,fma")`), so the library builds WITHOUT -mavx2 and still
// ships the vector paths; at runtime `active()` checks, once, that (a) the
// build had the x86 paths enabled (QARCH_ENABLE_AVX2, on by default), (b)
// the CPU reports avx2+fma, and (c) neither the QARCH_SIMD=0 environment
// override nor set_runtime_enabled(false) turned them off. Every pass
// dispatches on active() alone; that process-wide switch is the one way to
// run the scalar bodies on an AVX2 build.
//
// Slice passes take the slice's GLOBAL base index so the cache-blocked
// replay can run any op on any aligned sub-range of the state: selector
// bits are always computed against base + local offset.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/matrix.hpp"

namespace qarch::sim::simd {

using linalg::cplx;

// -- capability & dispatch ----------------------------------------------------

/// True when this build contains the AVX2 code paths at all.
bool compiled_with_avx2();

/// True when the executing CPU reports AVX2 and FMA.
bool cpu_has_avx2();

/// Process-wide override (default on; QARCH_SIMD=0 in the environment turns
/// it off at startup). Benches and the CI scalar leg use this to force the
/// fallback without rebuilding.
void set_runtime_enabled(bool enabled);
bool runtime_enabled();

/// The actual dispatch decision: compiled_with_avx2() && cpu_has_avx2() &&
/// runtime_enabled(). Cheap (one relaxed atomic load) — called per pass.
bool active();

/// Holds the process-wide switch at `enabled` for one scope and restores
/// the previous setting on exit, also when a test assertion returns early.
/// The switch is global: flip it only while no other thread replays.
class ScopedRuntime {
 public:
  explicit ScopedRuntime(bool enabled) : was_(runtime_enabled()) {
    set_runtime_enabled(enabled);
  }
  ~ScopedRuntime() { set_runtime_enabled(was_); }
  ScopedRuntime(const ScopedRuntime&) = delete;
  ScopedRuntime& operator=(const ScopedRuntime&) = delete;

 private:
  bool was_;
};

// -- streaming passes ---------------------------------------------------------
//
// All passes mutate `z[0..n)` in place and run the AVX2 body iff active().
// Both variants perform the same per-amplitude operations in the same order
// (the AVX2 bodies use explicit mul+addsub, no FMA, and simd.cpp is built
// without fp contraction or auto-vectorization, so the compiler cannot fuse
// the scalar bodies even under global -mfma): results agree bit-for-bit.
// zz_accumulate alone reassociates its partial sums (rounding-level
// differences); diag_expectation fixes its lane order in both bodies.
// Toggling mid-run is safe.

/// z[i] *= w.
void scale_run(cplx* z, std::size_t n, cplx w);

/// z[i] *= (i even ? w0 : w1) — the qubit-0 diagonal pattern.
void mul_pattern2(cplx* z, std::size_t n, cplx w0, cplx w1);

/// Single-qubit diagonal on a slice: z[i] *= ((base+i)>>q & 1 ? d1 : d0).
void diag1_slice(cplx* z, std::size_t n, std::size_t base, std::size_t q,
                 cplx d0, cplx d1);

/// Two-qubit diagonal on a slice with entries d[((gi>>q0)&1)<<1 | (gi>>q1)&1]
/// for gi = base + i (d has 4 entries).
void diag2_slice(cplx* z, std::size_t n, std::size_t base, std::size_t q0,
                 std::size_t q1, const cplx* d);

/// Phase-table lookup: z[i] *= lut[cls[i]] (cls already offset to the slice).
void table_slice(cplx* z, const std::uint16_t* cls, const cplx* lut,
                 std::size_t n);

// The Single pass (single_pairs, single_pair_range) picks one of three
// bodies on every call from the four entries of m:
//   * real: every imaginary part is zero (ry, h, ry·ry, ry·h);
//   * rx-form: real diagonal, purely imaginary off-diagonal (rx, rx·rx);
//   * general: anything else (rx·ry, rz, a random SU(2)).
// A structured body does the general body's products and sums with the
// zero terms left out. Within each class the scalar and AVX2 bodies agree
// bit-for-bit. On finite amplitudes a structured body returns the general
// body's values (==), except that an exact zero may come out with the other
// sign, which no norm, energy or draw can see.

/// Fused 2x2 on two contiguous runs: (a[i], b[i]) <- M (a[i], b[i])^T with
/// row-major m[4]. The Single kernel's inner loop for target qubit q >= 1,
/// where the bit-q=0 and bit-q=1 amplitudes form runs of length 2^q.
void single_pairs(cplx* a, cplx* b, std::size_t n, const cplx* m);

/// Fused 2x2 over a PAIR-INDEX range [klo, khi): pair k expands to
/// i0 = ((k >> q) << (q+1)) | (k & (2^q - 1)), i1 = i0 | 2^q, exactly the
/// index walk of the legacy kernel. Works for q = 0 (interleaved pairs) and
/// arbitrary unaligned [klo, khi) splits, so both the serial full-state
/// kernel and any parallel chunking share one body.
void single_pair_range(cplx* z, std::size_t q, const cplx* m, std::size_t klo,
                       std::size_t khi);

/// Dense 4x4 over a QUAD-INDEX range [klo, khi), scalar only. QAOA plans
/// run it for entangling mixers: qaoa::append_mixer_layer builds a ring of
/// each two-qubit mixer gate, and the CX and SWAP rings compile to Two ops.
/// Quad k spreads across the two bit holes exactly like the legacy kernel.
void two_quad_range(cplx* z, std::size_t q0, std::size_t q1, const cplx* m,
                    std::size_t klo, std::size_t khi);

/// Batched <Z_u Z_v> partial sums over state[lo, hi): for each mask m_k,
/// acc[k] += sum_i parity(i & m_k) ? -|z_i|^2 : +|z_i|^2. `acc` must hold
/// num_masks entries and is accumulated into (not cleared).
void zz_accumulate(const cplx* state, std::size_t lo, std::size_t hi,
                   const std::size_t* masks, std::size_t num_masks,
                   double* acc);

/// <z| D - shift |z> for a diagonal observable: sum_i |z_i|^2 (diag[i] -
/// shift). A shift near the mean of diag keeps the partial sums, and so
/// their rounding error, small. Four running lanes by index mod 4 (the tail
/// included) each add
/// (re*re + im*im) * (diag[i] - shift) without FMA, and fold as
/// (l0 + l1) + (l2 + l3), so the scalar and AVX2 bodies return identical
/// bits.
double diag_expectation(const cplx* z, const double* diag, double shift,
                        std::size_t n);

// -- contiguous-run passes (qtensor bucket kernels) ---------------------------
//
// The fused product+sum contraction kernel gathers factor values into
// contiguous scratch runs and chains them through these two passes; they
// follow the same contract as the passes above (mul+addsub multiplies, no
// FMA, remainder handled scalar by the dispatcher).

/// acc[i] *= x[i] — elementwise complex multiply of two contiguous runs.
void cplx_mul_runs(cplx* acc, const cplx* x, std::size_t n);

/// out[i] = a[i] + b[i] — elementwise complex add of two contiguous runs.
void cplx_add_runs(cplx* out, const cplx* a, const cplx* b, std::size_t n);

}  // namespace qarch::sim::simd

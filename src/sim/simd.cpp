#include "sim/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <vector>

// The AVX2 bodies are gated three ways:
//   * compile time — x86-64 with GCC/Clang (per-function target attributes
//     let us emit AVX2 code without -mavx2 on the whole build), unless the
//     QARCH_DISABLE_AVX2 definition (CMake -DQARCH_ENABLE_AVX2=OFF) forces
//     the portable scalar build;
//   * run time (CPU) — __builtin_cpu_supports("avx2"/"fma"), checked once;
//   * run time (policy) — QARCH_SIMD=0 in the environment or
//     set_runtime_enabled(false).
#if !defined(QARCH_DISABLE_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define QARCH_SIMD_X86 1
#include <immintrin.h>
#else
#define QARCH_SIMD_X86 0
#endif

namespace qarch::sim::simd {

namespace {

bool env_allows_simd() {
  const char* v = std::getenv("QARCH_SIMD");
  if (v == nullptr) return true;
  return !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& runtime_flag() {
  static std::atomic<bool> flag{env_allows_simd()};
  return flag;
}

}  // namespace

bool compiled_with_avx2() { return QARCH_SIMD_X86 != 0; }

bool cpu_has_avx2() {
#if QARCH_SIMD_X86
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

void set_runtime_enabled(bool enabled) {
  runtime_flag().store(enabled, std::memory_order_relaxed);
}

bool runtime_enabled() {
  return runtime_flag().load(std::memory_order_relaxed);
}

bool active() {
  return compiled_with_avx2() && cpu_has_avx2() && runtime_enabled();
}

// -- scalar bodies ------------------------------------------------------------
//
// The scalar and AVX2 variants of the multiplicative passes perform the SAME
// floating-point operations in the same order per amplitude
// ((zr*wr - zi*wi, zi*wr + zr*wi), each product rounded before the add/sub —
// the AVX2 bodies never use FMA; the Single pass's structured bodies leave
// out the same zero products in both). This file is built with
// -ffp-contract=off and -fno-tree-vectorize — GCC's complex-multiply
// vectorization turns addsub+mul into vfmaddsub even with contraction off —
// so every build, global -mfma included, agrees bit-for-bit across the
// toggle. zz_accumulate additionally keeps four running lanes per mask, so
// its partial sums associate differently (equal within rounding).
// diag_expectation keeps the same four lanes by index mod 4 in both bodies
// and folds them in one fixed order, so it stays bit-identical.

namespace {

void scale_run_scalar(cplx* z, std::size_t n, cplx w) {
  for (std::size_t i = 0; i < n; ++i) z[i] *= w;
}

void mul_pattern2_scalar(cplx* z, std::size_t n, cplx w0, cplx w1) {
  for (std::size_t i = 0; i < n; ++i) z[i] *= (i & 1) ? w1 : w0;
}

void table_slice_scalar(cplx* z, const std::uint16_t* cls, const cplx* lut,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] *= lut[cls[i]];
}

/// The Single pass's three bodies (see simd.hpp), picked per call from the
/// bound 2x2's entries.
enum class SingleForm { General, Real, RxForm };

SingleForm single_form(const cplx* m) {
  const bool real_diag = m[0].imag() == 0.0 && m[3].imag() == 0.0;
  if (real_diag && m[1].imag() == 0.0 && m[2].imag() == 0.0)
    return SingleForm::Real;
  if (real_diag && m[1].real() == 0.0 && m[2].real() == 0.0)
    return SingleForm::RxForm;
  return SingleForm::General;
}

/// One pair (a, b) <- M (a, b) in form F's arithmetic. The structured forms
/// do the general body's products and sums with the zero terms left out.
template <SingleForm F>
struct ScalarPair;

template <>
struct ScalarPair<SingleForm::General> {
  cplx m00, m01, m10, m11;
  explicit ScalarPair(const cplx* m)
      : m00(m[0]), m01(m[1]), m10(m[2]), m11(m[3]) {}
  void operator()(cplx& a, cplx& b) const {
    const cplx va = a, vb = b;
    a = m00 * va + m01 * vb;
    b = m10 * va + m11 * vb;
  }
};

/// Every imaginary part zero: two real × complex products per output.
template <>
struct ScalarPair<SingleForm::Real> {
  double m00, m01, m10, m11;
  explicit ScalarPair(const cplx* m)
      : m00(m[0].real()), m01(m[1].real()), m10(m[2].real()),
        m11(m[3].real()) {}
  void operator()(cplx& a, cplx& b) const {
    const double ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
    a = {m00 * ar + m01 * br, m00 * ai + m01 * bi};
    b = {m10 * ar + m11 * br, m10 * ai + m11 * bi};
  }
};

/// Real diagonal, imaginary off-diagonal (i·o1, i·o2): the partner enters
/// re/im-swapped, times (−o, +o).
template <>
struct ScalarPair<SingleForm::RxForm> {
  double d0, o1, o2, d3;
  explicit ScalarPair(const cplx* m)
      : d0(m[0].real()), o1(m[1].imag()), o2(m[2].imag()), d3(m[3].real()) {}
  void operator()(cplx& a, cplx& b) const {
    const double ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
    a = {d0 * ar + -o1 * bi, d0 * ai + o1 * br};
    b = {-o2 * ai + d3 * br, o2 * ar + d3 * bi};
  }
};

template <SingleForm F>
void single_pairs_scalar(cplx* a, cplx* b, std::size_t n, const cplx* m) {
  const ScalarPair<F> pair(m);
  for (std::size_t i = 0; i < n; ++i) pair(a[i], b[i]);
}

void cplx_mul_runs_scalar(cplx* acc, const cplx* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] *= x[i];
}

void cplx_add_runs_scalar(cplx* out, const cplx* a, const cplx* b,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void zz_accumulate_scalar(const cplx* state, std::size_t lo, std::size_t hi,
                          const std::size_t* masks, std::size_t num_masks,
                          double* acc) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double p = std::norm(state[i]);
    // Branchless sign select: the parity of i & mask is data-dependent per
    // term, so a conditional would mispredict half the time.
    const double pm[2] = {p, -p};
    for (std::size_t k = 0; k < num_masks; ++k)
      acc[k] += pm[std::popcount(i & masks[k]) & 1];
  }
}

/// lanes[i % 4] += (re*re + im*im) * (diag[i] - shift) for i in [lo, hi);
/// lo must be a multiple of 4.
void diag_lanes_scalar(const cplx* z, const double* diag, double shift,
                       std::size_t lo, std::size_t hi, double* lanes) {
  const auto term = [&](std::size_t i) {
    const double re = z[i].real(), im = z[i].imag();
    return (re * re + im * im) * (diag[i] - shift);
  };
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4)
    for (std::size_t l = 0; l < 4; ++l) lanes[l] += term(i + l);
  for (; i < hi; ++i) lanes[i & 3] += term(i);
}

}  // namespace

// -- AVX2 bodies --------------------------------------------------------------

#if QARCH_SIMD_X86

#define QARCH_AVX2_FN __attribute__((target("avx2,fma")))

namespace {

/// One 256-bit register holds two interleaved complex doubles
/// [z0.re, z0.im, z1.re, z1.im]. Multiply both by the broadcast constant
/// (wr, wi): mul + addsub, matching the scalar rounding exactly.
QARCH_AVX2_FN inline __m256d cmul_bcast(__m256d z, __m256d wr, __m256d wi) {
  const __m256d t0 = _mm256_mul_pd(z, wr);
  const __m256d zs = _mm256_permute_pd(z, 0x5);  // swap re/im per lane pair
  const __m256d t1 = _mm256_mul_pd(zs, wi);
  return _mm256_addsub_pd(t0, t1);  // (zr*wr - zi*wi, zi*wr + zr*wi)
}

/// Lane-wise complex multiply: w carries a DISTINCT multiplier per complex
/// lane, [w0.re, w0.im, w1.re, w1.im].
QARCH_AVX2_FN inline __m256d cmul_lane(__m256d z, __m256d w) {
  const __m256d wr = _mm256_movedup_pd(w);       // [w0r, w0r, w1r, w1r]
  const __m256d wi = _mm256_permute_pd(w, 0xF);  // [w0i, w0i, w1i, w1i]
  return cmul_bcast(z, wr, wi);
}

// NOTE every *_avx2 body below only touches COMPLETE vector groups (the
// dispatcher trims the byte count first and runs the remainder through the
// scalar helpers). A scalar loop inside these functions would be compiled
// under target("avx2,fma") and could FMA-contract, silently breaking the
// bit-identity contract with the scalar fallback.

/// n must be a multiple of 2.
QARCH_AVX2_FN void scale_run_avx2(cplx* z, std::size_t n, cplx w) {
  double* d = reinterpret_cast<double*>(z);
  const __m256d wr = _mm256_set1_pd(w.real());
  const __m256d wi = _mm256_set1_pd(w.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(d + 2 * i);
    const __m256d b = _mm256_loadu_pd(d + 2 * i + 4);
    _mm256_storeu_pd(d + 2 * i, cmul_bcast(a, wr, wi));
    _mm256_storeu_pd(d + 2 * i + 4, cmul_bcast(b, wr, wi));
  }
  for (; i < n; i += 2)
    _mm256_storeu_pd(d + 2 * i,
                     cmul_bcast(_mm256_loadu_pd(d + 2 * i), wr, wi));
}

/// n must be a multiple of 2.
QARCH_AVX2_FN void mul_pattern2_avx2(cplx* z, std::size_t n, cplx w0,
                                     cplx w1) {
  double* d = reinterpret_cast<double*>(z);
  // One register covers one (w0, w1) period.
  const __m256d w = _mm256_setr_pd(w0.real(), w0.imag(), w1.real(), w1.imag());
  for (std::size_t i = 0; i < n; i += 2)
    _mm256_storeu_pd(d + 2 * i, cmul_lane(_mm256_loadu_pd(d + 2 * i), w));
}

/// n must be a multiple of 4.
QARCH_AVX2_FN void table_slice_avx2(cplx* z, const std::uint16_t* cls,
                                    const cplx* lut, std::size_t n) {
  double* d = reinterpret_cast<double*>(z);
  const double* lp = reinterpret_cast<const double*>(lut);
  // 16-byte loads from the lut + a 128-lane merge beat AVX2 gathers here:
  // class ids repeat heavily, so the lut lines stay in L1.
  for (std::size_t i = 0; i < n; i += 4) {
    const __m128d l0 = _mm_loadu_pd(lp + 2 * cls[i]);
    const __m128d l1 = _mm_loadu_pd(lp + 2 * cls[i + 1]);
    const __m128d l2 = _mm_loadu_pd(lp + 2 * cls[i + 2]);
    const __m128d l3 = _mm_loadu_pd(lp + 2 * cls[i + 3]);
    const __m256d w01 = _mm256_set_m128d(l1, l0);
    const __m256d w23 = _mm256_set_m128d(l3, l2);
    const __m256d z01 = _mm256_loadu_pd(d + 2 * i);
    const __m256d z23 = _mm256_loadu_pd(d + 2 * i + 4);
    _mm256_storeu_pd(d + 2 * i, cmul_lane(z01, w01));
    _mm256_storeu_pd(d + 2 * i + 4, cmul_lane(z23, w23));
  }
}

/// The four entries of a row-major 2x2, each broadcast as (re, im).
struct Bcast2x2 {
  __m256d r[4];
  __m256d i[4];
};

QARCH_AVX2_FN inline Bcast2x2 bcast_2x2(const cplx* m) {
  Bcast2x2 b;
  for (std::size_t k = 0; k < 4; ++k) {
    b.r[k] = _mm256_set1_pd(m[k].real());
    b.i[k] = _mm256_set1_pd(m[k].imag());
  }
  return b;
}

/// (a, b) <- M (a, b) on two registers of two complex lanes each.
QARCH_AVX2_FN inline void pair_step(__m256d& za, __m256d& zb,
                                    const Bcast2x2& m) {
  const __m256d na = _mm256_add_pd(cmul_bcast(za, m.r[0], m.i[0]),
                                   cmul_bcast(zb, m.r[1], m.i[1]));
  const __m256d nb = _mm256_add_pd(cmul_bcast(za, m.r[2], m.i[2]),
                                   cmul_bcast(zb, m.r[3], m.i[3]));
  za = na;
  zb = nb;
}

/// ScalarPair<F> on two registers of two complex lanes each, with the same
/// products and sums per lane.
template <SingleForm F>
struct Avx2Pair;

template <>
struct Avx2Pair<SingleForm::General> {
  Bcast2x2 m;
  QARCH_AVX2_FN explicit Avx2Pair(const cplx* entries)
      : m(bcast_2x2(entries)) {}
  QARCH_AVX2_FN void operator()(__m256d& za, __m256d& zb) const {
    pair_step(za, zb, m);
  }
};

template <>
struct Avx2Pair<SingleForm::Real> {
  __m256d m00, m01, m10, m11;
  QARCH_AVX2_FN explicit Avx2Pair(const cplx* m)
      : m00(_mm256_set1_pd(m[0].real())), m01(_mm256_set1_pd(m[1].real())),
        m10(_mm256_set1_pd(m[2].real())), m11(_mm256_set1_pd(m[3].real())) {}
  QARCH_AVX2_FN void operator()(__m256d& za, __m256d& zb) const {
    const __m256d na =
        _mm256_add_pd(_mm256_mul_pd(za, m00), _mm256_mul_pd(zb, m01));
    const __m256d nb =
        _mm256_add_pd(_mm256_mul_pd(za, m10), _mm256_mul_pd(zb, m11));
    za = na;
    zb = nb;
  }
};

/// The swapped partner times (−o, +o) per lane pair: the nonzero results of
/// cmul_bcast(z, +0, o).
template <>
struct Avx2Pair<SingleForm::RxForm> {
  __m256d d0, o1, o2, d3;
  QARCH_AVX2_FN explicit Avx2Pair(const cplx* m)
      : d0(_mm256_set1_pd(m[0].real())),
        o1(_mm256_setr_pd(-m[1].imag(), m[1].imag(), -m[1].imag(),
                          m[1].imag())),
        o2(_mm256_setr_pd(-m[2].imag(), m[2].imag(), -m[2].imag(),
                          m[2].imag())),
        d3(_mm256_set1_pd(m[3].real())) {}
  QARCH_AVX2_FN void operator()(__m256d& za, __m256d& zb) const {
    const __m256d sa = _mm256_permute_pd(za, 0x5);  // swap re/im
    const __m256d sb = _mm256_permute_pd(zb, 0x5);
    const __m256d na =
        _mm256_add_pd(_mm256_mul_pd(za, d0), _mm256_mul_pd(sb, o1));
    const __m256d nb =
        _mm256_add_pd(_mm256_mul_pd(sa, o2), _mm256_mul_pd(zb, d3));
    za = na;
    zb = nb;
  }
};

/// n must be a multiple of 2.
template <SingleForm F>
QARCH_AVX2_FN void single_pairs_avx2(cplx* a, cplx* b, std::size_t n,
                                     const cplx* m) {
  double* da = reinterpret_cast<double*>(a);
  double* db = reinterpret_cast<double*>(b);
  const Avx2Pair<F> pair(m);
  for (std::size_t i = 0; i < n; i += 2) {
    __m256d za = _mm256_loadu_pd(da + 2 * i);
    __m256d zb = _mm256_loadu_pd(db + 2 * i);
    pair(za, zb);
    _mm256_storeu_pd(da + 2 * i, za);
    _mm256_storeu_pd(db + 2 * i, zb);
  }
}

/// The Single pair walk for q >= 1 over WHOLE runs: pair run r couples the
/// 2^q amplitudes at 2^(q+1)·r with the 2^q above them. klo and khi must be
/// multiples of 2^q.
template <SingleForm F>
QARCH_AVX2_FN void single_runs_avx2(cplx* z, std::size_t q, const cplx* m,
                                    std::size_t klo, std::size_t khi) {
  double* d = reinterpret_cast<double*>(z);
  const Avx2Pair<F> pair(m);
  const std::size_t half = std::size_t{1} << q;
  for (std::size_t k = klo; k < khi; k += half) {
    double* da = d + 2 * ((k >> q) << (q + 1));
    double* db = da + 2 * half;
    for (std::size_t j = 0; j < 2 * half; j += 4) {
      __m256d za = _mm256_loadu_pd(da + j);
      __m256d zb = _mm256_loadu_pd(db + j);
      pair(za, zb);
      _mm256_storeu_pd(da + j, za);
      _mm256_storeu_pd(db + j, zb);
    }
  }
}

/// q = 0 pair walk: amplitudes interleave as a0 b0 a1 b1 ...; two pairs load
/// as two registers that deinterleave with 128-bit lane permutes.
/// khi - klo must be a multiple of 2.
template <SingleForm F>
QARCH_AVX2_FN void single_q0_avx2(cplx* z, const cplx* m, std::size_t klo,
                                  std::size_t khi) {
  double* d = reinterpret_cast<double*>(z);
  const Avx2Pair<F> pair(m);
  for (std::size_t k = klo; k < khi; k += 2) {
    const __m256d v0 = _mm256_loadu_pd(d + 4 * k);      // [a0, b0]
    const __m256d v1 = _mm256_loadu_pd(d + 4 * k + 4);  // [a1, b1]
    __m256d za = _mm256_permute2f128_pd(v0, v1, 0x20);  // [a0, a1]
    __m256d zb = _mm256_permute2f128_pd(v0, v1, 0x31);  // [b0, b1]
    pair(za, zb);
    _mm256_storeu_pd(d + 4 * k, _mm256_permute2f128_pd(za, zb, 0x20));
    _mm256_storeu_pd(d + 4 * k + 4, _mm256_permute2f128_pd(za, zb, 0x31));
  }
}

/// lo and hi must both be multiples of 4 (the dispatcher trims and runs the
/// unaligned head/tail through the scalar body): the per-group parity of
/// i & mask then splits into (group parity) xor (lane parity), with the lane
/// part baked into per-mask sign patterns.
QARCH_AVX2_FN void zz_accumulate_avx2(const cplx* state, std::size_t lo,
                                      std::size_t hi,
                                      const std::size_t* masks,
                                      std::size_t num_masks, double* acc) {
  const double* d = reinterpret_cast<const double*>(state);
  // hadd of the two squared registers yields probabilities in lane order
  // [p0, p2, p1, p3]; the patterns below use the same order. Patterns and
  // running lanes live in plain double storage (a std::vector<__m256d>
  // would not be guaranteed 32-byte aligned) — all L1-resident.
  std::vector<double> pattern(8 * num_masks);  // [mask][group parity][lane]
  std::vector<double> vacc(4 * num_masks, 0.0);
  for (std::size_t k = 0; k < num_masks; ++k) {
    const std::size_t low = masks[k] & 3;
    double s[4];
    for (std::size_t j = 0; j < 4; ++j)
      s[j] = (std::popcount(j & low) & 1) ? -1.0 : 1.0;
    const double lanes[4] = {s[0], s[2], s[1], s[3]};
    for (std::size_t l = 0; l < 4; ++l) {
      pattern[8 * k + l] = lanes[l];
      pattern[8 * k + 4 + l] = -lanes[l];
    }
  }
  for (std::size_t i = lo; i < hi; i += 4) {
    const __m256d z0 = _mm256_loadu_pd(d + 2 * i);
    const __m256d z1 = _mm256_loadu_pd(d + 2 * i + 4);
    const __m256d p =
        _mm256_hadd_pd(_mm256_mul_pd(z0, z0), _mm256_mul_pd(z1, z1));
    for (std::size_t k = 0; k < num_masks; ++k) {
      const std::size_t hi_par = std::popcount(i & masks[k]) & 1;
      const __m256d pat = _mm256_loadu_pd(&pattern[8 * k + 4 * hi_par]);
      const __m256d va = _mm256_loadu_pd(&vacc[4 * k]);
      _mm256_storeu_pd(&vacc[4 * k], _mm256_fmadd_pd(p, pat, va));
    }
  }
  for (std::size_t k = 0; k < num_masks; ++k)
    acc[k] +=
        vacc[4 * k] + vacc[4 * k + 1] + vacc[4 * k + 2] + vacc[4 * k + 3];
}

/// n must be a multiple of 4. Register lane l is diag_lanes_scalar's lane l:
/// hadd of the squares yields [p0, p2, p1, p3] and one cross-lane permute
/// restores index order before the explicit sub, mul and add.
QARCH_AVX2_FN void diag_lanes_avx2(const cplx* z, const double* diag,
                                   double shift, std::size_t n,
                                   double* lanes) {
  const double* d = reinterpret_cast<const double*>(z);
  const __m256d vshift = _mm256_set1_pd(shift);
  __m256d acc = _mm256_loadu_pd(lanes);
  for (std::size_t i = 0; i < n; i += 4) {
    const __m256d z01 = _mm256_loadu_pd(d + 2 * i);
    const __m256d z23 = _mm256_loadu_pd(d + 2 * i + 4);
    const __m256d p = _mm256_permute4x64_pd(
        _mm256_hadd_pd(_mm256_mul_pd(z01, z01), _mm256_mul_pd(z23, z23)),
        0xD8);
    const __m256d c = _mm256_sub_pd(_mm256_loadu_pd(diag + i), vshift);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(p, c));
  }
  _mm256_storeu_pd(lanes, acc);
}

/// n must be a multiple of 2.
QARCH_AVX2_FN void cplx_mul_runs_avx2(cplx* acc, const cplx* x,
                                      std::size_t n) {
  double* da = reinterpret_cast<double*>(acc);
  const double* dx = reinterpret_cast<const double*>(x);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a0 = _mm256_loadu_pd(da + 2 * i);
    const __m256d a1 = _mm256_loadu_pd(da + 2 * i + 4);
    const __m256d x0 = _mm256_loadu_pd(dx + 2 * i);
    const __m256d x1 = _mm256_loadu_pd(dx + 2 * i + 4);
    _mm256_storeu_pd(da + 2 * i, cmul_lane(a0, x0));
    _mm256_storeu_pd(da + 2 * i + 4, cmul_lane(a1, x1));
  }
  for (; i < n; i += 2)
    _mm256_storeu_pd(da + 2 * i, cmul_lane(_mm256_loadu_pd(da + 2 * i),
                                           _mm256_loadu_pd(dx + 2 * i)));
}

/// n must be a multiple of 2.
QARCH_AVX2_FN void cplx_add_runs_avx2(cplx* out, const cplx* a, const cplx* b,
                                      std::size_t n) {
  double* dout = reinterpret_cast<double*>(out);
  const double* da = reinterpret_cast<const double*>(a);
  const double* db = reinterpret_cast<const double*>(b);
  for (std::size_t i = 0; i < n; i += 2)
    _mm256_storeu_pd(dout + 2 * i, _mm256_add_pd(_mm256_loadu_pd(da + 2 * i),
                                                 _mm256_loadu_pd(db + 2 * i)));
}

}  // namespace

#endif  // QARCH_SIMD_X86

// -- dispatched entry points --------------------------------------------------

void scale_run(cplx* z, std::size_t n, cplx w) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{1};
    scale_run_avx2(z, vec, w);
    z += vec;
    n -= vec;
  }
#endif
  scale_run_scalar(z, n, w);
}

void mul_pattern2(cplx* z, std::size_t n, cplx w0, cplx w1) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{1};
    mul_pattern2_avx2(z, vec, w0, w1);
    z += vec;
    n -= vec;  // at most one trailing element — an even index, so w0 first
  }
#endif
  mul_pattern2_scalar(z, n, w0, w1);
}

void diag1_slice(cplx* z, std::size_t n, std::size_t base, std::size_t q,
                 cplx d0, cplx d1) {
  if (q == 0) {
    // The selector alternates every amplitude; fold the slice's parity into
    // the pattern's leading element.
    const bool odd = (base & 1) != 0;
    mul_pattern2(z, n, odd ? d1 : d0, odd ? d0 : d1);
    return;
  }
  // Bit q is constant across each aligned 2^q run; stream run by run.
  const std::size_t stride = std::size_t{1} << q;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t gi = base + i;
    const std::size_t run_end = (gi | (stride - 1)) + 1;
    const std::size_t len = std::min(n - i, run_end - gi);
    scale_run(z + i, len, ((gi >> q) & 1) ? d1 : d0);
    i += len;
  }
}

void diag2_slice(cplx* z, std::size_t n, std::size_t base, std::size_t q0,
                 std::size_t q1, const cplx* d) {
  const std::size_t qa = std::min(q0, q1);
  const auto sel_of = [&](std::size_t gi) {
    return (((gi >> q0) & 1) << 1) | ((gi >> q1) & 1);
  };
  if (qa == 0) {
    // One selector bit flips every amplitude; the other is constant across
    // each aligned 2^qb run, so each run is a strict 2-periodic pattern.
    const std::size_t qb = std::max(q0, q1);
    const std::size_t stride = std::size_t{1} << qb;
    std::size_t i = 0;
    while (i < n) {
      const std::size_t gi = base + i;
      const std::size_t run_end = (gi | (stride - 1)) + 1;
      const std::size_t len = std::min(n - i, run_end - gi);
      mul_pattern2(z + i, len, d[sel_of(gi)], d[sel_of(gi + 1)]);
      i += len;
    }
    return;
  }
  // Both bits constant across each aligned 2^qa run.
  const std::size_t stride = std::size_t{1} << qa;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t gi = base + i;
    const std::size_t run_end = (gi | (stride - 1)) + 1;
    const std::size_t len = std::min(n - i, run_end - gi);
    scale_run(z + i, len, d[sel_of(gi)]);
    i += len;
  }
}

void table_slice(cplx* z, const std::uint16_t* cls, const cplx* lut,
                 std::size_t n) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{3};
    table_slice_avx2(z, cls, lut, vec);
    z += vec;
    cls += vec;
    n -= vec;
  }
#endif
  table_slice_scalar(z, cls, lut, n);
}

namespace {

/// single_pairs in form F.
template <SingleForm F>
void single_pairs_as(cplx* a, cplx* b, std::size_t n, const cplx* m) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{1};
    single_pairs_avx2<F>(a, b, vec, m);
    a += vec;
    b += vec;
    n -= vec;
  }
#endif
  single_pairs_scalar<F>(a, b, n, m);
}

/// Pair index k walks bit-q=0 amplitudes in order; consecutive k within one
/// 2^q run map to CONTIGUOUS i0, so the walk decomposes into paired
/// contiguous segments, one dispatched call each. q >= 1.
template <SingleForm F>
void single_runs(cplx* z, std::size_t q, const cplx* m, std::size_t klo,
                 std::size_t khi) {
  const std::size_t half = std::size_t{1} << q;
  std::size_t k = klo;
  while (k < khi) {
    const std::size_t off = k & (half - 1);
    const std::size_t i0 = ((k >> q) << (q + 1)) | off;
    const std::size_t len = std::min(khi - k, half - off);
    single_pairs_as<F>(z + i0, z + i0 + half, len, m);
    k += len;
  }
}

/// single_pair_range in form F.
template <SingleForm F>
void single_pair_range_as(cplx* z, std::size_t q, const cplx* m,
                          std::size_t klo, std::size_t khi) {
  if (q == 0) {
#if QARCH_SIMD_X86
    if (active()) {
      const std::size_t kvec = klo + ((khi - klo) & ~std::size_t{1});
      single_q0_avx2<F>(z, m, klo, kvec);
      klo = kvec;
    }
#endif
    const ScalarPair<F> pair(m);
    for (std::size_t k = klo; k < khi; ++k) pair(z[2 * k], z[2 * k + 1]);
    return;
  }
#if QARCH_SIMD_X86
  if (active()) {
    // Every whole 2^q run of the range goes to one AVX2 call (one set of
    // broadcasts per slice, not per run); the partial runs at either end
    // keep the run-wise walk, since an AVX2 body may hold no scalar loop.
    const std::size_t mask = (std::size_t{1} << q) - 1;
    const std::size_t head = std::min(khi, (klo + mask) & ~mask);
    const std::size_t tail = std::max(head, khi & ~mask);
    single_runs<F>(z, q, m, klo, head);
    single_runs_avx2<F>(z, q, m, head, tail);
    single_runs<F>(z, q, m, tail, khi);
    return;
  }
#endif
  single_runs<F>(z, q, m, klo, khi);
}

}  // namespace

void single_pairs(cplx* a, cplx* b, std::size_t n, const cplx* m) {
  switch (single_form(m)) {
    case SingleForm::Real:
      return single_pairs_as<SingleForm::Real>(a, b, n, m);
    case SingleForm::RxForm:
      return single_pairs_as<SingleForm::RxForm>(a, b, n, m);
    case SingleForm::General:
      return single_pairs_as<SingleForm::General>(a, b, n, m);
  }
}

void single_pair_range(cplx* z, std::size_t q, const cplx* m, std::size_t klo,
                       std::size_t khi) {
  switch (single_form(m)) {
    case SingleForm::Real:
      return single_pair_range_as<SingleForm::Real>(z, q, m, klo, khi);
    case SingleForm::RxForm:
      return single_pair_range_as<SingleForm::RxForm>(z, q, m, klo, khi);
    case SingleForm::General:
      return single_pair_range_as<SingleForm::General>(z, q, m, klo, khi);
  }
}

void two_quad_range(cplx* z, std::size_t q0, std::size_t q1, const cplx* m,
                    std::size_t klo, std::size_t khi) {
  const std::size_t mask0 = std::size_t{1} << q0;  // high bit of the 4x4 basis
  const std::size_t mask1 = std::size_t{1} << q1;  // low bit
  const std::size_t lo_mask = std::min(mask0, mask1) - 1;
  const std::size_t mid_mask =
      (std::max(mask0, mask1) - 1) ^ lo_mask ^ std::min(mask0, mask1);
  for (std::size_t k = klo; k < khi; ++k) {
    // Spread k across the two bit holes (q0 and q1 forced to 0).
    const std::size_t low = k & lo_mask;
    const std::size_t mid = (k << 1) & mid_mask;
    const std::size_t high = (k << 2) & ~(lo_mask | mid_mask | mask0 | mask1);
    const std::size_t base = high | mid | low;
    const std::size_t i00 = base;
    const std::size_t i01 = base | mask1;
    const std::size_t i10 = base | mask0;
    const std::size_t i11 = base | mask0 | mask1;
    const cplx v0 = z[i00], v1 = z[i01], v2 = z[i10], v3 = z[i11];
    z[i00] = m[0] * v0 + m[1] * v1 + m[2] * v2 + m[3] * v3;
    z[i01] = m[4] * v0 + m[5] * v1 + m[6] * v2 + m[7] * v3;
    z[i10] = m[8] * v0 + m[9] * v1 + m[10] * v2 + m[11] * v3;
    z[i11] = m[12] * v0 + m[13] * v1 + m[14] * v2 + m[15] * v3;
  }
}

void zz_accumulate(const cplx* state, std::size_t lo, std::size_t hi,
                   const std::size_t* masks, std::size_t num_masks,
                   double* acc) {
#if QARCH_SIMD_X86
  if (active()) {
    // Scalar head/tail bring the vector body onto 4-aligned groups.
    const std::size_t alo = std::min(hi, (lo + 3) & ~std::size_t{3});
    const std::size_t ahi = std::max(alo, hi & ~std::size_t{3});
    if (alo > lo) zz_accumulate_scalar(state, lo, alo, masks, num_masks, acc);
    if (ahi > alo)
      zz_accumulate_avx2(state, alo, ahi, masks, num_masks, acc);
    if (hi > ahi) zz_accumulate_scalar(state, ahi, hi, masks, num_masks, acc);
    return;
  }
#endif
  zz_accumulate_scalar(state, lo, hi, masks, num_masks, acc);
}

double diag_expectation(const cplx* z, const double* diag, double shift,
                        std::size_t n) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t done = 0;
#if QARCH_SIMD_X86
  if (active()) {
    done = n & ~std::size_t{3};
    diag_lanes_avx2(z, diag, shift, done, lanes);
  }
#endif
  diag_lanes_scalar(z, diag, shift, done, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void cplx_mul_runs(cplx* acc, const cplx* x, std::size_t n) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{1};
    cplx_mul_runs_avx2(acc, x, vec);
    acc += vec;
    x += vec;
    n -= vec;
  }
#endif
  cplx_mul_runs_scalar(acc, x, n);
}

void cplx_add_runs(cplx* out, const cplx* a, const cplx* b, std::size_t n) {
#if QARCH_SIMD_X86
  if (active()) {
    const std::size_t vec = n & ~std::size_t{1};
    cplx_add_runs_avx2(out, a, b, vec);
    out += vec;
    a += vec;
    b += vec;
    n -= vec;
  }
#endif
  cplx_add_runs_scalar(out, a, b, n);
}

}  // namespace qarch::sim::simd

// SIMD streaming passes: randomized bit-for-bit equivalence of the AVX2/FMA
// bodies against the scalar fallback, selected through the process-wide
// switch (sim::simd::ScopedRuntime), on deliberately awkward shapes —
// lengths below the vector width, odd lengths, unaligned slice bases, slices
// that start and end inside a 2^q run, and every qubit target and pair of
// states up to 10 qubits, including q = 0 where complex lanes interleave
// inside one register and q >= 1 where one body walks every whole run. The
// Single pass runs on structured (real, rx-form) and general 2x2s over
// states holding +0 and −0 parts, and must also equal general complex
// arithmetic by value. On a scalar build (QARCH_ENABLE_AVX2=OFF), a non-AVX2
// CPU or under QARCH_SIMD=0 both paths run the same body and the tests pin
// the fallback's semantics.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "circuit/gate.hpp"
#include "common/rng.hpp"
#include "sim/simd.hpp"
#include "sim/state_utils.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using sim::simd::cplx;

std::vector<cplx> random_state(Rng& rng, std::size_t n) {
  std::vector<cplx> z(n);
  for (auto& a : z) a = cplx{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return z;
}

cplx random_phase(Rng& rng) {
  return std::polar(1.0, rng.uniform(-3.14, 3.14));
}

/// The multiplicative passes perform the same operations per amplitude in
/// both bodies, and simd.cpp is built without FP contraction or
/// auto-vectorization, so scalar and SIMD results are the same bits.
void expect_bit_equal(const std::vector<cplx>& a, const std::vector<cplx>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].real()),
              std::bit_cast<std::uint64_t>(b[i].real()))
        << what << " re @" << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].imag()),
              std::bit_cast<std::uint64_t>(b[i].imag()))
        << what << " im @" << i;
  }
}

/// Runs `body` with the process-wide switch held off, so every pass in it
/// takes the scalar body; the tests compare it against the same pass under
/// the switch as the environment set it (AVX2 where the build and CPU have
/// it). Returns what `body` returns.
template <class Body>
auto scalar(Body&& body) {
  const sim::simd::ScopedRuntime off(false);
  return body();
}

/// Sub-ranges [lo, hi) of [0, total) against runs of `run` elements: the
/// whole range, ranges that start and end inside a run, ranges shorter
/// than a vector register, and a few random ones.
std::vector<std::pair<std::size_t, std::size_t>> ranges_over(
    Rng& rng, std::size_t total, std::size_t run) {
  std::vector<std::pair<std::size_t, std::size_t>> out = {{0, total}};
  const auto add = [&](std::size_t lo, std::size_t hi) {
    if (lo < hi && hi <= total) out.push_back({lo, hi});
  };
  add(1, total - 1);
  add(1, total);
  add(0, total - 1);
  add(run / 2 + 1, total - run / 2);
  add(run + 1, 3 * run - 1);
  add(run - 1, run + 1);
  add(total / 2 + 1, total / 2 + 2);
  add(total / 2 + 1, total / 2 + 4);
  for (int r = 0; r < 4; ++r) {
    const std::size_t lo = rng.uniform_int(total);
    add(lo, lo + 1 + rng.uniform_int(total - lo));
  }
  return out;
}

// Sizes straddling every vector-width boundary: below one register (1..3),
// odd, prime, and page-ish.
constexpr std::size_t kOddSizes[] = {1, 2, 3, 5, 7, 9, 15, 17, 31, 63, 257};

/// A random state about half of whose parts are +0 or −0, so pairs often
/// hold exact zeros in both amplitudes' same part.
std::vector<cplx> zero_laden_state(Rng& rng, std::size_t n) {
  const auto part = [&] {
    switch (rng.uniform_int(4)) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      default:
        return rng.uniform(-1.0, 1.0);
    }
  };
  std::vector<cplx> z(n);
  for (auto& a : z) a = cplx{part(), part()};  // braces: left to right
  return z;
}

using Mat2 = std::array<cplx, 4>;

/// x * y rounded on its own: out of line, so a build with FMA cannot fuse
/// the product into the sum that follows it.
[[gnu::noinline]] double rounded_product(double x, double y) { return x * y; }

/// w * z in the general Single body's arithmetic:
/// (wr*zr - wi*zi, wr*zi + wi*zr), each product rounded before its sum.
cplx general_mul(cplx w, cplx z) {
  return {rounded_product(w.real(), z.real()) -
              rounded_product(w.imag(), z.imag()),
          rounded_product(w.real(), z.imag()) +
              rounded_product(w.imag(), z.real())};
}

/// The pass's result for the lower (bit q clear) or `upper` amplitude of
/// the pair (va, vb): that row of M times (va, vb), in general arithmetic.
cplx general_row(const Mat2& m, bool upper, cplx va, cplx vb) {
  return upper ? general_mul(m[2], va) + general_mul(m[3], vb)
               : general_mul(m[0], va) + general_mul(m[1], vb);
}

Mat2 gate2(circuit::GateKind kind, double theta) {
  const auto e = circuit::gate_entries(kind, theta);
  return {e[0], e[1], e[2], e[3]};
}

/// a · b, as a fused run binds its gates (b applied first).
Mat2 matmul2(const Mat2& a, const Mat2& b) {
  return {a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
          a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
}

/// The 2x2s a Single pass is tested on. rx, ry, h, rx·rx and ry·h take the
/// structured bodies (real or rx-form), among them entries equal to −0
/// (gate_entries' rx has −0 off-diagonal real parts); rx·ry, rz, p, a
/// random SU(2) and a random non-unitary 2x2 take the general body.
std::vector<std::pair<std::string, Mat2>> single_matrices(Rng& rng) {
  using circuit::GateKind;
  const Mat2 rx = gate2(GateKind::RX, 0.7);
  const Mat2 ry = gate2(GateKind::RY, -1.3);
  const Mat2 h = gate2(GateKind::H, 0.0);
  const double c = std::cos(0.35), s = std::sin(0.35);
  const Mat2 rx_pos_zeros = {cplx{c, 0.0}, cplx{0.0, -s}, cplx{0.0, -s},
                             cplx{c, 0.0}};
  const Mat2 ry_neg_zeros = {cplx{c, -0.0}, cplx{-s, -0.0}, cplx{s, -0.0},
                             cplx{c, -0.0}};
  const cplx u = std::polar(std::cos(0.4), 1.1);
  const cplx v = std::polar(std::sin(0.4), -2.3);
  const Mat2 su2 = {u, -std::conj(v), v, std::conj(u)};
  Mat2 random;
  for (auto& e : random) e = cplx{rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return {{"rx", rx},
          {"rx (+0 parts)", rx_pos_zeros},
          {"ry", ry},
          {"ry (-0 parts)", ry_neg_zeros},
          {"h", h},
          {"rx*rx", matmul2(gate2(GateKind::RX, -1.9), rx)},
          {"ry*h", matmul2(ry, h)},
          {"rx*ry", matmul2(rx, ry)},
          {"rz", gate2(GateKind::RZ, 0.9)},
          {"p", gate2(GateKind::P, 2.1)},
          {"su2", su2},
          {"random", random}};
}

TEST(Simd, ScaleRunMatchesScalarOnOddSizes) {
  Rng rng(11);
  for (const std::size_t n : kOddSizes) {
    const auto src = random_state(rng, n);
    const cplx w = random_phase(rng);
    auto a = src, b = src;
    sim::simd::scale_run(a.data(), n, w);
    scalar([&] { sim::simd::scale_run(b.data(), n, w); });
    expect_bit_equal(a, b, "scale_run");
  }
}

TEST(Simd, Pattern2MatchesScalarOnOddSizes) {
  Rng rng(12);
  for (const std::size_t n : kOddSizes) {
    const auto src = random_state(rng, n);
    const cplx w0 = random_phase(rng), w1 = random_phase(rng);
    auto a = src, b = src;
    sim::simd::mul_pattern2(a.data(), n, w0, w1);
    scalar([&] { sim::simd::mul_pattern2(b.data(), n, w0, w1); });
    expect_bit_equal(a, b, "mul_pattern2");
  }
}

TEST(Simd, CplxMulRunsMatchesScalarOnOddSizes) {
  Rng rng(13);
  for (const std::size_t n : kOddSizes) {
    const auto acc0 = random_state(rng, n);
    const auto x = random_state(rng, n);
    auto a = acc0, b = acc0;
    sim::simd::cplx_mul_runs(a.data(), x.data(), n);
    scalar([&] { sim::simd::cplx_mul_runs(b.data(), x.data(), n); });
    expect_bit_equal(a, b, "cplx_mul_runs");
  }
}

TEST(Simd, CplxAddRunsMatchesScalarOnOddSizes) {
  Rng rng(14);
  for (const std::size_t n : kOddSizes) {
    const auto x = random_state(rng, n);
    const auto y = random_state(rng, n);
    std::vector<cplx> a(n), b(n);
    sim::simd::cplx_add_runs(a.data(), x.data(), y.data(), n);
    scalar([&] {
      sim::simd::cplx_add_runs(b.data(), x.data(), y.data(), n);
    });
    expect_bit_equal(a, b, "cplx_add_runs");
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(b[i], x[i] + y[i]) << "scalar add @" << i;
  }
}

TEST(Simd, Diag1SliceMatchesScalarOnUnalignedBases) {
  Rng rng(13);
  for (const std::size_t n : kOddSizes) {
    for (const std::size_t base : {std::size_t{0}, std::size_t{1},
                                   std::size_t{6}, std::size_t{129}}) {
      for (std::size_t q = 0; q < 9; ++q) {
        const auto src = random_state(rng, n);
        const cplx d0 = random_phase(rng), d1 = random_phase(rng);
        auto a = src, b = src;
        sim::simd::diag1_slice(a.data(), n, base, q, d0, d1);
        scalar([&] {
          sim::simd::diag1_slice(b.data(), n, base, q, d0, d1);
        });
        expect_bit_equal(a, b, "diag1_slice");
      }
    }
  }
  // Every target of states up to 10 qubits, on slices that start and end
  // inside a 2^q run; amplitudes outside the slice stay untouched.
  for (std::size_t nq = 1; nq <= 10; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    for (std::size_t q = 0; q < nq; ++q) {
      const auto src = random_state(rng, dim);
      const cplx d0 = random_phase(rng), d1 = random_phase(rng);
      for (const auto& [lo, hi] : ranges_over(rng, dim, std::size_t{1} << q)) {
        auto a = src, b = src;
        sim::simd::diag1_slice(a.data() + lo, hi - lo, lo, q, d0, d1);
        scalar([&] {
          sim::simd::diag1_slice(b.data() + lo, hi - lo, lo, q, d0, d1);
        });
        const std::string what = "diag1_slice nq=" + std::to_string(nq) +
                                 " q=" + std::to_string(q) + " [" +
                                 std::to_string(lo) + "," +
                                 std::to_string(hi) + ")";
        expect_bit_equal(a, b, what);
        for (std::size_t i = 0; i < dim; ++i) {
          if (i < lo || i >= hi) {
            ASSERT_EQ(a[i], src[i]) << what << " outside @" << i;
          } else {
            const cplx want = src[i] * (((i >> q) & 1) ? d1 : d0);
            ASSERT_NEAR(std::abs(a[i] - want), 0.0, 1e-15) << what << " @" << i;
          }
        }
      }
    }
  }
}

TEST(Simd, Diag2SliceMatchesScalarOnUnalignedBases) {
  Rng rng(14);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = kOddSizes[rng.uniform_int(std::size(kOddSizes))];
    const std::size_t base = rng.uniform_int(200);
    std::size_t q0 = rng.uniform_int(8), q1 = rng.uniform_int(8);
    while (q1 == q0) q1 = rng.uniform_int(8);
    const auto src = random_state(rng, n);
    const cplx d[4] = {random_phase(rng), random_phase(rng),
                       random_phase(rng), random_phase(rng)};
    auto a = src, b = src;
    sim::simd::diag2_slice(a.data(), n, base, q0, q1, d);
    scalar([&] { sim::simd::diag2_slice(b.data(), n, base, q0, q1, d); });
    expect_bit_equal(a, b, "diag2_slice");
  }
  // Every ordered qubit pair of states up to 10 qubits, on slices that
  // start and end inside a run of the pattern's period.
  for (std::size_t nq = 2; nq <= 10; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    for (std::size_t q0 = 0; q0 < nq; ++q0) {
      for (std::size_t q1 = 0; q1 < nq; ++q1) {
        if (q0 == q1) continue;
        const auto src = random_state(rng, dim);
        const cplx d[4] = {random_phase(rng), random_phase(rng),
                           random_phase(rng), random_phase(rng)};
        const std::size_t low = std::min(q0, q1);
        const std::size_t run = std::size_t{1}
                                << (low > 0 ? low : std::max(q0, q1));
        for (const auto& [lo, hi] : ranges_over(rng, dim, run)) {
          auto a = src, b = src;
          sim::simd::diag2_slice(a.data() + lo, hi - lo, lo, q0, q1, d);
          scalar([&] {
            sim::simd::diag2_slice(b.data() + lo, hi - lo, lo, q0, q1, d);
          });
          const std::string what =
              "diag2_slice nq=" + std::to_string(nq) + " q=(" +
              std::to_string(q0) + "," + std::to_string(q1) + ") [" +
              std::to_string(lo) + "," + std::to_string(hi) + ")";
          expect_bit_equal(a, b, what);
          for (std::size_t i = 0; i < dim; ++i) {
            if (i < lo || i >= hi) {
              ASSERT_EQ(a[i], src[i]) << what << " outside @" << i;
            } else {
              const cplx want =
                  src[i] * d[(((i >> q0) & 1) << 1) | ((i >> q1) & 1)];
              ASSERT_NEAR(std::abs(a[i] - want), 0.0, 1e-15)
                  << what << " @" << i;
            }
          }
        }
      }
    }
  }
}

TEST(Simd, TableSliceMatchesScalar) {
  Rng rng(15);
  for (const std::size_t n : kOddSizes) {
    const std::size_t classes = 1 + rng.uniform_int(17);
    std::vector<cplx> lut(classes);
    for (auto& w : lut) w = random_phase(rng);
    std::vector<std::uint16_t> cls(n);
    for (auto& c : cls) c = static_cast<std::uint16_t>(rng.uniform_int(classes));
    const auto src = random_state(rng, n);
    auto a = src, b = src;
    sim::simd::table_slice(a.data(), cls.data(), lut.data(), n);
    scalar([&] {
      sim::simd::table_slice(b.data(), cls.data(), lut.data(), n);
    });
    expect_bit_equal(a, b, "table_slice");
  }
}

TEST(Simd, SinglePairsMatchesScalarOnOddSizes) {
  Rng rng(21);
  for (const auto& [name, m] : single_matrices(rng)) {
    for (const std::size_t n : kOddSizes) {
      const auto src_a = zero_laden_state(rng, n);
      const auto src_b = zero_laden_state(rng, n);
      auto a = src_a, b = src_b, sa = src_a, sb = src_b;
      sim::simd::single_pairs(a.data(), b.data(), n, m.data());
      scalar([&] {
        sim::simd::single_pairs(sa.data(), sb.data(), n, m.data());
      });
      const std::string what =
          "single_pairs " + name + " n=" + std::to_string(n);
      expect_bit_equal(a, sa, what + " (a)");
      expect_bit_equal(b, sb, what + " (b)");
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a[i], general_row(m, false, src_a[i], src_b[i]))
            << what << " a @" << i;
        ASSERT_EQ(b[i], general_row(m, true, src_a[i], src_b[i]))
            << what << " b @" << i;
      }
    }
  }
}

TEST(Simd, SinglePairRangeMatchesScalarOnAllTargets) {
  // Structured and general 2x2s on zero-laden states: the two bodies of
  // each class agree bit for bit, and every class returns the general
  // arithmetic's values (==, so an exact zero may differ in sign).
  Rng rng(16);
  const auto matrices = single_matrices(rng);
  for (std::size_t nq = 1; nq <= 10; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    const std::size_t pairs = dim / 2;
    for (std::size_t q = 0; q < nq; ++q) {
      for (const auto& [name, m] : matrices) {
        const auto src = zero_laden_state(rng, dim);
        // Pair ranges that start and end inside a run of 2^q pairs, down
        // to a single pair.
        for (const auto& [klo, khi] :
             ranges_over(rng, pairs, std::size_t{1} << q)) {
          auto a = src, b = src;
          sim::simd::single_pair_range(a.data(), q, m.data(), klo, khi);
          scalar([&] {
            sim::simd::single_pair_range(b.data(), q, m.data(), klo, khi);
          });
          const std::string what =
              "single_pair_range " + name + " nq=" + std::to_string(nq) +
              " q=" + std::to_string(q) + " [" + std::to_string(klo) + "," +
              std::to_string(khi) + ")";
          expect_bit_equal(a, b, what);
          const std::size_t half = std::size_t{1} << q;
          for (std::size_t i = 0; i < dim; ++i) {
            // Pair index of amplitude i: drop bit q.
            const std::size_t k = ((i >> (q + 1)) << q) | (i & (half - 1));
            if (k < klo || k >= khi) {
              ASSERT_EQ(a[i], src[i]) << what << " outside @" << i;
            } else {
              const std::size_t i0 = i & ~half;
              ASSERT_EQ(a[i], general_row(m, (i & half) != 0, src[i0],
                                          src[i0 | half]))
                  << what << " @" << i;
            }
          }
        }
      }
    }
  }
}

TEST(Simd, ZzAccumulateMatchesScalarWithinRounding) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t nq = 2 + rng.uniform_int(8);  // 2..9 qubits
    const std::size_t dim = std::size_t{1} << nq;
    const auto state = random_state(rng, dim);
    std::vector<std::size_t> masks;
    for (std::size_t k = 0; k < 1 + rng.uniform_int(10); ++k) {
      std::size_t u = rng.uniform_int(nq), v = rng.uniform_int(nq);
      while (v == u) v = rng.uniform_int(nq);
      masks.push_back((std::size_t{1} << u) | (std::size_t{1} << v));
    }
    // Unaligned [lo, hi) exercises the vector body's scalar head/tail.
    const std::size_t lo = rng.uniform_int(dim);
    const std::size_t hi = lo + rng.uniform_int(dim - lo + 1);
    std::vector<double> acc_simd(masks.size(), 0.0);
    std::vector<double> acc_scalar(masks.size(), 0.0);
    sim::simd::zz_accumulate(state.data(), lo, hi, masks.data(), masks.size(),
                             acc_simd.data());
    scalar([&] {
      sim::simd::zz_accumulate(state.data(), lo, hi, masks.data(),
                               masks.size(), acc_scalar.data());
    });
    // The vector body associates its partial sums differently (four running
    // lanes per mask), so equality holds to rounding, not bit-for-bit.
    for (std::size_t k = 0; k < masks.size(); ++k)
      EXPECT_NEAR(acc_simd[k], acc_scalar[k], 1e-12) << "mask " << k;
  }
}

/// A cost-like diagonal: mixed signs and magnitudes, as weighted MaxCut, MIS
/// and Ising give.
std::vector<double> random_diag(Rng& rng, std::size_t n) {
  std::vector<double> d(n);
  for (auto& x : d) x = rng.uniform(-7.5, 12.25);
  return d;
}

TEST(Simd, DiagExpectationIsBitIdenticalAcrossBodies) {
  // The lanes follow the index mod 4 in both bodies (tail included), so the
  // result is the same double on every length, not just equal to rounding.
  Rng rng(20);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(std::size_t{1} << 12);
  for (const std::size_t n : sizes) {
    const auto z = random_state(rng, n);
    const auto d = random_diag(rng, n);
    for (const double shift : {0.0, 2.375}) {
      const auto expectation = [&] {
        return sim::simd::diag_expectation(z.data(), d.data(), shift, n);
      };
      EXPECT_EQ(expectation(), scalar(expectation))
          << "n=" << n << " shift=" << shift;
    }
  }
}

TEST(Simd, KernelsMatchAcrossSimdToggleOnSmallStates) {
  // End-to-end: whole-state passes on states BELOW the vector width (1-2
  // qubits) and on every target qubit of a mid-size state.
  Rng rng(18);
  for (std::size_t nq = 1; nq <= 6; ++nq) {
    const std::size_t dim = std::size_t{1} << nq;
    for (std::size_t q = 0; q < nq; ++q) {
      const auto src = random_state(rng, dim);
      const cplx d0 = random_phase(rng), d1 = random_phase(rng);
      sim::State a = src, b = src;
      sim::simd::diag1_slice(a.data(), dim, 0, q, d0, d1);
      scalar([&] { sim::simd::diag1_slice(b.data(), dim, 0, q, d0, d1); });
      expect_bit_equal(a, b, "diag1_slice");

      for (const auto& [name, m] : single_matrices(rng)) {
        a = src;
        b = src;
        sim::simd::single_pair_range(a.data(), q, m.data(), 0, dim / 2);
        scalar([&] {
          sim::simd::single_pair_range(b.data(), q, m.data(), 0, dim / 2);
        });
        expect_bit_equal(a, b, "single_pair_range " + name);
      }
    }
    const auto src = random_state(rng, dim);
    const auto d = random_diag(rng, dim);
    const auto expectation = [&] {
      return sim::simd::diag_expectation(src.data(), d.data(), 1.5, dim);
    };
    EXPECT_EQ(expectation(), scalar(expectation))
        << "diag_expectation nq=" << nq;
  }
}

TEST(Simd, RuntimeToggleForcesScalarPath) {
  // A ScopedRuntime(false) must force active() off for its scope and give
  // the switch back after; kernels stay correct.
  const bool was = sim::simd::runtime_enabled();
  Rng rng(19);
  auto z = random_state(rng, 9);
  auto ref = z;
  const cplx w = random_phase(rng);
  {
    const sim::simd::ScopedRuntime off(false);
    EXPECT_FALSE(sim::simd::active());
    sim::simd::scale_run(z.data(), z.size(), w);
  }
  EXPECT_EQ(sim::simd::runtime_enabled(), was);
  sim::simd::scale_run(ref.data(), ref.size(), w);
  expect_bit_equal(z, ref, "scale_run under disabled runtime");
}

}  // namespace

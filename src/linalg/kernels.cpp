#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define VMAP_KERN_X86 1
#include <immintrin.h>
#else
#define VMAP_KERN_X86 0
#endif

namespace vmap::linalg::kern {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics contract: every SIMD
// kernel below must produce byte-identical results.
// ---------------------------------------------------------------------------

namespace ref {

void axpy(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void scale(std::size_t n, double a, double* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

void add(std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void sub(std::size_t n, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void pack_panel(std::size_t n, const double* r0, const double* r1,
                const double* r2, const double* r3, double* panel) {
  for (std::size_t k = 0; k < n; ++k) {
    panel[k * 4 + 0] = r0[k];
    panel[k * 4 + 1] = r1[k];
    panel[k * 4 + 2] = r2[k];
    panel[k * 4 + 3] = r3[k];
  }
}

void dot_panel(std::size_t n, const double* a, const double* panel,
               double* out4) {
  double s0 = out4[0], s1 = out4[1], s2 = out4[2], s3 = out4[3];
  for (std::size_t k = 0; k < n; ++k) {
    const double ak = a[k];
    s0 += ak * panel[k * 4 + 0];
    s1 += ak * panel[k * 4 + 1];
    s2 += ak * panel[k * 4 + 2];
    s3 += ak * panel[k * 4 + 3];
  }
  out4[0] = s0;
  out4[1] = s1;
  out4[2] = s2;
  out4[3] = s3;
}

void dot_panel2(std::size_t n, const double* a, const double* b,
                const double* panel, double* out_a, double* out_b) {
  double a0 = out_a[0], a1 = out_a[1], a2 = out_a[2], a3 = out_a[3];
  double b0 = out_b[0], b1 = out_b[1], b2 = out_b[2], b3 = out_b[3];
  for (std::size_t k = 0; k < n; ++k) {
    const double ak = a[k];
    const double bk = b[k];
    const double p0 = panel[k * 4 + 0];
    const double p1 = panel[k * 4 + 1];
    const double p2 = panel[k * 4 + 2];
    const double p3 = panel[k * 4 + 3];
    a0 += ak * p0;
    a1 += ak * p1;
    a2 += ak * p2;
    a3 += ak * p3;
    b0 += bk * p0;
    b1 += bk * p1;
    b2 += bk * p2;
    b3 += bk * p3;
  }
  out_a[0] = a0;
  out_a[1] = a1;
  out_a[2] = a2;
  out_a[3] = a3;
  out_b[0] = b0;
  out_b[1] = b1;
  out_b[2] = b2;
  out_b[3] = b3;
}

// One pass with 16 accumulators, s[r][l] for row r and lane l: each panel
// entry is loaded once for all four rows, and every chain is dot_panel's.
void dot_panel4(std::size_t n, const double* a, std::size_t lda,
                const double* panel, double* out, std::size_t ldo) {
  const double* a0 = a;
  const double* a1 = a0 + lda;
  const double* a2 = a1 + lda;
  const double* a3 = a2 + lda;
  double* o0 = out;
  double* o1 = o0 + ldo;
  double* o2 = o1 + ldo;
  double* o3 = o2 + ldo;
  double s00 = o0[0], s01 = o0[1], s02 = o0[2], s03 = o0[3];
  double s10 = o1[0], s11 = o1[1], s12 = o1[2], s13 = o1[3];
  double s20 = o2[0], s21 = o2[1], s22 = o2[2], s23 = o2[3];
  double s30 = o3[0], s31 = o3[1], s32 = o3[2], s33 = o3[3];
  for (std::size_t k = 0; k < n; ++k) {
    const double p0 = panel[k * 4 + 0];
    const double p1 = panel[k * 4 + 1];
    const double p2 = panel[k * 4 + 2];
    const double p3 = panel[k * 4 + 3];
    const double x0 = a0[k], x1 = a1[k], x2 = a2[k], x3 = a3[k];
    s00 += x0 * p0;
    s01 += x0 * p1;
    s02 += x0 * p2;
    s03 += x0 * p3;
    s10 += x1 * p0;
    s11 += x1 * p1;
    s12 += x1 * p2;
    s13 += x1 * p3;
    s20 += x2 * p0;
    s21 += x2 * p1;
    s22 += x2 * p2;
    s23 += x2 * p3;
    s30 += x3 * p0;
    s31 += x3 * p1;
    s32 += x3 * p2;
    s33 += x3 * p3;
  }
  o0[0] = s00;
  o0[1] = s01;
  o0[2] = s02;
  o0[3] = s03;
  o1[0] = s10;
  o1[1] = s11;
  o1[2] = s12;
  o1[3] = s13;
  o2[0] = s20;
  o2[1] = s21;
  o2[2] = s22;
  o2[3] = s23;
  o3[0] = s30;
  o3[1] = s31;
  o3[2] = s32;
  o3[3] = s33;
}

void rank1_update(std::size_t rows, std::size_t n, const double* delta,
                  const double* a, double* p, std::size_t ldp) {
  for (std::size_t k = 0; k < rows; ++k)
    if (delta[k] != 0.0) axpy(n, delta[k], a, p + k * ldp);
}

void diff_gram(std::size_t n, const double* const* x, double* u) {
  constexpr std::size_t d = kDiffGramDepth;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (std::size_t e = 0; e < n; ++e)
        acc += (x[i + 1][e] - x[i][e]) * (x[j + 1][e] - x[j][e]);
      u[i * d + j] = u[j * d + i] = acc;
    }
  }
}

namespace {
// The scalar sweeps, with the stride fixed at compile time when kStride > 0:
// the one-lane sweep then compiles to the plain unit-stride loop (a runtime
// stride of 1 costs it a quarter of its speed).
template <std::size_t kStride>
void forward_sweep(const Envelope& l, std::size_t stride, double* y) {
  const std::size_t s = kStride > 0 ? kStride : stride;
  for (std::size_t i = 0; i < l.n; ++i) {
    const double* li = l.values + l.start[i];
    const std::size_t len = i - l.first[i];
    const double* yf = y + l.first[i] * s;
    for (std::size_t c = 0; c < s; ++c) {
      double acc = y[i * s + c];
      for (std::size_t k = 0; k < len; ++k) acc -= li[k] * yf[k * s + c];
      y[i * s + c] = acc / l.diag[i];
    }
  }
}

template <std::size_t kStride>
void backward_sweep(const Envelope& l, std::size_t stride, double* y) {
  const std::size_t s = kStride > 0 ? kStride : stride;
  for (std::size_t i = l.n; i-- > 0;) {
    const double* li = l.values + l.start[i];
    const std::size_t len = i - l.first[i];
    double* yf = y + l.first[i] * s;
    for (std::size_t c = 0; c < s; ++c) {
      const double yi = (y[i * s + c] /= l.diag[i]);
      for (std::size_t k = 0; k < len; ++k) yf[k * s + c] -= li[k] * yi;
    }
  }
}
}  // namespace

void lane_forward(const Envelope& l, std::size_t s, double* y) {
  if (s == 1) return forward_sweep<1>(l, s, y);
  forward_sweep<0>(l, s, y);
}

void lane_backward(const Envelope& l, std::size_t s, double* y) {
  if (s == 1) return backward_sweep<1>(l, s, y);
  backward_sweep<0>(l, s, y);
}

namespace {
/// Row k of `blk` for a full panel of readings from column j0 on, into
/// tile row t: one accumulator per reading from 0.0, q ascending, then the
/// offset. The lane loops have a constant trip count and are unrolled, so
/// the accumulators live in registers and the loop's speed does not hang
/// on where the linker puts it.
void predict_panel_row(const AffineBlock& blk, std::size_t k,
                       const double* x, std::size_t ldx, std::size_t j0,
                       double* t) {
  const double* ck = blk.coef + k * blk.cols;
  double acc[kAffinePanel] = {};
  for (std::size_t q = 0; q < blk.cols; ++q) {
    const double* xq = x + blk.in_col[q] * ldx + j0;
#pragma GCC unroll 8
    for (std::size_t l = 0; l < kAffinePanel; ++l) acc[l] += ck[q] * xq[l];
  }
#pragma GCC unroll 8
  for (std::size_t l = 0; l < kAffinePanel; ++l) t[l] = acc[l] + blk.offset[k];
}
}  // namespace

void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                std::size_t n_blocks, std::size_t n, const double* x,
                std::size_t ldx, double* tile, double* worst,
                std::size_t* worst_row) {
  // Per reading: the prediction vector predict_from_sensor_readings
  // builds, held in one tile column, then OnlineMonitor's scan. Readings
  // go kAffinePanel at a time only so that the scalar fallback keeps one
  // accumulator chain per reading in flight, not one in total.
  constexpr std::size_t P = kAffinePanel;
  for (std::size_t i = 0; i < n_rows * P; ++i) tile[i] = 0.0;
  for (std::size_t j0 = 0; j0 < n; j0 += P) {
    const std::size_t live = n - j0 < P ? n - j0 : P;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const AffineBlock& blk = blocks[b];
      for (std::size_t k = 0; k < blk.rows; ++k) {
        double* t = tile + blk.out_row[k] * P;
        if (live == P) {
          predict_panel_row(blk, k, x, ldx, j0, t);
          continue;
        }
        const double* ck = blk.coef + k * blk.cols;
        double acc[P] = {};
        for (std::size_t q = 0; q < blk.cols; ++q) {
          const double* xq = x + blk.in_col[q] * ldx + j0;
          for (std::size_t l = 0; l < live; ++l) acc[l] += ck[q] * xq[l];
        }
        for (std::size_t l = 0; l < live; ++l) t[l] = acc[l] + blk.offset[k];
      }
    }
    for (std::size_t l = 0; l < live; ++l) {
      double w = tile[l];
      std::size_t row = 0;
      for (std::size_t r = 1; r < n_rows; ++r) {
        if (tile[r * P + l] < w) {
          w = tile[r * P + l];
          row = r;
        }
      }
      worst[j0 + l] = w;
      worst_row[j0 + l] = row;
    }
  }
}

double dot(std::size_t n, const double* x, const double* y) {
  // Fixed 4-lane strided order: lane l owns i ≡ l (mod 4); lanes combine
  // as (l0+l2)+(l1+l3); tail folds in sequentially. Matches the AVX2
  // horizontal-sum below exactly.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    s0 += x[i + 0] * y[i + 0];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  double s = (s0 + s2) + (s1 + s3);
  for (std::size_t i = n4; i < n; ++i) s += x[i] * y[i];
  return s;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// AVX2 kernels.
//
// Compiled with target("avx2") and deliberately WITHOUT "fma": GCC's
// _mm256_mul_pd/_mm256_add_pd lower to plain vector mul/add expressions
// which the default -ffp-contract=fast would happily fuse into a
// single-rounding FMA if the FMA ISA were enabled — and that would break
// byte-identity with the scalar (two-rounding) reference. With FMA left
// out of the target set, contraction is impossible.
// ---------------------------------------------------------------------------

#if VMAP_KERN_X86

namespace avx2 {

#define VMAP_AVX2 __attribute__((target("avx2")))

VMAP_AVX2 void axpy(std::size_t n, double a, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

VMAP_AVX2 void scale(std::size_t n, double a, double* x) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= a;
}

VMAP_AVX2 void add(std::size_t n, const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

VMAP_AVX2 void sub(std::size_t n, const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_sub_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

VMAP_AVX2 void pack_panel(std::size_t n, const double* r0, const double* r1,
                          const double* r2, const double* r3, double* panel) {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    // 4x4 transpose: rows (r0..r3)[k..k+3] -> panel[k..k+3][lane].
    const __m256d a = _mm256_loadu_pd(r0 + k);
    const __m256d b = _mm256_loadu_pd(r1 + k);
    const __m256d c = _mm256_loadu_pd(r2 + k);
    const __m256d d = _mm256_loadu_pd(r3 + k);
    const __m256d t0 = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
    const __m256d t1 = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
    const __m256d t2 = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
    const __m256d t3 = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
    _mm256_storeu_pd(panel + (k + 0) * 4, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(panel + (k + 1) * 4, _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(panel + (k + 2) * 4, _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(panel + (k + 3) * 4, _mm256_permute2f128_pd(t1, t3, 0x31));
  }
  for (; k < n; ++k) {
    panel[k * 4 + 0] = r0[k];
    panel[k * 4 + 1] = r1[k];
    panel[k * 4 + 2] = r2[k];
    panel[k * 4 + 3] = r3[k];
  }
}

VMAP_AVX2 void dot_panel(std::size_t n, const double* a, const double* panel,
                         double* out4) {
  // One accumulator per lane (= per output element), ascending k: the
  // per-element accumulation chain is exactly the scalar reference's.
  __m256d acc = _mm256_loadu_pd(out4);
  for (std::size_t k = 0; k < n; ++k) {
    const __m256d ak = _mm256_set1_pd(a[k]);
    const __m256d pk = _mm256_loadu_pd(panel + k * 4);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ak, pk));
  }
  _mm256_storeu_pd(out4, acc);
}

VMAP_AVX2 void dot_panel2(std::size_t n, const double* a, const double* b,
                          const double* panel, double* out_a, double* out_b) {
  __m256d acc_a = _mm256_loadu_pd(out_a);
  __m256d acc_b = _mm256_loadu_pd(out_b);
  for (std::size_t k = 0; k < n; ++k) {
    const __m256d pk = _mm256_loadu_pd(panel + k * 4);
    acc_a = _mm256_add_pd(acc_a, _mm256_mul_pd(_mm256_set1_pd(a[k]), pk));
    acc_b = _mm256_add_pd(acc_b, _mm256_mul_pd(_mm256_set1_pd(b[k]), pk));
  }
  _mm256_storeu_pd(out_a, acc_a);
  _mm256_storeu_pd(out_b, acc_b);
}

VMAP_AVX2 void dot_panel4(std::size_t n, const double* a, std::size_t lda,
                          const double* panel, double* out, std::size_t ldo) {
  const double* a0 = a;
  const double* a1 = a0 + lda;
  const double* a2 = a1 + lda;
  const double* a3 = a2 + lda;
  __m256d acc0 = _mm256_loadu_pd(out);
  __m256d acc1 = _mm256_loadu_pd(out + ldo);
  __m256d acc2 = _mm256_loadu_pd(out + 2 * ldo);
  __m256d acc3 = _mm256_loadu_pd(out + 3 * ldo);
  for (std::size_t k = 0; k < n; ++k) {
    const __m256d pk = _mm256_loadu_pd(panel + k * 4);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(a0[k]), pk));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(a1[k]), pk));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(a2[k]), pk));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(a3[k]), pk));
  }
  _mm256_storeu_pd(out, acc0);
  _mm256_storeu_pd(out + ldo, acc1);
  _mm256_storeu_pd(out + 2 * ldo, acc2);
  _mm256_storeu_pd(out + 3 * ldo, acc3);
}

// Row by row: every full vector of the row, then its n % 4 tail in scalar
// code. A masked tail read 2.4x slower at n = 21 (micro_solvers): with
// ldp == n, as in a working-set block, its 32-byte store overlaps the next
// row's first load, which then waits for it.
VMAP_AVX2 void rank1_update(std::size_t rows, std::size_t n,
                            const double* delta, const double* a, double* p,
                            std::size_t ldp) {
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t k = 0; k < rows; ++k) {
    const double dk = delta[k];
    if (dk == 0.0) continue;
    const __m256d d = _mm256_set1_pd(dk);
    double* pk = p + k * ldp;
    for (std::size_t j = 0; j < n4; j += 4) {
      _mm256_storeu_pd(pk + j,
                       _mm256_add_pd(_mm256_loadu_pd(pk + j),
                                     _mm256_mul_pd(d, _mm256_loadu_pd(a + j))));
    }
    for (std::size_t j = n4; j < n; ++j) pk[j] += dk * a[j];
  }
}

// Four entries at a time: the five difference vectors D_i (lane l holds
// d_i at entry e + l), D_0..D_3 transposed so that T_l = [d_0..d_3] of
// entry e + l, and then entries e .. e+3 in order, each adding
// bcast(d_i)·T_l into acc_i and d_4·d_4 into the scalar s44. The D_i go
// through a stack tile so that the 20 broadcasts are loads, not shuffles
// competing with the transpose for the shuffle port.
VMAP_AVX2 void diff_gram(std::size_t n, const double* const* x, double* u) {
  constexpr std::size_t d = kDiffGramDepth;
  static_assert(d == 5, "one vector accumulator per row, four lanes each");
  __m256d acc[d];
  for (std::size_t i = 0; i < d; ++i) acc[i] = _mm256_setzero_pd();
  double s44 = 0.0;
  std::size_t e = 0;
  for (; e + 4 <= n; e += 4) {
    alignas(32) double dv[d][4];
    __m256d prev = _mm256_loadu_pd(x[0] + e);
    __m256d dd[d];
#pragma GCC unroll 5
    for (std::size_t i = 0; i < d; ++i) {
      const __m256d next = _mm256_loadu_pd(x[i + 1] + e);
      dd[i] = _mm256_sub_pd(next, prev);
      _mm256_store_pd(dv[i], dd[i]);
      prev = next;
    }
    const __m256d t0 = _mm256_unpacklo_pd(dd[0], dd[1]);
    const __m256d t1 = _mm256_unpackhi_pd(dd[0], dd[1]);
    const __m256d t2 = _mm256_unpacklo_pd(dd[2], dd[3]);
    const __m256d t3 = _mm256_unpackhi_pd(dd[2], dd[3]);
    const __m256d tr[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                           _mm256_permute2f128_pd(t1, t3, 0x20),
                           _mm256_permute2f128_pd(t0, t2, 0x31),
                           _mm256_permute2f128_pd(t1, t3, 0x31)};
#pragma GCC unroll 4
    for (std::size_t l = 0; l < 4; ++l) {
#pragma GCC unroll 5
      for (std::size_t i = 0; i < d; ++i)
        acc[i] = _mm256_add_pd(
            acc[i], _mm256_mul_pd(_mm256_broadcast_sd(&dv[i][l]), tr[l]));
      s44 += dv[4][l] * dv[4][l];
    }
  }
  for (; e < n; ++e) {
    double di[d];
    for (std::size_t i = 0; i < d; ++i) di[i] = x[i + 1][e] - x[i][e];
    const __m256d t = _mm256_setr_pd(di[0], di[1], di[2], di[3]);
    for (std::size_t i = 0; i < d; ++i)
      acc[i] = _mm256_add_pd(acc[i], _mm256_mul_pd(_mm256_set1_pd(di[i]), t));
    s44 += di[4] * di[4];
  }
  alignas(32) double lanes[d][4];
  for (std::size_t i = 0; i < d; ++i) _mm256_store_pd(lanes[i], acc[i]);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j <= i && j < 4; ++j)
      u[i * d + j] = u[j * d + i] = lanes[i][j];
  u[d * d - 1] = s44;
}

// Envelope sweeps. Every (row, lane) pair keeps the scalar reference's
// chain — its own accumulator, k ascending in the forward sweep and rows
// descending in the backward sweep, separate mul and sub, one division —
// so the blocking below only changes how many chains share each load.
//
// Panel<W> is W interleaved lanes of one row: a double (W = 1), one vector
// (4) or two (8). sub_mul(l, y) is `this -= l * y`, lane by lane.
template <std::size_t W>
struct Panel;

template <>
struct Panel<1> {
  double v;
  VMAP_AVX2 static Panel load(const double* p) { return {*p}; }
  VMAP_AVX2 void store(double* p) const { *p = v; }
  VMAP_AVX2 void sub_mul(double l, const Panel& y) { v -= l * y.v; }
  VMAP_AVX2 void div(double d) { v /= d; }
};

template <>
struct Panel<4> {
  __m256d v;
  VMAP_AVX2 static Panel load(const double* p) { return {_mm256_loadu_pd(p)}; }
  VMAP_AVX2 void store(double* p) const { _mm256_storeu_pd(p, v); }
  VMAP_AVX2 void sub_mul(double l, const Panel& y) {
    v = _mm256_sub_pd(v, _mm256_mul_pd(_mm256_set1_pd(l), y.v));
  }
  VMAP_AVX2 void div(double d) { v = _mm256_div_pd(v, _mm256_set1_pd(d)); }
};

template <>
struct Panel<8> {
  Panel<4> lo, hi;
  VMAP_AVX2 static Panel load(const double* p) {
    return {Panel<4>::load(p), Panel<4>::load(p + 4)};
  }
  VMAP_AVX2 void store(double* p) const {
    lo.store(p);
    hi.store(p + 4);
  }
  VMAP_AVX2 void sub_mul(double l, const Panel& y) {
    lo.sub_mul(l, y.lo);
    hi.sub_mul(l, y.hi);
  }
  VMAP_AVX2 void div(double d) {
    lo.div(d);
    hi.div(d);
  }
};

// Forward substitution of rows i0 .. i0+R-1 for the W-lane panel at y.
// Row j's columns split into a private prefix [first_j, f), the range
// [f, i0) that all R rows share — where each y_k load feeds R accumulator
// chains — and the block's own earlier rows, taken in row order. With
// f = min(max_j first_j, i0) this holds for any envelope, sorted or not.
template <std::size_t W, std::size_t R>
VMAP_AVX2 inline void forward_rows(const Envelope& l, std::size_t s,
                                   std::size_t i0, double* y) {
  Panel<W> acc[R];
  const double* row[R];
  std::size_t first[R];
  std::size_t f = 0;
#pragma GCC unroll 4
  for (std::size_t j = 0; j < R; ++j) {
    first[j] = l.first[i0 + j];
    row[j] = l.values + l.start[i0 + j];  // L(i0+j, k) at row[j][k - first[j]]
    acc[j] = Panel<W>::load(y + (i0 + j) * s);
    f = std::max(f, first[j]);
  }
  f = std::min(f, i0);
#pragma GCC unroll 4
  for (std::size_t j = 0; j < R; ++j)
    for (std::size_t k = first[j]; k < f; ++k)
      acc[j].sub_mul(row[j][k - first[j]], Panel<W>::load(y + k * s));
  for (std::size_t k = f; k < i0; ++k) {
    const Panel<W> yk = Panel<W>::load(y + k * s);
#pragma GCC unroll 4
    for (std::size_t j = 0; j < R; ++j)
      acc[j].sub_mul(row[j][k - first[j]], yk);
  }
#pragma GCC unroll 4
  for (std::size_t j = 0; j < R; ++j) {
    for (std::size_t k = std::max(first[j], i0); k < i0 + j; ++k)
      acc[j].sub_mul(row[j][k - first[j]], Panel<W>::load(y + k * s));
    acc[j].div(l.diag[i0 + j]);
    acc[j].store(y + (i0 + j) * s);
  }
}

/// forward_rows over every lane panel of a stride: 8-lane panels, then a
/// 4-lane one; stride 1 is the one-lane sweep.
template <std::size_t R>
VMAP_AVX2 inline void forward_lanes(const Envelope& l, std::size_t s,
                                    std::size_t i0, double* y) {
  if (s == 1) return forward_rows<1, R>(l, 1, i0, y);
  std::size_t c = 0;
  for (; c + 8 <= s; c += 8) forward_rows<8, R>(l, s, i0, y + c);
  if (c < s) forward_rows<4, R>(l, s, i0, y + c);
}

VMAP_AVX2 void lane_forward(const Envelope& l, std::size_t s, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= l.n; i += 4) forward_lanes<4>(l, s, i, y);
  for (; i < l.n; ++i) forward_lanes<1>(l, s, i, y);
}

// Back substitution of rows i and h = i-1 for the W-lane panel at y: x_i,
// row i's update of y_h, x_h; then every y_k both rows reach gets one
// load, (y_k - L(i,k)·x_i) - L(h,k)·x_h and one store, k walking down, and
// the longer row finishes alone. Any pair of envelopes fuses this way.
template <std::size_t W>
VMAP_AVX2 inline void backward_pair(const Envelope& l, std::size_t s,
                                    std::size_t i, double* y) {
  const std::size_t h = i - 1;
  const std::size_t fa = l.first[i], fb = l.first[h];
  const double* la = l.values + l.start[i];  // L(i, k) at la[k - fa]
  const double* lb = l.values + l.start[h];  // L(h, k) at lb[k - fb]
  Panel<W> xa = Panel<W>::load(y + i * s);
  xa.div(l.diag[i]);
  xa.store(y + i * s);
  Panel<W> xb = Panel<W>::load(y + h * s);
  if (fa < i) xb.sub_mul(la[h - fa], xa);
  xb.div(l.diag[h]);
  xb.store(y + h * s);
  const std::size_t ea = std::min(fa, h);  // row i still owes [ea, h)
  const std::size_t mid = std::max(ea, fb);
  for (std::size_t k = h; k-- > mid;) {
    Panel<W> yk = Panel<W>::load(y + k * s);
    yk.sub_mul(la[k - fa], xa);
    yk.sub_mul(lb[k - fb], xb);
    yk.store(y + k * s);
  }
  const bool a_lower = ea < fb;  // which row finishes alone
  const double* lr = a_lower ? la : lb;
  const std::size_t fr = a_lower ? fa : fb;
  const Panel<W> xr = a_lower ? xa : xb;
  for (std::size_t k = mid; k-- > std::min(ea, fb);) {
    Panel<W> yk = Panel<W>::load(y + k * s);
    yk.sub_mul(lr[k - fr], xr);
    yk.store(y + k * s);
  }
}

// One-lane back substitution: each y_k receives exactly one update per
// row, so the row pairs above vectorize across k instead of lanes.
// y[t] = (y[t] - a[t]·xa) - b[t]·xb for t < len, t walking down.
VMAP_AVX2 inline void sub2_down(std::size_t len, const double* a, double xa,
                                const double* b, double xb, double* y) {
  const __m256d va = _mm256_set1_pd(xa), vb = _mm256_set1_pd(xb);
  std::size_t t = len;
  for (; t >= 4; t -= 4) {
    __m256d v = _mm256_loadu_pd(y + t - 4);
    v = _mm256_sub_pd(v, _mm256_mul_pd(_mm256_loadu_pd(a + t - 4), va));
    v = _mm256_sub_pd(v, _mm256_mul_pd(_mm256_loadu_pd(b + t - 4), vb));
    _mm256_storeu_pd(y + t - 4, v);
  }
  while (t-- > 0) y[t] = (y[t] - a[t] * xa) - b[t] * xb;
}

/// y[t] -= a[t]·x for t < len, t walking down.
VMAP_AVX2 inline void sub1_down(std::size_t len, const double* a, double x,
                                double* y) {
  const __m256d vx = _mm256_set1_pd(x);
  std::size_t t = len;
  for (; t >= 4; t -= 4) {
    const __m256d v = _mm256_loadu_pd(y + t - 4);
    _mm256_storeu_pd(
        y + t - 4,
        _mm256_sub_pd(v, _mm256_mul_pd(_mm256_loadu_pd(a + t - 4), vx)));
  }
  while (t-- > 0) y[t] -= a[t] * x;
}

VMAP_AVX2 void backward_one(const Envelope& l, double* y) {
  std::size_t i = l.n;
  for (; i >= 2; i -= 2) {
    const std::size_t a = i - 1, h = i - 2;
    const std::size_t fa = l.first[a], fb = l.first[h];
    const double* la = l.values + l.start[a];
    const double* lb = l.values + l.start[h];
    const double xa = (y[a] /= l.diag[a]);
    if (fa < a) y[h] -= la[h - fa] * xa;
    const double xb = (y[h] /= l.diag[h]);
    const std::size_t ea = std::min(fa, h);
    const std::size_t mid = std::max(ea, fb);
    if (mid < h)  // then row a reaches mid too: fa <= mid
      sub2_down(h - mid, la + (mid - fa), xa, lb + (mid - fb), xb, y + mid);
    if (ea < fb) {  // row a reaches lower, and ea == fa
      sub1_down(mid - ea, la, xa, y + ea);
    } else {
      sub1_down(mid - fb, lb, xb, y + fb);
    }
  }
  if (i == 1) y[0] /= l.diag[0];  // row 0's envelope is empty
}

VMAP_AVX2 void lane_backward(const Envelope& l, std::size_t s, double* y) {
  if (s == 1) return backward_one(l, y);
  std::size_t i = l.n;
  for (; i >= 2; i -= 2) {
    std::size_t c = 0;
    for (; c + 8 <= s; c += 8) backward_pair<8>(l, s, i - 1, y + c);
    if (c < s) backward_pair<4>(l, s, i - 1, y + c);
  }
  if (i == 1) {
    std::size_t c = 0;
    for (; c + 4 <= s; c += 4) {
      Panel<4> x = Panel<4>::load(y + c);
      x.div(l.diag[0]);
      x.store(y + c);
    }
  }
}

/// One predicted row of a panel: accumulators plus the row's offset.
VMAP_AVX2 inline void store_tile_row(double* t, __m256d lo, __m256d hi,
                                     double offset) {
  const __m256d off = _mm256_set1_pd(offset);
  _mm256_storeu_pd(t, _mm256_add_pd(lo, off));
  _mm256_storeu_pd(t + 4, _mm256_add_pd(hi, off));
}

// Fused predict-and-min over panels of kAffinePanel = 8 readings (two
// vectors of 4). A partial last panel reads its live lanes through a mask,
// so x is never read past column n; the dead lanes compute from zeros and
// are never reported.
VMAP_AVX2 void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                          std::size_t n_blocks, std::size_t n, const double* x,
                          std::size_t ldx, double* tile, double* worst,
                          std::size_t* worst_row) {
  constexpr std::size_t P = kAffinePanel;
  if (n == 0) return;
  // Rows no block writes predict 0.0; every other row is rewritten by
  // every panel, in block order.
  for (std::size_t i = 0; i < n_rows * P; ++i) tile[i] = 0.0;
  const __m256i lane_lo = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i lane_hi = _mm256_setr_epi64x(4, 5, 6, 7);
  for (std::size_t j0 = 0; j0 < n; j0 += P) {
    const std::size_t live = n - j0 < P ? n - j0 : P;
    const __m256i count = _mm256_set1_epi64x(static_cast<long long>(live));
    const __m256i m0 = _mm256_cmpgt_epi64(count, lane_lo);
    const __m256i m1 = _mm256_cmpgt_epi64(count, lane_hi);
    const double* xp = x + j0;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const AffineBlock& blk = blocks[b];
      const std::size_t cols = blk.cols;
      std::size_t k = 0;
      // 4 rows x 8 readings: eight independent accumulators per q step.
      for (; k + 4 <= blk.rows; k += 4) {
        const double* c0 = blk.coef + k * cols;
        const double* c1 = c0 + cols;
        const double* c2 = c1 + cols;
        const double* c3 = c2 + cols;
        __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
        __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
        __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
        __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
        for (std::size_t q = 0; q < cols; ++q) {
          const double* xq = xp + blk.in_col[q] * ldx;
          const __m256d x0 = _mm256_maskload_pd(xq, m0);
          const __m256d x1 = _mm256_maskload_pd(xq + 4, m1);
          __m256d c = _mm256_set1_pd(c0[q]);
          a00 = _mm256_add_pd(a00, _mm256_mul_pd(c, x0));
          a01 = _mm256_add_pd(a01, _mm256_mul_pd(c, x1));
          c = _mm256_set1_pd(c1[q]);
          a10 = _mm256_add_pd(a10, _mm256_mul_pd(c, x0));
          a11 = _mm256_add_pd(a11, _mm256_mul_pd(c, x1));
          c = _mm256_set1_pd(c2[q]);
          a20 = _mm256_add_pd(a20, _mm256_mul_pd(c, x0));
          a21 = _mm256_add_pd(a21, _mm256_mul_pd(c, x1));
          c = _mm256_set1_pd(c3[q]);
          a30 = _mm256_add_pd(a30, _mm256_mul_pd(c, x0));
          a31 = _mm256_add_pd(a31, _mm256_mul_pd(c, x1));
        }
        store_tile_row(tile + blk.out_row[k] * P, a00, a01, blk.offset[k]);
        store_tile_row(tile + blk.out_row[k + 1] * P, a10, a11,
                       blk.offset[k + 1]);
        store_tile_row(tile + blk.out_row[k + 2] * P, a20, a21,
                       blk.offset[k + 2]);
        store_tile_row(tile + blk.out_row[k + 3] * P, a30, a31,
                       blk.offset[k + 3]);
      }
      for (; k < blk.rows; ++k) {
        const double* ck = blk.coef + k * cols;
        __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
        for (std::size_t q = 0; q < cols; ++q) {
          const double* xq = xp + blk.in_col[q] * ldx;
          const __m256d c = _mm256_set1_pd(ck[q]);
          a0 = _mm256_add_pd(a0,
                             _mm256_mul_pd(c, _mm256_maskload_pd(xq, m0)));
          a1 = _mm256_add_pd(a1,
                             _mm256_mul_pd(c, _mm256_maskload_pd(xq + 4, m1)));
        }
        store_tile_row(tile + blk.out_row[k] * P, a0, a1, blk.offset[k]);
      }
    }
    // Ordered scan: a lane takes row r only when its value compares
    // strictly below (_CMP_LT_OQ: false on NaN) — the scalar `<`.
    __m256d w0 = _mm256_loadu_pd(tile), w1 = _mm256_loadu_pd(tile + 4);
    __m256d r0 = _mm256_setzero_pd(), r1 = _mm256_setzero_pd();
    for (std::size_t r = 1; r < n_rows; ++r) {
      const __m256d v0 = _mm256_loadu_pd(tile + r * P);
      const __m256d v1 = _mm256_loadu_pd(tile + r * P + 4);
      const __m256d row = _mm256_set1_pd(static_cast<double>(r));
      const __m256d lt0 = _mm256_cmp_pd(v0, w0, _CMP_LT_OQ);
      const __m256d lt1 = _mm256_cmp_pd(v1, w1, _CMP_LT_OQ);
      w0 = _mm256_blendv_pd(w0, v0, lt0);
      w1 = _mm256_blendv_pd(w1, v1, lt1);
      r0 = _mm256_blendv_pd(r0, row, lt0);
      r1 = _mm256_blendv_pd(r1, row, lt1);
    }
    double wv[P], rv[P];
    _mm256_storeu_pd(wv, w0);
    _mm256_storeu_pd(wv + 4, w1);
    _mm256_storeu_pd(rv, r0);
    _mm256_storeu_pd(rv + 4, r1);
    for (std::size_t l = 0; l < live; ++l) {
      worst[j0 + l] = wv[l];
      worst_row[j0 + l] = static_cast<std::size_t>(rv[l]);
    }
  }
}

VMAP_AVX2 double dot(std::size_t n, const double* x, const double* y) {
  __m256d acc = _mm256_setzero_pd();
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  // Horizontal sum: lo+hi gives (l0+l2, l1+l3); then (l0+l2)+(l1+l3) —
  // the exact combine order ref::dot mirrors.
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (std::size_t i = n4; i < n; ++i) s += x[i] * y[i];
  return s;
}

#undef VMAP_AVX2

}  // namespace avx2

// ---------------------------------------------------------------------------
// AVX-512 fused predict-and-min.
//
// AVX-512F has fused multiply-add encodings of its own, so target("avx512f")
// lets GCC contract a plain _mm512_add_pd(_mm512_mul_pd(...)) into one
// vfmadd231pd. Every mul and add below is written with the explicit-rounding
// intrinsics instead: they compile to vmulpd and vaddpd {rn-sae}, two
// roundings to nearest, exactly the scalar code's arithmetic. Only the
// reading panels widen: kAffinePanel = 8 readings fill one zmm.
// ---------------------------------------------------------------------------

namespace avx512 {

#define VMAP_AVX512 __attribute__((target("avx512f")))

constexpr int kNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
constexpr __mmask8 kAll = 0xFF;

// The merge-masked forms with every lane selected compile to the same
// unmasked instruction; unlike the unmasked intrinsics, whose undefined
// merge source GCC 12 reports under -Wuninitialized, their source is `a`.
VMAP_AVX512 inline __m512d mul(__m512d a, __m512d b) {
  return _mm512_mask_mul_round_pd(a, kAll, a, b, kNearest);
}

VMAP_AVX512 inline __m512d add(__m512d a, __m512d b) {
  return _mm512_mask_add_round_pd(a, kAll, a, b, kNearest);
}

// Rows k .. k+R-1 of `blk` for the panel of readings at xp: one accumulator
// per row from 0.0, q ascending, each x_q load feeding R add chains; the
// dead lanes of a partial panel load zeros and are never reported.
template <std::size_t R>
VMAP_AVX512 inline void predict_rows(const AffineBlock& blk, std::size_t k,
                                     const double* xp, std::size_t ldx,
                                     __mmask8 live, double* tile) {
  const std::size_t cols = blk.cols;
  const double* c = blk.coef + k * cols;
  __m512d acc[R];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < R; ++j) acc[j] = _mm512_setzero_pd();
  for (std::size_t q = 0; q < cols; ++q) {
    const __m512d xq = _mm512_maskz_loadu_pd(live, xp + blk.in_col[q] * ldx);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < R; ++j)
      acc[j] = add(acc[j], mul(_mm512_set1_pd(c[j * cols + q]), xq));
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < R; ++j)
    _mm512_storeu_pd(tile + blk.out_row[k + j] * kAffinePanel,
                     add(acc[j], _mm512_set1_pd(blk.offset[k + j])));
}

VMAP_AVX512 void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                            std::size_t n_blocks, std::size_t n,
                            const double* x, std::size_t ldx, double* tile,
                            double* worst, std::size_t* worst_row) {
  constexpr std::size_t P = kAffinePanel;
  if (n == 0) return;
  // Rows no block writes predict 0.0; every other row is rewritten by
  // every panel, in block order.
  for (std::size_t r = 0; r < n_rows; ++r)
    _mm512_storeu_pd(tile + r * P, _mm512_setzero_pd());
  for (std::size_t j0 = 0; j0 < n; j0 += P) {
    const std::size_t live = n - j0 < P ? n - j0 : P;
    const __mmask8 mask = static_cast<__mmask8>((1u << live) - 1);
    const double* xp = x + j0;
    for (std::size_t b = 0; b < n_blocks; ++b) {
      const AffineBlock& blk = blocks[b];
      std::size_t k = 0;
      for (; k + 8 <= blk.rows; k += 8)
        predict_rows<8>(blk, k, xp, ldx, mask, tile);
      if (k + 4 <= blk.rows) {
        predict_rows<4>(blk, k, xp, ldx, mask, tile);
        k += 4;
      }
      if (k + 2 <= blk.rows) {
        predict_rows<2>(blk, k, xp, ldx, mask, tile);
        k += 2;
      }
      if (k < blk.rows) predict_rows<1>(blk, k, xp, ldx, mask, tile);
    }
    // Ordered scan: a lane takes row r only when its value compares
    // strictly below (_CMP_LT_OQ: false on NaN) — the scalar `<`.
    __m512d w = _mm512_loadu_pd(tile);
    __m512i row = _mm512_setzero_si512();
    for (std::size_t r = 1; r < n_rows; ++r) {
      const __m512d v = _mm512_loadu_pd(tile + r * P);
      const __mmask8 lt = _mm512_cmp_pd_mask(v, w, _CMP_LT_OQ);
      w = _mm512_mask_mov_pd(w, lt, v);
      row = _mm512_mask_mov_epi64(row, lt,
                                  _mm512_set1_epi64(static_cast<long long>(r)));
    }
    double wv[P];
    long long rv[P];
    _mm512_storeu_pd(wv, w);
    _mm512_storeu_si512(rv, row);
    for (std::size_t l = 0; l < live; ++l) {
      worst[j0 + l] = wv[l];
      worst_row[j0 + l] = static_cast<std::size_t>(rv[l]);
    }
  }
}

#undef VMAP_AVX512

}  // namespace avx512

#endif  // VMAP_KERN_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

SimdLevel detect_max_level() {
#if VMAP_KERN_X86
  if (__builtin_cpu_supports("avx2") == 0) return SimdLevel::kScalar;
  if (__builtin_cpu_supports("avx512f") == 0) return SimdLevel::kAvx2;
  return SimdLevel::kAvx512;
#else
  return SimdLevel::kScalar;
#endif
}

bool env_allows_simd() {
  const char* v = std::getenv("VMAP_SIMD");
  if (v == nullptr || *v == '\0') return true;
  return std::strcmp(v, "0") != 0;
}

std::atomic<SimdLevel>& level_flag() {
  static std::atomic<SimdLevel> level{
      env_allows_simd() ? max_simd_level() : SimdLevel::kScalar};
  return level;
}

inline SimdLevel active_level() {
  return level_flag().load(std::memory_order_relaxed);
}

inline bool use_simd() { return active_level() != SimdLevel::kScalar; }

}  // namespace

SimdLevel max_simd_level() {
  static const SimdLevel max = detect_max_level();
  return max;
}

SimdLevel simd_level() { return active_level(); }

void set_simd_level(SimdLevel level) {
  level_flag().store(std::min(level, max_simd_level()),
                     std::memory_order_relaxed);
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

#if VMAP_KERN_X86
#define VMAP_KERN_DISPATCH(call) \
  if (use_simd()) return avx2::call; \
  return ref::call
#else
#define VMAP_KERN_DISPATCH(call) return ref::call
#endif

void axpy(std::size_t n, double a, const double* x, double* y) {
  VMAP_KERN_DISPATCH(axpy(n, a, x, y));
}

void scale(std::size_t n, double a, double* x) {
  VMAP_KERN_DISPATCH(scale(n, a, x));
}

void add(std::size_t n, const double* x, double* y) {
  VMAP_KERN_DISPATCH(add(n, x, y));
}

void sub(std::size_t n, const double* x, double* y) {
  VMAP_KERN_DISPATCH(sub(n, x, y));
}

void pack_panel(std::size_t n, const double* r0, const double* r1,
                const double* r2, const double* r3, double* panel) {
  VMAP_KERN_DISPATCH(pack_panel(n, r0, r1, r2, r3, panel));
}

void dot_panel(std::size_t n, const double* a, const double* panel,
               double* out4) {
  VMAP_KERN_DISPATCH(dot_panel(n, a, panel, out4));
}

void dot_panel2(std::size_t n, const double* a, const double* b,
                const double* panel, double* out_a, double* out_b) {
  VMAP_KERN_DISPATCH(dot_panel2(n, a, b, panel, out_a, out_b));
}

void dot_panel4(std::size_t n, const double* a, std::size_t lda,
                const double* panel, double* out, std::size_t ldo) {
  VMAP_KERN_DISPATCH(dot_panel4(n, a, lda, panel, out, ldo));
}

void rank1_update(std::size_t rows, std::size_t n, const double* delta,
                  const double* a, double* p, std::size_t ldp) {
  VMAP_KERN_DISPATCH(rank1_update(rows, n, delta, a, p, ldp));
}

void diff_gram(std::size_t n, const double* const* x, double* u) {
  VMAP_KERN_DISPATCH(diff_gram(n, x, u));
}

#if VMAP_KERN_X86
#define VMAP_LANE_DISPATCH(call)                                         \
  if ((s == 1 || s % kPanelWidth == 0) && use_simd()) return avx2::call; \
  return ref::call
#else
#define VMAP_LANE_DISPATCH(call) return ref::call
#endif

void lane_forward(const Envelope& l, std::size_t s, double* y) {
  VMAP_LANE_DISPATCH(lane_forward(l, s, y));
}

void lane_backward(const Envelope& l, std::size_t s, double* y) {
  VMAP_LANE_DISPATCH(lane_backward(l, s, y));
}

#undef VMAP_LANE_DISPATCH

void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                std::size_t n_blocks, std::size_t n, const double* x,
                std::size_t ldx, double* tile, double* worst,
                std::size_t* worst_row) {
#if VMAP_KERN_X86
  if (active_level() == SimdLevel::kAvx512)
    return avx512::affine_min(n_rows, blocks, n_blocks, n, x, ldx, tile,
                              worst, worst_row);
#endif
  VMAP_KERN_DISPATCH(affine_min(n_rows, blocks, n_blocks, n, x, ldx, tile,
                                worst, worst_row));
}

double dot(std::size_t n, const double* x, const double* y) {
  VMAP_KERN_DISPATCH(dot(n, x, y));
}

#undef VMAP_KERN_DISPATCH

}  // namespace vmap::linalg::kern

#pragma once
// SIMD microkernel layer: the raw-pointer primitives under the dense
// kernels (matmul family, Gram products, vector updates), the group-lasso
// solve's row update and Anderson Gram, the skyline solver's multi-RHS
// substitution, and the serving layer's fused predict-and-min decision
// kernel.
//
// Dispatch: one level, chosen once at startup and capped at what the CPU
// reports — kAvx512 when it has AVX-512F, kAvx2 when it has AVX2, else
// kScalar. The VMAP_SIMD environment variable set to 0 starts it at
// kScalar (the kill switch, mirroring VMAP_METRICS); set_simd_level() lets
// tests and benches move it at runtime. Every kernel has an AVX2
// implementation and a scalar fallback; only affine_min has an AVX-512
// body as well, and every other kernel runs its AVX2 body at kAvx512.
//
// Bit-identity contract: the SIMD kernels vectorize across *independent
// output elements* — each element keeps its own single accumulator,
// walking k in ascending order, and multiplies are never fused into FMAs
// (separate mul + add, two roundings, exactly like the scalar code). So
// every kernel here is bit-identical to its scalar fallback at every
// level, and the dense kernels built on them stay bit-identical to
// matmul_reference at any thread count and any level. The only kernel
// with a *new* accumulation order is dot(), which uses a fixed 4-lane
// strided order (documented below) — it is bit-identical scalar-vs-AVX2
// but NOT to the legacy sequential linalg::dot, so the solver paths keep
// the sequential version and it serves new code and the kernel benches.
//
// No FMA: the AVX2 bodies are compiled for "avx2" without "fma", so the
// compiler has no fused instruction to contract a mul and an add into.
// AVX-512F carries its own FMA encodings, and GCC contracts a plain
// _mm512_add_pd(_mm512_mul_pd(...)) into vfmadd231pd, so the AVX-512 body
// writes every mul and add with the explicit-rounding intrinsics
// (_mm512_mask_mul_round_pd / _mm512_mask_add_round_pd with every lane
// selected, round-to-nearest with exceptions suppressed). Those compile to
// separate vmulpd and vaddpd {rn-sae}, with the scalar code's two
// roundings. tools/check_no_fma.sh fails CI if any fused multiply-add
// appears in the linalg library.
//
// kern::ref mirrors every kernel with a plain scalar implementation that
// ignores the dispatch switch — the identity oracle the tests compare
// against byte-for-byte.

#include <cstddef>

namespace vmap::linalg::kern {

/// Kernel dispatch levels, each needing more of the CPU than the last.
enum class SimdLevel { kScalar, kAvx2, kAvx512 };

/// The highest level this build and CPU can run.
SimdLevel max_simd_level();
/// The level the dispatcher currently targets.
SimdLevel simd_level();
/// Moves the dispatch to `level`, capped at max_simd_level(). Not
/// thread-safe against in-flight kernels; call from a single thread
/// between workloads.
void set_simd_level(SimdLevel level);
/// "scalar", "avx2" or "avx512".
const char* simd_level_name(SimdLevel level);

// --- element-wise kernels (bit-identical to the scalar loops) -----------

/// y[i] += a * x[i]
void axpy(std::size_t n, double a, const double* x, double* y);
/// x[i] *= a
void scale(std::size_t n, double a, double* x);
/// y[i] += x[i]
void add(std::size_t n, const double* x, double* y);
/// y[i] -= x[i]
void sub(std::size_t n, const double* x, double* y);

// --- packed A·Bᵀ microkernel --------------------------------------------
//
// The dot-product family (Gram matrices, A·Bᵀ, batched predict) vectorizes
// across 4 output columns at once: pack_panel() interleaves 4 rows of B
// into panel[k*4 + lane], then dot_panel() keeps one accumulator per lane
// and walks k ascending — each output element sees exactly the sequential
// single-accumulator order, so results match the scalar dot per element.
// Each accumulator starts from the value already in its output, so a dot
// over k split into consecutive column ranges, one call per range, runs
// the same chain as one call over all of k; from a zeroed output it is the
// plain dot.

inline constexpr std::size_t kPanelWidth = 4;

/// panel[k*4 + l] = r_l[k] for l in 0..3; panel must hold 4*n doubles.
void pack_panel(std::size_t n, const double* r0, const double* r1,
                const double* r2, const double* r3, double* panel);
/// out4[l] += sum_k a[k] * panel[k*4 + l] (ascending k, one accumulator
/// per lane, starting from out4[l]).
void dot_panel(std::size_t n, const double* a, const double* panel,
               double* out4);
/// Two A rows against one panel in a single sweep (panel loaded once per
/// k): out_a[l], out_b[l] as dot_panel of a and b respectively.
void dot_panel2(std::size_t n, const double* a, const double* b,
                const double* panel, double* out_a, double* out_b);
/// Four A rows against one panel: row r (r < 4) starts at a + r*lda, and
/// out[r*ldo + l] is dot_panel of that row. Four accumulator chains share
/// each panel load, so the sweep is bound by add throughput, not by one
/// chain's add latency as dot_panel2's two chains are.
void dot_panel4(std::size_t n, const double* a, std::size_t lda,
                const double* panel, double* out, std::size_t ldo);

// --- masked rank-1 row update -------------------------------------------
//
// The group-lasso update of P = βA after group m's coefficients move by
// δ: every row k of P with δ_k ≠ 0 takes one axpy of A's row m, in one
// call. Each element keeps one mul and one add, so the result is
// kern::axpy's per row; a row whose δ_k is zero (either sign) is not
// touched, so a −0.0 in it stays −0.0.

/// p[k*ldp + j] += delta[k] * a[j] for j < n, for every k < rows with
/// delta[k] != 0.
void rank1_update(std::size_t rows, std::size_t n, const double* delta,
                  const double* a, double* p, std::size_t ldp);

// --- difference Gram of Anderson snapshots ------------------------------
//
// Anderson extrapolation needs UᵀU for the difference matrix U whose
// column i is x_{i+1} − x_i, over kDiffGramDepth + 1 snapshots. Entry
// (i, j) sums (x_{i+1}[e] − x_i[e])·(x_{j+1}[e] − x_j[e]) from 0.0 with e
// ascending, as a separate product and add per e — the plain loop's
// chain. The AVX2 body runs all 15 lower-triangle chains in one pass over
// e: five vector accumulators acc_i += bcast(d_i)·[d_0..d_3] and one
// scalar for (4, 4); a lane (i, j) with j > i repeats (j, i) and is not
// read.

inline constexpr std::size_t kDiffGramDepth = 5;

/// x[0..kDiffGramDepth] point at the snapshots, n doubles each; writes
/// the symmetric kDiffGramDepth² matrix UᵀU to u, row-major.
void diff_gram(std::size_t n, const double* const* x, double* u);

// --- lane-interleaved envelope substitution -----------------------------
//
// Triangular solves with a lower envelope (skyline) factor over s
// right-hand sides ("lanes") kept interleaved: entry i of lane c sits at
// y[i*s + c], so every factor entry is loaded once for s independent
// chains. Each (row, lane) pair is an independent output element under
// the contract above — its own accumulator, k ascending in the forward
// sweep and rows descending in the backward sweep, separate mul and sub,
// one IEEE division by the pivot — so every lane is bit-identical to the
// one-lane (s == 1) sweep and to kern::ref.
//
// The AVX2 sweeps are register-blocked over rows as well as lanes:
//  - lane_forward takes rows four at a time. Each row's columns split into
//    a private prefix, the range all four rows share (each y_k load there
//    feeds four accumulator chains), and the block's own earlier rows.
//    The shared range starts at the largest `first` of the block, so a
//    block whose `first` columns are not nondecreasing still takes the
//    blocked path, with longer private prefixes; no RCM layout is assumed.
//  - lane_backward fuses rows i and i-1: each y_k both reach gets one
//    load, (y_k - L(i,k)·x_i) - L(i-1,k)·x_{i-1} and one store, k walking
//    down; the longer row finishes alone.
// Strides that are a multiple of kPanelWidth run in 8- and 4-lane panels
// (a 5-lane solve is padded to one 8-lane panel by its caller). One lane
// has AVX2 paths too: the forward sweep keeps four rows' scalar chains in
// flight, and the backward sweep vectorizes across k, since each y_k
// receives exactly one update per row. Other strides take the scalar
// sweep.

/// A borrowed lower-triangular envelope factor L of order n: row i holds
/// L(i, j) for j in [first[i], i) at values[start[i] + j - first[i]], and
/// its diagonal at diag[i].
struct Envelope {
  std::size_t n = 0;
  const std::size_t* first = nullptr;
  const std::size_t* start = nullptr;
  const double* values = nullptr;
  const double* diag = nullptr;
};

/// Forward substitution L z = y in place, every lane:
/// y_i = (y_i - sum_{j<i} L(i,j) y_j) / L(i,i), j ascending.
void lane_forward(const Envelope& l, std::size_t s, double* y);
/// Back substitution L^T x = y in place, every lane, column-oriented:
/// for i descending, y_i /= L(i,i), then y_j -= L(i,j) y_i for j < i.
void lane_backward(const Envelope& l, std::size_t s, double* y);

// --- fused affine predict + ordered minimum -----------------------------
//
// The serving layer's decision kernel. A model is a list of affine blocks
// (one per core): block b reads the reading entries in_col[0..cols), and
// its output row k lands on row out_row[k] as
// (sum_q coef[k*cols + q] * x_q) + offset[k] — one accumulator from 0.0,
// q ascending, separate mul and add, which is linalg::matvec's order plus
// the intercept. A later block's write to a row replaces an earlier one,
// and a row no block writes predicts 0.0. Per reading, the kernel returns
// the first strict minimum over rows 0..n_rows in row order (`<`, which is
// false on NaN, so a NaN never replaces the running minimum) and its row,
// without materializing a prediction vector per reading.
//
// The SIMD paths take kAffinePanel readings at a time. The AVX2 path
// register-blocks 4 rows x 8 readings (two vectors per row, 8 independent
// add chains), the AVX-512 path 8 rows x 8 readings (one vector per row);
// both store the rows into an n_rows x kAffinePanel tile in row order,
// then scan the tile with ordered compares. Each (row, reading) keeps its
// own accumulator, so every prediction, and with it every minimum and
// row, is the scalar one.

inline constexpr std::size_t kAffinePanel = 8;

struct AffineBlock {
  std::size_t rows = 0;                  ///< output rows
  std::size_t cols = 0;                  ///< inputs per output row
  const double* coef = nullptr;          ///< rows x cols, row-major
  const double* offset = nullptr;        ///< rows
  const std::size_t* out_row = nullptr;  ///< rows entries, each < n_rows
  const std::size_t* in_col = nullptr;   ///< cols reading entries
};

/// Reading j (j < n <= ldx) is column j of x: its entry c sits at
/// x[c * ldx + j]. Writes worst[j] and worst_row[j] for every reading.
/// `tile` is scratch of n_rows * kAffinePanel doubles; n_rows >= 1.
void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                std::size_t n_blocks, std::size_t n, const double* x,
                std::size_t ldx, double* tile, double* worst,
                std::size_t* worst_row);

// --- strided-order reductions -------------------------------------------
//
// Fixed 4-lane strided accumulation: lane l sums elements l, l+4, l+8, …;
// the lanes are combined as (l0+l2)+(l1+l3) and the tail (n % 4 elements)
// is folded in sequentially afterwards. Deterministic and shape-only —
// but a DIFFERENT order from the legacy sequential linalg::dot, so do not
// swap these into a path whose scalars are gated byte-exactly without
// refreshing baselines.

/// sum_i x[i]*y[i] in the strided-lane order above.
double dot(std::size_t n, const double* x, const double* y);

// --- scalar oracles ------------------------------------------------------

namespace ref {
void axpy(std::size_t n, double a, const double* x, double* y);
void scale(std::size_t n, double a, double* x);
void add(std::size_t n, const double* x, double* y);
void sub(std::size_t n, const double* x, double* y);
void pack_panel(std::size_t n, const double* r0, const double* r1,
                const double* r2, const double* r3, double* panel);
void dot_panel(std::size_t n, const double* a, const double* panel,
               double* out4);
void dot_panel2(std::size_t n, const double* a, const double* b,
                const double* panel, double* out_a, double* out_b);
void dot_panel4(std::size_t n, const double* a, std::size_t lda,
                const double* panel, double* out, std::size_t ldo);
void rank1_update(std::size_t rows, std::size_t n, const double* delta,
                  const double* a, double* p, std::size_t ldp);
void diff_gram(std::size_t n, const double* const* x, double* u);
void lane_forward(const Envelope& l, std::size_t s, double* y);
void lane_backward(const Envelope& l, std::size_t s, double* y);
void affine_min(std::size_t n_rows, const AffineBlock* blocks,
                std::size_t n_blocks, std::size_t n, const double* x,
                std::size_t ldx, double* tile, double* worst,
                std::size_t* worst_row);
double dot(std::size_t n, const double* x, const double* y);
}  // namespace ref

}  // namespace vmap::linalg::kern

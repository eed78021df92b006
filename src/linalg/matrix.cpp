#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace vmap::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    VMAP_REQUIRE(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

Vector Matrix::row(std::size_t r) const {
  VMAP_REQUIRE(r < rows_, "row index out of range");
  Vector v(cols_);
  const double* src = row_data(r);
  for (std::size_t c = 0; c < cols_; ++c) v[c] = src[c];
  return v;
}

Vector Matrix::col(std::size_t c) const {
  VMAP_REQUIRE(c < cols_, "column index out of range");
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::set_row(std::size_t r, const Vector& v) {
  VMAP_REQUIRE(r < rows_ && v.size() == cols_, "set_row shape mismatch");
  double* dst = row_data(r);
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = v[c];
}

void Matrix::set_col(std::size_t c, const Vector& v) {
  VMAP_REQUIRE(c < cols_ && v.size() == rows_, "set_col shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  VMAP_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "matrix shape mismatch in +=");
  kern::add(data_.size(), rhs.data_.data(), data_.data());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  VMAP_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
               "matrix shape mismatch in -=");
  kern::sub(data_.size(), rhs.data_.data(), data_.data());
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  kern::scale(data_.size(), s, data_.data());
  return *this;
}

double Matrix::norm_frobenius() const {
  return std::sqrt(norm_frobenius_squared());
}

double Matrix::norm_frobenius_squared() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

double Matrix::norm_max() const {
  double acc = 0.0;
  for (double v : data_) acc = std::max(acc, std::abs(v));
  return acc;
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& row_indices) const {
  Matrix out(row_indices.size(), cols_);
  for (std::size_t i = 0; i < row_indices.size(); ++i) {
    VMAP_REQUIRE(row_indices[i] < rows_, "select_rows index out of range");
    const double* src = row_data(row_indices[i]);
    double* dst = out.row_data(i);
    std::copy(src, src + cols_, dst);
  }
  return out;
}

Matrix Matrix::select_cols(const std::vector<std::size_t>& col_indices) const {
  Matrix out(rows_, col_indices.size());
  for (std::size_t j = 0; j < col_indices.size(); ++j)
    VMAP_REQUIRE(col_indices[j] < cols_, "select_cols index out of range");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = row_data(r);
    double* dst = out.row_data(r);
    for (std::size_t j = 0; j < col_indices.size(); ++j)
      dst[j] = src[col_indices[j]];
  }
  return out;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) {
  lhs += rhs;
  return lhs;
}

Matrix operator-(Matrix lhs, const Matrix& rhs) {
  lhs -= rhs;
  return lhs;
}

Matrix operator*(Matrix m, double s) {
  m *= s;
  return m;
}

namespace {

// Tile edges for the blocked kernels. kTileK keeps an operand slice in L1
// across a C-row tile; kTileJ keeps the active C/B row segments resident
// while k sweeps. The tile loops only regroup the (i, j, k) iteration —
// for any output element the k accumulation stays a single running sum in
// ascending k, so blocked results are bit-identical to the naive kernels.
constexpr std::size_t kTileK = 64;
constexpr std::size_t kTileJ = 512;

/// Row range [i0, i1) of C = A * B, blocked k-j within the range.
void matmul_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t i0,
                 std::size_t i1) {
  const std::size_t nk = a.cols();
  const std::size_t nj = b.cols();
  for (std::size_t k0 = 0; k0 < nk; k0 += kTileK) {
    const std::size_t k1 = std::min(nk, k0 + kTileK);
    for (std::size_t j0 = 0; j0 < nj; j0 += kTileJ) {
      const std::size_t jn = std::min(nj, j0 + kTileJ) - j0;
      for (std::size_t i = i0; i < i1; ++i) {
        const double* arow = a.row_data(i);
        double* crow = c.row_data(i) + j0;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          const double* brow = b.row_data(k) + j0;
          kern::axpy(jn, aik, brow, crow);
        }
      }
    }
  }
}

/// Row range [i0, i1) of C = Aᵀ * B (rows of C are columns of A).
void matmul_at_b_rows(const Matrix& a, const Matrix& b, Matrix& c,
                      std::size_t i0, std::size_t i1) {
  const std::size_t nk = a.rows();
  const std::size_t nj = b.cols();
  for (std::size_t k0 = 0; k0 < nk; k0 += kTileK) {
    const std::size_t k1 = std::min(nk, k0 + kTileK);
    for (std::size_t j0 = 0; j0 < nj; j0 += kTileJ) {
      const std::size_t jn = std::min(nj, j0 + kTileJ) - j0;
      for (std::size_t i = i0; i < i1; ++i) {
        double* crow = c.row_data(i) + j0;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aki = a(k, i);
          if (aki == 0.0) continue;
          const double* brow = b.row_data(k) + j0;
          kern::axpy(jn, aki, brow, crow);
        }
      }
    }
  }
}

/// Borrowed row-major rows: row r at data + r * ld.
struct Rows {
  const double* data;
  std::size_t ld;
  const double* row(std::size_t r) const { return data + r * ld; }
};

/// Row range [i0, i1) of C += A * Bᵀ over n columns: packed-panel
/// microkernel. Four B rows (of nj) are interleaved into a [k][4] panel
/// once, then the A rows sweep the panel four at a time (then a 2- and a
/// 1-row tail) with one running accumulator per output element, k strictly
/// ascending, continuing from the value in C — on a zeroed C the same
/// per-element chain as a plain sequential dot, so results are
/// bit-identical to the naive kernel at any SIMD setting, and a sum over
/// consecutive column ranges, one call each, is the sum over all of them.
/// C's (i, j) is at c + i * ldc + j. With `lower` set, row i only meets
/// the panels and tail columns j ≤ i (a diagonal panel also fills its 4×4
/// block's upper corner): the lower triangle of a symmetric A·Aᵀ.
void add_a_bt_rows(std::size_t n, Rows a, Rows b, std::size_t nj, double* c,
                   std::size_t ldc, std::size_t i0, std::size_t i1,
                   bool lower = false) {
  std::vector<double> panel(kern::kPanelWidth * n);
  std::size_t jb = 0;
  for (; jb + kern::kPanelWidth <= nj; jb += kern::kPanelWidth) {
    std::size_t i = lower ? std::max(i0, jb) : i0;
    if (i >= i1) return;  // so is every later panel and tail column
    kern::pack_panel(n, b.row(jb), b.row(jb + 1), b.row(jb + 2),
                     b.row(jb + 3), panel.data());
    for (; i + 4 <= i1; i += 4)
      kern::dot_panel4(n, a.row(i), a.ld, panel.data(), c + i * ldc + jb,
                       ldc);
    for (; i + 2 <= i1; i += 2) {
      kern::dot_panel2(n, a.row(i), a.row(i + 1), panel.data(),
                       c + i * ldc + jb, c + (i + 1) * ldc + jb);
    }
    for (; i < i1; ++i)
      kern::dot_panel(n, a.row(i), panel.data(), c + i * ldc + jb);
  }
  // Ragged tail columns (nj % 4): plain sequential dots.
  for (; jb < nj; ++jb) {
    const double* brow = b.row(jb);
    for (std::size_t i = lower ? std::max(i0, jb) : i0; i < i1; ++i) {
      const double* arow = a.row(i);
      double s = c[i * ldc + jb];
      for (std::size_t k = 0; k < n; ++k) s += arow[k] * brow[k];
      c[i * ldc + jb] = s;
    }
  }
}

/// Copies the strict lower triangle of a square C onto its upper one.
void mirror_lower(Matrix& c) {
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = i + 1; j < c.cols(); ++j) c(i, j) = c(j, i);
}

/// Splits [0, rows) into contiguous chunks (sized by the shared
/// work-quantum heuristic) and runs `rows_fn` on the pool when the kernel
/// is large enough; inline otherwise. Chunk boundaries do not affect
/// results: each output row is produced whole by one chunk.
template <typename RowsFn>
void dispatch_rows(std::size_t rows, double flops, const RowsFn& rows_fn) {
  if (rows == 0) return;
  const std::size_t chunks =
      recommended_chunks(rows, flops / static_cast<double>(rows));
  if (chunks <= 1 || in_parallel_region()) {
    rows_fn(0, rows);
    return;
  }
  parallel_for(0, chunks, [&](std::size_t t) {
    rows_fn(t * rows / chunks, (t + 1) * rows / chunks);
  });
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  VMAP_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  const double flops = static_cast<double>(a.rows()) *
                       static_cast<double>(a.cols()) *
                       static_cast<double>(b.cols());
  dispatch_rows(a.rows(), flops, [&](std::size_t i0, std::size_t i1) {
    matmul_rows(a, b, c, i0, i1);
  });
  return c;
}

Matrix matmul_reference(const Matrix& a, const Matrix& b) {
  VMAP_REQUIRE(a.cols() == b.rows(), "matmul inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order: both inner accesses stream along rows (cache friendly).
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = arow[k];
      if (aik == 0.0) continue;
      const double* brow = b.row_data(k);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  VMAP_REQUIRE(a.rows() == b.rows(), "matmul_at_b dimension mismatch");
  Matrix c(a.cols(), b.cols());
  const double flops = static_cast<double>(a.rows()) *
                       static_cast<double>(a.cols()) *
                       static_cast<double>(b.cols());
  dispatch_rows(a.cols(), flops, [&](std::size_t i0, std::size_t i1) {
    matmul_at_b_rows(a, b, c, i0, i1);
  });
  return c;
}

Matrix matmul_a_bt(const Matrix& a, const Matrix& b) {
  VMAP_REQUIRE(a.cols() == b.cols(), "matmul_a_bt dimension mismatch");
  Matrix c(a.rows(), b.rows());
  const double flops = static_cast<double>(a.rows()) *
                       static_cast<double>(a.cols()) *
                       static_cast<double>(b.rows());
  dispatch_rows(a.rows(), flops, [&](std::size_t i0, std::size_t i1) {
    add_a_bt_rows(a.cols(), {a.data(), a.cols()}, {b.data(), b.cols()},
                  b.rows(), c.data(), c.cols(), i0, i1);
  });
  return c;
}

Matrix matmul_a_at(const Matrix& a) {
  const std::size_t m = a.rows();
  Matrix c(m, m);
  const double flops = 0.5 * static_cast<double>(m) *
                       static_cast<double>(m + 1) *
                       static_cast<double>(a.cols());
  const Rows rows{a.data(), a.cols()};
  dispatch_rows(m, flops, [&](std::size_t i0, std::size_t i1) {
    add_a_bt_rows(a.cols(), rows, rows, m, c.data(), m, i0, i1,
                  /*lower=*/true);
  });
  mirror_lower(c);
  return c;
}

GramPair tiled_gram(std::size_t m, std::size_t k, std::size_t n,
                    const TileWriter& write) {
  GramPair out{Matrix(m, m), Matrix(k, m)};
  std::vector<double> z(m * kGramTile), g(k * kGramTile);
  for (std::size_t c0 = 0; c0 < n; c0 += kGramTile) {
    const std::size_t w = std::min(kGramTile, n - c0);
    write(c0, c0 + w, z.data(), g.data());
    const Rows zr{z.data(), w}, gr{g.data(), w};
    // Rows [0, m) of the split are ZZᵀ's, rows [m, m + k) GZᵀ's.
    const double flops =
        (0.5 * static_cast<double>(m) * static_cast<double>(m + 1) +
         static_cast<double>(k) * static_cast<double>(m)) *
        static_cast<double>(w);
    dispatch_rows(m + k, flops, [&](std::size_t i0, std::size_t i1) {
      if (i0 < m)
        add_a_bt_rows(w, zr, zr, m, out.zzt.data(), m, i0, std::min(i1, m),
                      /*lower=*/true);
      if (i1 > m)
        add_a_bt_rows(w, gr, zr, m, out.gzt.data(), m, std::max(i0, m) - m,
                      i1 - m);
    });
  }
  mirror_lower(out.zzt);
  return out;
}

Vector matvec(const Matrix& a, const Vector& x) {
  VMAP_REQUIRE(a.cols() == x.size(), "matvec dimension mismatch");
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) acc += arow[j] * x[j];
    y[i] = acc;
  }
  return y;
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  VMAP_REQUIRE(a.rows() == x.size(), "matvec_t dimension mismatch");
  Vector y(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    kern::axpy(a.cols(), xi, arow, y.data());
  }
  return y;
}

}  // namespace vmap::linalg

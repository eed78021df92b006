#pragma once
// Dense row-major matrix with value semantics and the kernels the vmap
// statistical core needs: GEMM-style products, transposed products,
// row/column views as copies, and norms.

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <vector>

#include "linalg/vector.hpp"

namespace vmap::linalg {

/// Dense double-precision matrix, row-major.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Construct from nested initializer list; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const double* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Copies of a row / column as vectors.
  Vector row(std::size_t r) const;
  Vector col(std::size_t c) const;
  void set_row(std::size_t r, const Vector& v);
  void set_col(std::size_t c, const Vector& v);

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Frobenius norm.
  double norm_frobenius() const;
  double norm_frobenius_squared() const;
  /// Largest absolute entry.
  double norm_max() const;

  void fill(double value);

  /// Extract the submatrix formed by the given rows (in order).
  Matrix select_rows(const std::vector<std::size_t>& row_indices) const;
  /// Extract the submatrix formed by the given columns (in order).
  Matrix select_cols(const std::vector<std::size_t>& col_indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double s);

/// C = A * B. Inner dimensions must agree. Cache-blocked; row blocks run
/// on the thread pool above a flop threshold. Accumulation order per
/// output element matches matmul_reference, so results are bit-identical
/// to the naive kernel at any thread count.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A * B, naive single-threaded i-k-j kernel. Reference for tests and
/// the blocked-vs-naive microbenchmarks.
Matrix matmul_reference(const Matrix& a, const Matrix& b);
/// C = A^T * B without materializing A^T.
Matrix matmul_at_b(const Matrix& a, const Matrix& b);
/// C = A * B^T without materializing B^T.
Matrix matmul_a_bt(const Matrix& a, const Matrix& b);
/// The symmetric Gram C = A * A^T at half the work: the lower triangle by
/// matmul_a_bt's kernel, mirrored. Bit-identical to matmul_a_bt(a, a),
/// and exactly symmetric.
Matrix matmul_a_at(const Matrix& a);

/// Column width of tiled_gram's tiles. A 174-row Z tile (one core of the
/// Table-2 fit) is 356 KB, so it stays in L2 while its panels sweep it.
inline constexpr std::size_t kGramTile = 256;

/// Writes columns [c0, c1) of Z and of G, row-major at row stride c1 − c0:
/// Z's row i at z + i·(c1 − c0), G's row r at g + r·(c1 − c0).
using TileWriter = std::function<void(std::size_t c0, std::size_t c1,
                                      double* z, double* g)>;

struct GramPair {
  Matrix zzt;  ///< Z·Zᵀ, m x m
  Matrix gzt;  ///< G·Zᵀ, k x m
};

/// The Gram pair of a Z (m x n) and a G (k x n) that are never held whole:
/// `write` produces them kGramTile columns at a time, in ascending column
/// order, and each tile's products are added to the running sums. Every
/// element continues its one chain across the tiles, so the pair is
/// bit-identical to matmul_a_at(Z) and matmul_a_bt(G, Z), and Z·Zᵀ is
/// exactly symmetric. Outside a parallel region each tile's rows split
/// across the pool as those kernels' do.
GramPair tiled_gram(std::size_t m, std::size_t k, std::size_t n,
                    const TileWriter& write);
/// y = A * x.
Vector matvec(const Matrix& a, const Vector& x);
/// y = A^T * x.
Vector matvec_t(const Matrix& a, const Vector& x);

}  // namespace vmap::linalg

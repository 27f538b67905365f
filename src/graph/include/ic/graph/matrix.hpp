// Dense row-major matrix of doubles.
//
// This is the numeric workhorse for the learning code. It is deliberately a
// simple value type: sizes are fixed at construction, storage is contiguous,
// and all operations check shapes via IC_ASSERT.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <utility>
#include <vector>

#include "ic/support/assert.hpp"
#include "ic/support/rng.hpp"

namespace ic::graph {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  /// Entries ~ U(-limit, limit); Xavier/Glorot when limit = sqrt(6/(in+out)).
  static Matrix random_uniform(std::size_t rows, std::size_t cols, double limit,
                               Rng& rng);
  static Matrix random_normal(std::size_t rows, std::size_t cols, double stddev,
                              Rng& rng);
  /// Column vector from values.
  static Matrix column(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Reshape to rows×cols in place. Storage is kept (it only grows), so a
  /// scratch matrix reused at varying sizes stops allocating; entries keep
  /// whatever they held and are meant to be overwritten.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) {
    IC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    IC_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  // ---- elementwise -------------------------------------------------------
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double s);
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  // ---- products ----------------------------------------------------------
  /// Matrix product this(rows,k) * other(k,cols).
  Matrix matmul(const Matrix& other) const;
  Matrix transpose() const;

  // ---- reductions --------------------------------------------------------
  std::vector<double> row_sums() const;
  std::vector<double> col_sums() const;
  std::vector<double> col_means() const;
  double frobenius_norm() const;

  /// Extract column c as a std::vector.
  std::vector<double> column_vec(std::size_t c) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Max |a - b| over entries; shapes must match.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Columns a row kernel sums at once. Eight doubles fill four SSE2
/// registers (two AVX ones), which leaves room for the operands.
inline constexpr std::size_t kColumnBlock = 8;

/// Runs `block.template operator()<B>(j0)` over columns [j0, j0 + B) for
/// every block of `Size` columns in [0, width), then once for the narrower
/// rest if there is one. B is a compile-time constant, so a kernel that
/// keeps a block's sums in a local `double[B]` keeps them in registers for
/// a whole row, at any width.
template <std::size_t Size = kColumnBlock, typename Block>
void for_each_column_block(std::size_t width, Block&& block) {
  std::size_t j0 = 0;
  for (; j0 + Size <= width; j0 += Size) {
    block.template operator()<Size>(j0);
  }
  const std::size_t rest = width - j0;
  if (rest == 0) return;
  [&]<std::size_t... B>(std::index_sequence<B...>) {
    (void)((rest == B + 1 && (block.template operator()<B + 1>(j0), true)) ||
           ...);
  }(std::make_index_sequence<Size - 1>{});
}

/// Solve A x = b by Gaussian elimination with partial pivoting. A is n×n,
/// b is n×m; returns x (n×m). Near-singular systems are solved anyway with
/// whatever tiny pivots remain (mirroring the numeric blow-ups the paper
/// reports for plain linear regression); exactly-zero pivots throw.
Matrix solve_linear(Matrix a, Matrix b);

/// Cholesky solve for symmetric positive definite A (used by ridge-type
/// estimators). Throws std::runtime_error if A is not SPD.
Matrix solve_spd(Matrix a, Matrix b);

}  // namespace ic::graph

// Compressed-sparse-row matrix for graph structure operators.
//
// Circuit graphs are very sparse (average degree ≈ 2–4), so adjacency,
// Laplacian and GCN propagation matrices are stored in CSR and multiplied
// against dense feature matrices (spmm) in O(nnz · F).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ic/graph/matrix.hpp"

namespace ic::graph {

class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from coordinate triplets; duplicate (r,c) entries are summed.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<std::size_t> tr,
                                    std::vector<std::size_t> tc,
                                    std::vector<double> tv);

  static SparseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Dense product: this(rows×cols) * x(cols×f).
  Matrix spmm(const Matrix& x) const;

  /// Row r of this·X into out[0, width), reading row c of X at row_of(c).
  /// Each entry starts from zero and adds the row's products in CSR order.
  /// The columns go in blocks (for_each_column_block) whose sums stay in
  /// registers while the row's entries stream past. Each pass over the
  /// entries looks up every row_of(c) again, so the blocks here are twice
  /// kColumnBlock wide: eight registers of sums, half the passes. spmm()
  /// runs this for every row, so a caller that computes only some rows gets
  /// the same bits.
  template <typename RowOf>
  void spmm_row(std::size_t r, const RowOf& row_of, std::size_t width,
                double* out) const {
    const std::size_t begin = row_ptr_[r];
    const std::size_t end = row_ptr_[r + 1];
    for_each_column_block<2 * kColumnBlock>(
        width, [&]<std::size_t B>(std::size_t j0) {
          double acc[B] = {};
          for (std::size_t k = begin; k < end; ++k) {
            const double v = values_[k];
            const double* x = row_of(col_idx_[k]) + j0;
            for (std::size_t j = 0; j < B; ++j) acc[j] += v * x[j];
          }
          for (std::size_t j = 0; j < B; ++j) out[j0 + j] = acc[j];
        });
  }

  /// Columns of the entries stored in row r, ascending.
  std::span<const std::size_t> row_cols(std::size_t r) const {
    return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
  }

  /// Sᵀ. Its row c lists the rows of S that store an entry in column c.
  SparseMatrix transpose() const;

  /// Transposed product: thisᵀ * x, with x(rows×f). Needed for backprop
  /// through y = S·x when S is not symmetric.
  Matrix spmm_transposed(const Matrix& x) const;

  /// Sparse * dense vector.
  std::vector<double> spmv(const std::vector<double>& x) const;

  /// Row sums (degree vector when this is an adjacency matrix).
  std::vector<double> row_sums() const;

  Matrix to_dense() const;

  /// Entry lookup (O(log degree)); zero if absent.
  double at(std::size_t r, std::size_t c) const;

  bool is_symmetric(double tol = 1e-12) const;

  /// Largest eigenvalue magnitude via power iteration (intended for
  /// symmetric operators such as normalized Laplacians).
  double lambda_max(std::size_t iterations = 100, std::uint64_t seed = 7) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;  // size rows_+1
  std::vector<std::size_t> col_idx_;  // size nnz
  std::vector<double> values_;        // size nnz
};

}  // namespace ic::graph

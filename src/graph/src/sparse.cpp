#include "ic/graph/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ic/support/rng.hpp"
#include "ic/support/timeline.hpp"

namespace ic::graph {

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<std::size_t> tr,
                                         std::vector<std::size_t> tc,
                                         std::vector<double> tv) {
  IC_ASSERT(tr.size() == tc.size() && tc.size() == tv.size());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    IC_ASSERT(tr[i] < rows && tc[i] < cols);
  }
  // Sort triplets by (row, col) and merge duplicates.
  std::vector<std::size_t> order(tr.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tr[a] != tr[b] ? tr[a] < tr[b] : tc[a] < tc[b];
  });

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  bool have_last = false;
  std::size_t last_row = 0;
  for (std::size_t oi : order) {
    if (have_last && last_row == tr[oi] && m.col_idx_.back() == tc[oi]) {
      m.values_.back() += tv[oi];  // merge duplicate coordinate
      continue;
    }
    m.col_idx_.push_back(tc[oi]);
    m.values_.push_back(tv[oi]);
    last_row = tr[oi];
    have_last = true;
    ++m.row_ptr_[tr[oi] + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

SparseMatrix SparseMatrix::identity(std::size_t n) {
  std::vector<std::size_t> r(n), c(n);
  std::vector<double> v(n, 1.0);
  std::iota(r.begin(), r.end(), std::size_t{0});
  std::iota(c.begin(), c.end(), std::size_t{0});
  return from_triplets(n, n, std::move(r), std::move(c), std::move(v));
}

Matrix SparseMatrix::spmm(const Matrix& x) const {
  IC_ASSERT_MSG(cols_ == x.rows(), "spmm shape mismatch");
  const std::size_t width = x.cols();
  Matrix out(rows_, width);
  const auto row_of = [&](std::size_t c) { return x.data() + c * width; };
  for (std::size_t r = 0; r < rows_; ++r) {
    spmm_row(r, row_of, width, out.data() + r * width);
  }
  // Attribute this product to the serving request's timeline, if one is
  // active on this thread (no-op everywhere else: training, tools, tests).
  telemetry::mark_stage(telemetry::Stage::Spmm);
  return out;
}

SparseMatrix SparseMatrix::transpose() const {
  // Counting sort by column: rows are visited in order, so each row of the
  // result lists its columns ascending, as CSR requires.
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (const std::size_t c : col_idx_) ++t.row_ptr_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<std::size_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t at = next[col_idx_[k]]++;
      t.col_idx_[at] = r;
      t.values_[at] = values_[k];
    }
  }
  return t;
}

Matrix SparseMatrix::spmm_transposed(const Matrix& x) const {
  IC_ASSERT_MSG(rows_ == x.rows(), "spmm_transposed shape mismatch");
  Matrix out(cols_, x.cols());
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* xrow = x.data() + r * x.cols();
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const double v = values_[k];
      double* orow = out.data() + col_idx_[k] * x.cols();
      for (std::size_t j = 0; j < x.cols(); ++j) orow[j] += v * xrow[j];
    }
  }
  return out;
}

std::vector<double> SparseMatrix::spmv(const std::vector<double>& x) const {
  IC_ASSERT(x.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    out[r] = acc;
  }
  return out;
}

std::vector<double> SparseMatrix::row_sums() const {
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out[r] += values_[k];
    }
  }
  return out;
}

Matrix SparseMatrix::to_dense() const {
  Matrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  IC_ASSERT(r < rows_ && c < cols_);
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

bool SparseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (std::fabs(values_[k] - at(col_idx_[k], r)) > tol) return false;
    }
  }
  return true;
}

double SparseMatrix::lambda_max(std::size_t iterations, std::uint64_t seed) const {
  IC_ASSERT(rows_ == cols_);
  if (rows_ == 0) return 0.0;
  Rng rng(seed);
  std::vector<double> v(rows_);
  for (double& x : v) x = rng.uniform(0.1, 1.0);
  double eig = 0.0;
  for (std::size_t it = 0; it < iterations; ++it) {
    std::vector<double> w = spmv(v);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0.0) return 0.0;
    for (double& x : w) x /= norm;
    eig = norm;
    v = std::move(w);
  }
  return eig;
}

}  // namespace ic::graph

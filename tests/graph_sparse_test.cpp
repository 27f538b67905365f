#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ic/graph/sparse.hpp"

namespace ic::graph {
namespace {

SparseMatrix small() {
  // [[1, 2, 0], [0, 0, 3], [4, 0, 5]]
  return SparseMatrix::from_triplets(3, 3, {0, 0, 1, 2, 2}, {0, 1, 2, 0, 2},
                                     {1, 2, 3, 4, 5});
}

TEST(Sparse, FromTripletsAndAt) {
  const SparseMatrix m = small();
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 5.0);
}

TEST(Sparse, DuplicateTripletsSum) {
  const SparseMatrix m = SparseMatrix::from_triplets(2, 2, {0, 0, 1}, {1, 1, 0},
                                                     {1.5, 2.5, 1.0});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
}

TEST(Sparse, ToDenseMatchesAt) {
  const SparseMatrix m = small();
  const Matrix d = m.to_dense();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(d(r, c), m.at(r, c));
    }
  }
}

TEST(Sparse, SpmmMatchesDenseProduct) {
  Rng rng(3);
  const SparseMatrix s = small();
  const Matrix x = Matrix::random_normal(3, 4, 1.0, rng);
  const Matrix sparse_prod = s.spmm(x);
  const Matrix dense_prod = s.to_dense().matmul(x);
  EXPECT_LT(Matrix::max_abs_diff(sparse_prod, dense_prod), 1e-12);
}

TEST(Sparse, SpmmTransposedMatchesDense) {
  Rng rng(4);
  const SparseMatrix s = small();
  const Matrix x = Matrix::random_normal(3, 2, 1.0, rng);
  const Matrix a = s.spmm_transposed(x);
  const Matrix b = s.to_dense().transpose().matmul(x);
  EXPECT_LT(Matrix::max_abs_diff(a, b), 1e-12);
}

TEST(Sparse, TransposeListsEachColumnsRowsInOrder) {
  // Non-square, so rows and columns cannot be confused.
  const SparseMatrix s = SparseMatrix::from_triplets(
      2, 3, {0, 0, 1, 1}, {0, 2, 0, 1}, {1, 2, 3, 4});
  const SparseMatrix t = s.transpose();
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  EXPECT_EQ(Matrix::max_abs_diff(t.to_dense(), s.to_dense().transpose()), 0.0);
  const auto readers = t.row_cols(0);  // rows of s with an entry in column 0
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_EQ(readers[0], 0u);
  EXPECT_EQ(readers[1], 1u);
  EXPECT_EQ(t.row_cols(1).size(), 1u);
}

TEST(Sparse, SpmmRowIsARowOfSpmm) {
  Rng rng(5);
  const SparseMatrix s = small();
  const Matrix x = Matrix::random_normal(3, 4, 1.0, rng);
  const Matrix all = s.spmm(x);
  double row[4];
  for (std::size_t r = 0; r < 3; ++r) {
    s.spmm_row(r, [&](std::size_t c) { return x.data() + c * 4; }, 4, row);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(row[j], all(r, j));
  }
}

TEST(Sparse, SpmmMatchesTheDenseProductBitForBitAtEveryWidth) {
  // spmm_row keeps each block of 16 columns in registers and the narrower
  // rest in a block of its own; every width from 1 to 34 crosses a
  // different mix of full and remainder blocks. Both products add each
  // entry's terms in column order, so they agree to the bit. Row 3 is empty.
  Rng rng(11);
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  for (std::size_t r = 0; r < 9; ++r) {
    if (r == 3) continue;
    for (std::size_t c = 0; c < 9; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.4) {
        tr.push_back(r);
        tc.push_back(c);
        tv.push_back(rng.uniform(-2.0, 2.0));
      }
    }
  }
  const SparseMatrix s = SparseMatrix::from_triplets(9, 9, tr, tc, tv);
  for (std::size_t width = 1; width <= 34; ++width) {
    const Matrix x = Matrix::random_normal(9, width, 1.0, rng);
    const Matrix dense = s.to_dense().matmul(x);
    const Matrix sparse = s.spmm(x);
    for (std::size_t r = 0; r < 9; ++r) {
      std::vector<double> row(width + 1, -7.0);  // one sentinel past the end
      s.spmm_row(r, [&](std::size_t c) { return x.data() + c * width; }, width,
                 row.data());
      EXPECT_EQ(row[width], -7.0) << "width " << width << " row " << r;
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ(sparse(r, j), dense(r, j)) << "width " << width;
        EXPECT_EQ(row[j], dense(r, j)) << "width " << width;
      }
    }
  }
}

TEST(Sparse, SpmvMatchesSpmm) {
  const SparseMatrix s = small();
  const std::vector<double> x{1.0, -1.0, 2.0};
  const auto v = s.spmv(x);
  const Matrix m = s.spmm(Matrix::column(x));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(v[i], m(i, 0));
}

TEST(Sparse, RowSums) {
  const auto rs = small().row_sums();
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 3.0);
  EXPECT_DOUBLE_EQ(rs[2], 9.0);
}

TEST(Sparse, Identity) {
  const SparseMatrix id = SparseMatrix::identity(4);
  EXPECT_EQ(id.nnz(), 4u);
  Rng rng(5);
  const Matrix x = Matrix::random_normal(4, 3, 1.0, rng);
  EXPECT_LT(Matrix::max_abs_diff(id.spmm(x), x), 1e-15);
}

TEST(Sparse, Symmetry) {
  const SparseMatrix sym = SparseMatrix::from_triplets(
      2, 2, {0, 1}, {1, 0}, {3.0, 3.0});
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_FALSE(small().is_symmetric());
}

TEST(Sparse, LambdaMaxOfKnownMatrix) {
  // [[2, 1], [1, 2]] has eigenvalues {1, 3}.
  const SparseMatrix m = SparseMatrix::from_triplets(2, 2, {0, 0, 1, 1},
                                                     {0, 1, 0, 1},
                                                     {2, 1, 1, 2});
  EXPECT_NEAR(m.lambda_max(200), 3.0, 1e-6);
}

TEST(Sparse, LambdaMaxOfPathGraphLaplacian) {
  // Path P3 normalized Laplacian has λ_max = 3/2... use the combinatorial
  // Laplacian of P2: [[1,-1],[-1,1]] with λ_max = 2.
  const SparseMatrix l = SparseMatrix::from_triplets(2, 2, {0, 0, 1, 1},
                                                     {0, 1, 0, 1},
                                                     {1, -1, -1, 1});
  EXPECT_NEAR(l.lambda_max(200), 2.0, 1e-6);
}

TEST(Sparse, EmptyRowsAreFine) {
  const SparseMatrix m =
      SparseMatrix::from_triplets(3, 3, {2}, {0}, {7.0});
  const auto v = m.spmv({1, 1, 1});
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 7.0);
}

}  // namespace
}  // namespace ic::graph

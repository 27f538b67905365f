#include <gtest/gtest.h>

#include <cmath>

#include "ic/graph/matrix.hpp"

namespace ic::graph {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
}

TEST(Matrix, Identity) {
  const Matrix id = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, ArithmeticOps) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  const Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(Matrix, MatmulKnownProduct) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulShapeMismatchRejected) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::logic_error);
}

TEST(Matrix, MatmulAgainstIdentity) {
  Rng rng(4);
  const Matrix a = Matrix::random_normal(5, 5, 1.0, rng);
  EXPECT_LT(Matrix::max_abs_diff(a.matmul(Matrix::identity(5)), a), 1e-12);
  EXPECT_LT(Matrix::max_abs_diff(Matrix::identity(5).matmul(a), a), 1e-12);
}

TEST(Matrix, TransposeInvolution) {
  Rng rng(5);
  const Matrix a = Matrix::random_uniform(3, 7, 2.0, rng);
  const Matrix att = a.transpose().transpose();
  EXPECT_LT(Matrix::max_abs_diff(a, att), 1e-15);
  EXPECT_DOUBLE_EQ(a(2, 5), a.transpose()(5, 2));
}

TEST(Matrix, Reductions) {
  const Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m.row_sums()[0], 3.0);
  EXPECT_DOUBLE_EQ(m.col_sums()[1], 6.0);
  EXPECT_DOUBLE_EQ(m.col_means()[0], 2.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), std::sqrt(30.0));
}

TEST(Matrix, ColumnVec) {
  const Matrix m{{1, -2}, {-3, 4}};
  const auto col = m.column_vec(1);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_DOUBLE_EQ(col[0], -2.0);
  EXPECT_DOUBLE_EQ(col[1], 4.0);
}

TEST(SolveLinear, RecoversKnownSolution) {
  const Matrix a{{2, 1}, {1, 3}};
  const Matrix b{{5}, {10}};
  const Matrix x = solve_linear(a, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 3.0, 1e-12);
}

TEST(SolveLinear, RandomSystemsSolveToResidualZero) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 4 + static_cast<std::size_t>(trial);
    const Matrix a = Matrix::random_normal(n, n, 1.0, rng);
    const Matrix b = Matrix::random_normal(n, 2, 1.0, rng);
    const Matrix x = solve_linear(a, b);
    EXPECT_LT(Matrix::max_abs_diff(a.matmul(x), b), 1e-8);
  }
}

TEST(SolveLinear, ExactlySingularThrows) {
  const Matrix a{{1, 2}, {2, 4}};
  const Matrix b{{1}, {2}};
  EXPECT_THROW(solve_linear(a, b), std::runtime_error);
}

TEST(SolveSpd, MatchesGeneralSolver) {
  Rng rng(7);
  const Matrix g = Matrix::random_normal(5, 5, 1.0, rng);
  Matrix spd = g.matmul(g.transpose());
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 5.0;
  const Matrix b = Matrix::random_normal(5, 1, 1.0, rng);
  const Matrix x1 = solve_spd(spd, b);
  const Matrix x2 = solve_linear(spd, b);
  EXPECT_LT(Matrix::max_abs_diff(x1, x2), 1e-8);
}

TEST(SolveSpd, RejectsIndefinite) {
  const Matrix a{{1, 0}, {0, -1}};
  const Matrix b{{1}, {1}};
  EXPECT_THROW(solve_spd(a, b), std::runtime_error);
}

TEST(Matrix, RandomRespectsBounds) {
  Rng rng(8);
  const Matrix u = Matrix::random_uniform(20, 20, 0.3, rng);
  for (std::size_t i = 0; i < u.rows(); ++i) {
    for (std::size_t j = 0; j < u.cols(); ++j) {
      EXPECT_GE(u(i, j), -0.3);
      EXPECT_LE(u(i, j), 0.3);
    }
  }
}

TEST(Matrix, ColumnFactory) {
  const Matrix c = Matrix::column({4, 5});
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 1u);
  const Matrix r{{1, 2, 3}};
  EXPECT_DOUBLE_EQ(r.matmul(Matrix::column({1, 1, 1}))(0, 0), 6.0);
}

}  // namespace
}  // namespace ic::graph

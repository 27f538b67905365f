// Finite-difference gradient verification for every model configuration.
// This is the single most important test for the learning stack: if these
// pass, backprop is mathematically consistent with the forward pass.
#include <gtest/gtest.h>

#include <cmath>

#include "ic/circuit/library.hpp"
#include "ic/data/dataset.hpp"
#include "ic/nn/regressor.hpp"

namespace ic::nn {
namespace {

using graph::Matrix;
using graph::SparseMatrix;

struct GradCase {
  const char* label;
  ConvMode mode;
  Readout readout;
  bool exp_head;
  data::StructureKind structure;
};

class GradCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheck, AnalyticMatchesNumeric) {
  const auto& gc = GetParam();
  const auto circuit = circuit::c17();
  const auto s = data::make_structure(circuit, gc.structure);

  GnnConfig cfg;
  cfg.conv_mode = gc.mode;
  cfg.cheb_order = 3;
  cfg.in_features = 4;
  cfg.hidden = {5, 3};
  cfg.readout = gc.readout;
  cfg.exp_head = gc.exp_head;
  cfg.seed = 99;
  GnnRegressor model(cfg);

  Rng rng(7);
  const Matrix x = Matrix::random_uniform(circuit.size(), 4, 1.0, rng);
  const double target = 1.3;

  // Analytic gradient of L = (f(x) − t)².
  Tape tape;
  const double out = model.forward(*s, x, tape);
  auto grads = model.zero_gradients();
  model.backward(*s, tape, 2.0 * (out - target), grads);
  const auto params = model.parameters();

  const double eps = 1e-6;
  double worst_rel = 0.0;
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Matrix& p = *params[pi];
    for (std::size_t r = 0; r < p.rows(); ++r) {
      for (std::size_t c = 0; c < p.cols(); ++c) {
        const double saved = p(r, c);
        p(r, c) = saved + eps;
        const double up = model.predict(*s, x);
        p(r, c) = saved - eps;
        const double down = model.predict(*s, x);
        p(r, c) = saved;
        const double loss_up = (up - target) * (up - target);
        const double loss_down = (down - target) * (down - target);
        const double numeric = (loss_up - loss_down) / (2.0 * eps);
        const double analytic = grads[pi](r, c);
        const double scale = std::max({1e-6, std::fabs(numeric), std::fabs(analytic)});
        const double rel = std::fabs(numeric - analytic) / scale;
        worst_rel = std::max(worst_rel, rel);
        EXPECT_LT(rel, 1e-4) << gc.label << " param " << pi << " (" << r << ","
                             << c << "): analytic " << analytic << " numeric "
                             << numeric;
      }
    }
  }
  // Sanity: at least something had a non-trivial gradient.
  double grad_norm = 0.0;
  for (const auto& g : grads) grad_norm += g.frobenius_norm();
  EXPECT_GT(grad_norm, 1e-8) << gc.label;
  (void)worst_rel;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, GradCheck,
    ::testing::Values(
        GradCase{"ICNet_NN", ConvMode::Propagate, Readout::Attention, true,
                 data::StructureKind::Adjacency},
        GradCase{"ICNet_Sum", ConvMode::Propagate, Readout::Sum, true,
                 data::StructureKind::Adjacency},
        GradCase{"ICNet_Mean", ConvMode::Propagate, Readout::Mean, true,
                 data::StructureKind::Adjacency},
        GradCase{"ICNet_LinearHead", ConvMode::Propagate, Readout::Attention,
                 false, data::StructureKind::Adjacency},
        GradCase{"GCN_NN", ConvMode::Propagate, Readout::Attention, false,
                 data::StructureKind::GcnNorm},
        GradCase{"GCN_Mean", ConvMode::Propagate, Readout::Mean, false,
                 data::StructureKind::GcnNorm},
        GradCase{"Cheb_NN", ConvMode::Chebyshev, Readout::Attention, false,
                 data::StructureKind::ScaledLaplacian},
        GradCase{"Cheb_Sum", ConvMode::Chebyshev, Readout::Sum, false,
                 data::StructureKind::ScaledLaplacian},
        GradCase{"Cheb_ExpHead", ConvMode::Chebyshev, Readout::Mean, true,
                 data::StructureKind::ScaledLaplacian},
        GradCase{"Sage_NN", ConvMode::Chebyshev, Readout::Attention, false,
                 data::StructureKind::RowNormAdjacency},
        GradCase{"Sage_Sum", ConvMode::Chebyshev, Readout::Sum, true,
                 data::StructureKind::RowNormAdjacency}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(GraphConvUnit, PropagateForwardMatchesHandComputation) {
  // One conv, identity-ish weights: H_out = S·X·W + b.
  Rng rng(1);
  GraphConv conv(ConvMode::Propagate, 1, 2, 2, rng);
  // Overwrite parameters with known values.
  auto params = conv.parameters();
  *params[0] = Matrix{{1.0, 0.0}, {0.0, 1.0}};  // W = I
  *params[1] = Matrix{{0.5, -0.5}};             // bias
  const SparseMatrix s = SparseMatrix::from_triplets(2, 2, {0, 1}, {1, 0},
                                                     {1.0, 1.0});
  const Matrix x{{1.0, 2.0}, {3.0, 4.0}};
  std::vector<Matrix> basis;
  const Matrix out = conv.forward(s, x, basis);
  // S swaps rows; + bias.
  EXPECT_DOUBLE_EQ(out(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(out(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(out(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(out(1, 1), 1.5);
}

TEST(GraphConvUnit, BackwardAddsIntoCallerGradients) {
  Rng rng(2);
  GraphConv conv(ConvMode::Chebyshev, 3, 3, 2, rng);
  const SparseMatrix s = SparseMatrix::identity(4);
  const Matrix x = Matrix::random_normal(4, 3, 1.0, rng);
  const Matrix d_out = Matrix::random_normal(4, 2, 1.0, rng);
  std::vector<Matrix> basis;
  conv.forward(s, x, basis);
  ASSERT_EQ(basis.size(), 3u);
  std::vector<Matrix> once, twice;
  for (const Matrix* p : conv.parameters()) {
    once.emplace_back(p->rows(), p->cols());
    twice.emplace_back(p->rows(), p->cols());
  }
  conv.backward(s, basis, d_out, once);
  conv.backward(s, basis, d_out, twice);
  conv.backward(s, basis, d_out, twice);
  double norm = 0.0;
  for (std::size_t k = 0; k < once.size(); ++k) {
    norm += once[k].frobenius_norm();
    EXPECT_EQ(Matrix::max_abs_diff(once[k] * 2.0, twice[k]), 0.0) << k;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(ReluUnit, MasksNegativeAndPassesPositive) {
  const Matrix x{{-1.0, 2.0}, {0.0, -3.0}};
  Matrix y = x;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) y(r, c) = relu(x(r, c));
  }
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 0.0);
  // The backward mask comes from the output: x = 0 passes no gradient.
  Matrix dx{{5.0, 5.0}, {5.0, 5.0}};
  relu_backward(y, dx);
  EXPECT_DOUBLE_EQ(dx(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dx(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(dx(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(dx(1, 1), 0.0);
}

TEST(Regressor, AttentionWeightsAreADistribution) {
  const auto circuit = circuit::c17();
  const auto s = data::make_structure(circuit, data::StructureKind::Adjacency);
  GnnConfig cfg;
  cfg.in_features = 3;
  cfg.hidden = {4, 4};
  cfg.readout = Readout::Attention;
  GnnRegressor model(cfg);
  Rng rng(3);
  const Matrix x = Matrix::random_uniform(circuit.size(), 3, 1.0, rng);
  Tape tape;
  model.forward(*s, x, tape);
  const auto& fa = tape.feat_attention;
  const auto& ga = tape.gate_attention;
  ASSERT_EQ(fa.size(), 4u);
  ASSERT_EQ(ga.size(), circuit.size());
  double sum = 0.0;
  for (double a : fa) {
    EXPECT_GE(a, 0.0);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  sum = 0.0;
  for (double a : ga) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Regressor, ExpHeadOutputIsPositive) {
  const auto circuit = circuit::c17();
  const auto s = data::make_structure(circuit, data::StructureKind::Adjacency);
  GnnConfig cfg;
  cfg.in_features = 2;
  cfg.hidden = {3};
  cfg.exp_head = true;
  GnnRegressor model(cfg);
  Rng rng(4);
  for (int t = 0; t < 10; ++t) {
    const Matrix x = Matrix::random_uniform(circuit.size(), 2, 2.0, rng);
    EXPECT_GT(model.predict(*s, x), 0.0);  // softplus is strictly positive
  }
}

TEST(Regressor, ParameterCountMatchesArchitecture) {
  GnnConfig cfg;
  cfg.in_features = 7;
  cfg.hidden = {16, 8};
  cfg.readout = Readout::Attention;
  GnnRegressor model(cfg);
  // conv1: 7*16+16, conv2: 16*8+8, theta_feat: 8, phi: 1, head w: 1, b: 1.
  EXPECT_EQ(model.parameter_count(),
            static_cast<std::size_t>(7 * 16 + 16 + 16 * 8 + 8 + 8 + 1 + 1 + 1));
}

}  // namespace
}  // namespace ic::nn

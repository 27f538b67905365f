#include "ic/nn/regressor.hpp"

#include <algorithm>
#include <cmath>

#include "ic/support/timeline.hpp"

namespace ic::nn {

using graph::Matrix;
using graph::SparseMatrix;

namespace {

double softplus(double z) {
  // log(1 + exp(z)) without overflow.
  if (z > 30.0) return z;
  if (z < -30.0) return std::exp(z);
  return std::log1p(std::exp(z));
}

double sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

void softmax_inplace(std::vector<double>& v) {
  double mx = v[0];
  for (double x : v) mx = std::max(mx, x);
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

}  // namespace

GnnRegressor::GnnRegressor(const GnnConfig& config) : config_(config) {
  IC_ASSERT(!config.hidden.empty());
  Rng rng(config.seed);
  std::size_t in = config.in_features;
  for (std::size_t h : config.hidden) {
    const std::size_t order =
        config.conv_mode == ConvMode::Chebyshev ? config.cheb_order : 1;
    convs_.emplace_back(config.conv_mode, order, in, h, rng);
    in = h;
  }
  const std::size_t d = config.hidden.back();
  const std::size_t r_dim = config.readout == Readout::Attention ? 1 : d;

  theta_feat_ = Matrix::random_uniform(1, d, 0.5, rng);
  phi_gate_ = Matrix::random_uniform(1, 1, 0.5, rng);
  head_w_ = Matrix::random_uniform(r_dim, 1, std::sqrt(6.0 / (r_dim + 1.0)), rng);
  head_b_ = Matrix(1, 1);
  // Start the exponential head in its linear region: softplus saturates to
  // zero gradient for z << 0, which would freeze training if the first
  // updates overshoot.
  if (config.exp_head) head_b_(0, 0) = 1.0;
}

void GnnRegressor::warm_start_head(double target_mean) {
  if (config_.exp_head) {
    // softplus(b) = m  =>  b = log(exp(m) − 1); for m ≳ 3 that is ≈ m.
    head_b_(0, 0) = target_mean > 3.0 ? target_mean
                                      : std::log(std::expm1(std::max(0.05, target_mean)));
  } else {
    head_b_(0, 0) = target_mean;
  }
}

void GnnRegressor::forward_layers(const SparseMatrix& s, const Matrix& x,
                                  std::vector<Tape::Layer>& layers) const {
  IC_ASSERT(x.cols() == config_.in_features);
  layers.resize(convs_.size());
  const Matrix* input = &x;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    layers[i].out = convs_[i].forward(s, *input, layers[i].basis);
    input = &layers[i].out;
  }
}

double GnnRegressor::forward(const SparseMatrix& s, const Matrix& x,
                             Tape& tape) const {
  forward_layers(s, x, tape.layers);
  const Matrix& h = tape.layers.back().out;
  const Reach all{x.rows()};
  return readout(RowView(all, 0, h.data(), nullptr, h.cols()), x.rows(),
                 tape);
}

double GnnRegressor::predict(const SparseMatrix& s, const Matrix& x) const {
  Tape tape;
  return forward(s, x, tape);
}

BaseActivations GnnRegressor::base(const SparseMatrix& s, Matrix x) const {
  BaseActivations out;
  forward_layers(s, x, out.layers);
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    if (convs_[i].mode() == ConvMode::Propagate) out.layers[i].basis.clear();
  }
  out.readers = s.transpose();
  out.features = std::move(x);
  return out;
}

double GnnRegressor::predict(const SparseMatrix& s, const BaseActivations& base,
                             std::span<const std::uint32_t> rows,
                             const Matrix& values, Workspace& ws) const {
  const std::size_t n = base.features.rows();
  const std::size_t f = base.features.cols();
  IC_ASSERT(f == config_.in_features && s.rows() == n);
  IC_ASSERT(values.rows() == rows.size() && values.cols() == f);
  IC_ASSERT(base.layers.size() == convs_.size());

  // Reach: the changed rows, then ring by ring the rows that read a row of
  // the ring before, one ring per product by S. Rows are found through Sᵀ
  // (base.readers), so S need not be symmetric. A ring's readers are
  // marked, and the marked rows not yet reached are collected by one scan
  // in row order, so no ring after the first branches on a row: the order
  // of slots within a ring moves no value (DESIGN.md §8). Every slot and
  // mark is cleared first, as the previous call may have thrown or been on
  // another circuit.
  IC_ASSERT(n < kUnreached);
  if (ws.slot.size() < n) {
    ws.slot.resize(n);
    ws.marked.resize(n);
  }
  std::fill_n(ws.slot.begin(), n, kUnreached);
  std::fill_n(ws.marked.begin(), n, std::uint8_t{0});
  ws.order.resize(n + 1);  // a scan writes one entry past the rows it keeps
  std::uint32_t* slot = ws.slot.data();
  std::uint8_t* marked = ws.marked.data();
  std::uint32_t* order = ws.order.data();
  std::uint32_t reached = 0;
  ws.x.resize(n, f);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint32_t r = rows[i];
    IC_ASSERT(r < n);
    if (slot[r] == kUnreached) {
      slot[r] = reached;
      order[reached++] = r;
    }
    const double* v = values.data() + i * f;
    std::copy(v, v + f, ws.x.data() + r * f);
  }
  std::size_t hops = 0;
  for (const GraphConv& conv : convs_) hops += conv.hops();
  ws.within.assign(1, reached);
  for (std::size_t h = 1; h <= hops; ++h) {
    const std::size_t begin = h >= 2 ? ws.within[h - 2] : 0;
    const std::size_t end = ws.within[h - 1];
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::size_t r : base.readers.row_cols(order[i])) {
        marked[r] = 1;
      }
    }
    const std::uint32_t ring = reached;
    for (std::uint32_t r = 0; r < n; ++r) {
      order[reached] = r;
      reached += marked[r] & (slot[r] == kUnreached);
    }
    for (std::uint32_t i = ring; i < reached; ++i) slot[order[i]] = i;
    ws.within.push_back(reached);
  }
  const Reach reach{n, ws.order.data(), ws.slot.data(), ws.within.data()};

  // Each layer recomputes the rows its output can differ in and reads the
  // rest from the base pass.
  ws.layers.resize(convs_.size());
  RowView input(reach, 0, ws.x.data(), base.features.data(), f);
  hops = 0;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    const Tape::Layer& from = base.layers[i];
    Tape::Layer& layer = ws.layers[i];
    convs_[i].forward_rows(s, reach, hops, input, from.basis, layer.basis,
                           layer.out, ws.columns);
    hops += convs_[i].hops();
    input = RowView(reach, hops, layer.out.data(), from.out.data(),
                    convs_[i].out_features());
  }
  return readout(input, n, ws.readout);
}

double GnnRegressor::readout(const RowView& h, std::size_t n,
                             Tape& tape) const {
  const std::size_t d = config_.hidden.back();
  // Column sums in row order, as Matrix::col_sums adds them, a block of
  // columns at a time with its sums in registers.
  const auto col_sums = [&](std::vector<double>& out) {
    out.resize(d);
    graph::for_each_column_block(d, [&]<std::size_t B>(std::size_t j0) {
      double acc[B] = {};
      for (std::size_t g = 0; g < n; ++g) {
        const double* row = h(g) + j0;
        for (std::size_t j = 0; j < B; ++j) acc[j] += row[j];
      }
      for (std::size_t j = 0; j < B; ++j) out[j0 + j] = acc[j];
    });
  };
  const auto col_means = [&](std::vector<double>& out) {
    col_sums(out);
    if (n == 0) return;
    for (double& v : out) v /= static_cast<double>(n);
  };

  switch (config_.readout) {
    case Readout::Sum:
      col_sums(tape.readout);
      break;
    case Readout::Mean:
      col_means(tape.readout);
      break;
    case Readout::Attention: {
      // Feature attention: a = softmax_j(θ_j · mean_g H[g,j]).
      col_means(tape.feat_means);
      tape.feat_attention.resize(d);
      for (std::size_t j = 0; j < d; ++j) {
        tape.feat_attention[j] = theta_feat_(0, j) * tape.feat_means[j];
      }
      softmax_inplace(tape.feat_attention);
      // Per-gate scalar p_g = Σ_j a_j H[g,j], each summed from zero in
      // column order, for kRows gates at once; then gate attention
      // b = softmax_g(φ · p_g) and r = Σ_g b_g p_g. The softmax is
      // softmax_inplace's three passes, with the max taken in row order
      // as the sums are made.
      constexpr std::size_t kRows = 4;
      const double* a = tape.feat_attention.data();
      const double phi = phi_gate_(0, 0);
      tape.gate_repr.resize(n);
      tape.gate_attention.resize(n);
      double* p = tape.gate_repr.data();
      double* b = tape.gate_attention.data();
      double mx = 0.0;  // s_0, then the running max
      const auto gate_sums = [&]<std::size_t R>(std::size_t g) {
        const double* row[R];
        for (std::size_t q = 0; q < R; ++q) row[q] = h(g + q);
        double acc[R] = {};
        for (std::size_t j = 0; j < d; ++j) {
          for (std::size_t q = 0; q < R; ++q) acc[q] += a[j] * row[q][j];
        }
        for (std::size_t q = 0; q < R; ++q) {
          p[g + q] = acc[q];
          mx = g + q == 0 ? acc[q] * phi : std::max(mx, acc[q] * phi);
        }
      };
      std::size_t g = 0;
      for (; g + kRows <= n; g += kRows) gate_sums.template operator()<kRows>(g);
      for (; g < n; ++g) gate_sums.template operator()<1>(g);
      double sum = 0.0;
      for (g = 0; g < n; ++g) {
        b[g] = std::exp(p[g] * phi - mx);
        sum += b[g];
      }
      double r = 0.0;
      for (g = 0; g < n; ++g) {
        b[g] /= sum;
        r += b[g] * p[g];
      }
      tape.readout.assign(1, r);
      break;
    }
  }

  IC_ASSERT(tape.readout.size() == head_w_.rows());
  double z = head_b_(0, 0);
  for (std::size_t i = 0; i < tape.readout.size(); ++i) {
    z += tape.readout[i] * head_w_(i, 0);
  }
  tape.z = z;
  const double prediction = config_.exp_head ? softplus(z) : z;
  telemetry::mark_stage(telemetry::Stage::Readout);
  return prediction;
}

void GnnRegressor::backward(const SparseMatrix& s, const Tape& tape,
                            double d_pred, std::vector<Matrix>& grads) const {
  IC_ASSERT(tape.layers.size() == convs_.size());
  // Slots follow parameters(): each conv's W_k and b, then θ_feat and φ_gate
  // (Attention readout only), then the head's w and b.
  IC_ASSERT(grads.size() == parameters().size());
  const Matrix& h = tape.layers.back().out;
  const std::size_t d = h.cols();
  const std::size_t n = h.rows();
  std::size_t slot = grads.size();

  // Head.
  Matrix& d_head_b = grads[--slot];
  Matrix& d_head_w = grads[--slot];
  const double dz = config_.exp_head ? d_pred * sigmoid(tape.z) : d_pred;
  d_head_b(0, 0) += dz;
  std::vector<double> dr(tape.readout.size());
  for (std::size_t i = 0; i < tape.readout.size(); ++i) {
    d_head_w(i, 0) += dz * tape.readout[i];
    dr[i] = dz * head_w_(i, 0);
  }

  Matrix dh(n, d);
  switch (config_.readout) {
    case Readout::Sum:
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) dh(g, j) = dr[j];
      }
      break;
    case Readout::Mean: {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) dh(g, j) = dr[j] * inv_n;
      }
      break;
    }
    case Readout::Attention: {
      Matrix& d_phi_gate = grads[--slot];
      Matrix& d_theta_feat = grads[--slot];
      const double drs = dr[0];
      const double phi = phi_gate_(0, 0);
      // r = Σ_g b_g p_g with b = softmax(φ p).
      // dr/dp_g = b_g + φ b_g (p_g − r).
      const double r = tape.readout[0];
      std::vector<double> dp(n);
      double dphi = 0.0;
      for (std::size_t g = 0; g < n; ++g) {
        const double bg = tape.gate_attention[g];
        const double pg = tape.gate_repr[g];
        dp[g] = drs * (bg + phi * bg * (pg - r));
        dphi += drs * bg * (pg - r) * pg;
      }
      d_phi_gate(0, 0) += dphi;

      // p_g = Σ_j a_j H[g,j]; a = softmax(e), e_j = θ_j m_j, m = col means.
      std::vector<double> da(d, 0.0);
      for (std::size_t g = 0; g < n; ++g) {
        for (std::size_t j = 0; j < d; ++j) {
          dh(g, j) = dp[g] * tape.feat_attention[j];  // direct path
          da[j] += dp[g] * h(g, j);
        }
      }
      // Softmax backward.
      double dot = 0.0;
      for (std::size_t j = 0; j < d; ++j) dot += tape.feat_attention[j] * da[j];
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t j = 0; j < d; ++j) {
        const double de = tape.feat_attention[j] * (da[j] - dot);
        d_theta_feat(0, j) += de * tape.feat_means[j];
        const double dm = de * theta_feat_(0, j);
        for (std::size_t g = 0; g < n; ++g) dh(g, j) += dm * inv_n;
      }
      break;
    }
  }

  // Conv stack in reverse.
  for (std::size_t i = convs_.size(); i-- > 0;) {
    relu_backward(tape.layers[i].out, dh);
    const std::size_t width = convs_[i].order() + 1;
    slot -= width;
    dh = convs_[i].backward(s, tape.layers[i].basis, dh,
                            std::span<Matrix>(grads).subspan(slot, width));
  }
  IC_ASSERT(slot == 0);
}

std::vector<Matrix*> GnnRegressor::parameters() {
  std::vector<Matrix*> out;
  for (auto& c : convs_) {
    for (auto* p : c.parameters()) out.push_back(p);
  }
  if (config_.readout == Readout::Attention) {
    out.push_back(&theta_feat_);
    out.push_back(&phi_gate_);
  }
  out.push_back(&head_w_);
  out.push_back(&head_b_);
  return out;
}

std::vector<const Matrix*> GnnRegressor::parameters() const {
  const auto params = const_cast<GnnRegressor*>(this)->parameters();
  return {params.begin(), params.end()};
}

std::vector<Matrix> GnnRegressor::zero_gradients() const {
  std::vector<Matrix> out;
  for (const Matrix* p : parameters()) out.emplace_back(p->rows(), p->cols());
  return out;
}

std::size_t GnnRegressor::parameter_count() const {
  std::size_t count = 0;
  for (const Matrix* p : parameters()) count += p->size();
  return count;
}

}  // namespace ic::nn

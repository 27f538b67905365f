#include "ic/graph/structure.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ic/support/assert.hpp"

namespace ic::graph {

using circuit::GateId;
using circuit::Netlist;

SparseMatrix adjacency(const Netlist& nl) {
  const std::size_t n = nl.size();
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  for (GateId id = 0; id < n; ++id) {
    for (GateId f : nl.gate(id).fanins) {
      if (f == id) continue;  // no self loops in A itself
      tr.push_back(id); tc.push_back(f); tv.push_back(1.0);
      tr.push_back(f); tc.push_back(id); tv.push_back(1.0);
    }
  }
  // The adjacency is a 0/1 indicator: a gate may be connected to another
  // through several parallel wires (e.g. a LUT reading the same signal on
  // two address pins), so dedup coordinates instead of summing them.
  std::vector<std::size_t> r2, c2;
  std::vector<double> v2;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  seen.reserve(tr.size());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    seen.emplace_back(tr[i], tc[i]);
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  r2.reserve(seen.size());
  c2.reserve(seen.size());
  v2.assign(seen.size(), 1.0);
  for (const auto& [r, c] : seen) {
    r2.push_back(r);
    c2.push_back(c);
  }
  return SparseMatrix::from_triplets(n, n, std::move(r2), std::move(c2),
                                     std::move(v2));
}

SparseMatrix laplacian(const SparseMatrix& a) {
  IC_ASSERT(a.rows() == a.cols());
  const std::size_t n = a.rows();
  const auto deg = a.row_sums();
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  const Matrix ad = a.to_dense();
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double v = (r == c ? deg[r] : 0.0) - ad(r, c);
      if (v != 0.0) {
        tr.push_back(r);
        tc.push_back(c);
        tv.push_back(v);
      }
    }
  }
  return SparseMatrix::from_triplets(n, n, std::move(tr), std::move(tc),
                                     std::move(tv));
}

namespace {

/// Generic builder: out(r,c) = diag_part + scale(r,c) * A(r,c), where only
/// existing entries of A plus the diagonal are emitted.
template <typename DiagFn, typename EdgeFn>
SparseMatrix build_from_adjacency(const SparseMatrix& a, DiagFn diag, EdgeFn edge) {
  const std::size_t n = a.rows();
  const Matrix ad = a.to_dense();
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double v = (r == c) ? diag(r) : 0.0;
      if (ad(r, c) != 0.0) v += edge(r, c) * ad(r, c);
      if (v != 0.0) {
        tr.push_back(r);
        tc.push_back(c);
        tv.push_back(v);
      }
    }
  }
  return SparseMatrix::from_triplets(n, n, std::move(tr), std::move(tc),
                                     std::move(tv));
}

}  // namespace

SparseMatrix normalized_laplacian(const SparseMatrix& a) {
  IC_ASSERT(a.rows() == a.cols());
  auto deg = a.row_sums();
  std::vector<double> inv_sqrt(deg.size());
  for (std::size_t i = 0; i < deg.size(); ++i) {
    inv_sqrt[i] = deg[i] > 0.0 ? 1.0 / std::sqrt(deg[i]) : 0.0;
  }
  return build_from_adjacency(
      a, [](std::size_t) { return 1.0; },
      [&](std::size_t r, std::size_t c) { return -inv_sqrt[r] * inv_sqrt[c]; });
}

SparseMatrix gcn_propagation(const SparseMatrix& a) {
  IC_ASSERT(a.rows() == a.cols());
  auto deg = a.row_sums();
  std::vector<double> inv_sqrt(deg.size());
  for (std::size_t i = 0; i < deg.size(); ++i) {
    inv_sqrt[i] = 1.0 / std::sqrt(deg[i] + 1.0);  // +1 for the added self loop
  }
  return build_from_adjacency(
      a,
      [&](std::size_t r) { return inv_sqrt[r] * inv_sqrt[r]; },
      [&](std::size_t r, std::size_t c) { return inv_sqrt[r] * inv_sqrt[c]; });
}

SparseMatrix row_normalized_adjacency(const SparseMatrix& a) {
  IC_ASSERT(a.rows() == a.cols());
  auto deg = a.row_sums();
  std::vector<double> inv(deg.size());
  for (std::size_t i = 0; i < deg.size(); ++i) {
    inv[i] = deg[i] > 0.0 ? 1.0 / deg[i] : 0.0;
  }
  return build_from_adjacency(
      a, [](std::size_t) { return 0.0; },
      [&](std::size_t r, std::size_t) { return inv[r]; });
}

SparseMatrix scaled_laplacian(const SparseMatrix& a, double lambda_max) {
  SparseMatrix ln = normalized_laplacian(a);
  if (lambda_max <= 0.0) {
    lambda_max = ln.lambda_max();
    if (lambda_max <= 0.0) lambda_max = 2.0;
  }
  // 2 L / λmax − I, emitted entry-wise.
  const std::size_t n = ln.rows();
  const Matrix d = ln.to_dense();
  std::vector<std::size_t> tr, tc;
  std::vector<double> tv;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      double v = 2.0 * d(r, c) / lambda_max - (r == c ? 1.0 : 0.0);
      if (v != 0.0) {
        tr.push_back(r);
        tc.push_back(c);
        tv.push_back(v);
      }
    }
  }
  return SparseMatrix::from_triplets(n, n, std::move(tr), std::move(tc),
                                     std::move(tv));
}

}  // namespace ic::graph

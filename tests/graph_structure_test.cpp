#include <gtest/gtest.h>

#include <cmath>

#include "ic/circuit/library.hpp"
#include "ic/graph/structure.hpp"

namespace ic::graph {
namespace {

circuit::Netlist chain() {
  // a -> g1 -> g2 (path graph on 3 vertices once symmetrized)
  circuit::Netlist nl("chain");
  const auto a = nl.add_input("a");
  const auto g1 = nl.add_gate(circuit::GateKind::Not, {a}, "g1");
  const auto g2 = nl.add_gate(circuit::GateKind::Not, {g1}, "g2");
  nl.mark_output(g2);
  return nl;
}

TEST(Structure, AdjacencyIsSymmetricIndicator) {
  const SparseMatrix a = adjacency(chain());
  EXPECT_TRUE(a.is_symmetric());
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 0.0);  // no self loops
}

TEST(Structure, AdjacencyClampsParallelWires) {
  // A gate reading the same signal twice must still yield a 0/1 adjacency.
  circuit::Netlist nl("par");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_gate(circuit::GateKind::And, {a, b}, "g");
  const auto h = nl.add_gate(circuit::GateKind::Xor, {g, a}, "h");
  nl.rewire_fanin(h, a, g);  // h now reads g on two pins
  nl.mark_output(h);
  const SparseMatrix adj = adjacency(nl);
  EXPECT_DOUBLE_EQ(adj.at(h, g), 1.0);
  EXPECT_DOUBLE_EQ(adj.at(g, h), 1.0);
}

TEST(Structure, DegreesMatchPathGraph) {
  const auto deg = adjacency(chain()).row_sums();
  EXPECT_DOUBLE_EQ(deg[0], 1.0);
  EXPECT_DOUBLE_EQ(deg[1], 2.0);
  EXPECT_DOUBLE_EQ(deg[2], 1.0);
}

TEST(Structure, LaplacianRowsSumToZero) {
  const SparseMatrix l = laplacian(adjacency(circuit::c17()));
  const auto rs = l.row_sums();
  for (double v : rs) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Structure, LaplacianOfPath) {
  const SparseMatrix l = laplacian(adjacency(chain()));
  EXPECT_DOUBLE_EQ(l.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l.at(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(l.at(0, 1), -1.0);
}

TEST(Structure, NormalizedLaplacianSpectrumBounded) {
  const SparseMatrix ln = normalized_laplacian(adjacency(circuit::c17()));
  EXPECT_TRUE(ln.is_symmetric(1e-9));
  const double lmax = ln.lambda_max(300);
  EXPECT_GT(lmax, 0.0);
  EXPECT_LE(lmax, 2.0 + 1e-6);  // spectral theory bound for L_norm
}

TEST(Structure, GcnPropagationRowsActAsWeightedAverage) {
  // The renormalized propagation matrix applied to the all-ones vector
  // returns all ones (rows sum to 1 in the D̃-weighted sense only when
  // degrees are uniform), but it must at least be symmetric and
  // nonnegative with spectral radius <= 1.
  const SparseMatrix p = gcn_propagation(adjacency(circuit::c17()));
  EXPECT_TRUE(p.is_symmetric(1e-9));
  const Matrix d = p.to_dense();
  for (std::size_t r = 0; r < d.rows(); ++r) {
    for (std::size_t c = 0; c < d.cols(); ++c) EXPECT_GE(d(r, c), 0.0);
  }
  EXPECT_LE(p.lambda_max(300), 1.0 + 1e-6);
}

TEST(Structure, ScaledLaplacianSpectrumInMinusOneOne) {
  const SparseMatrix lt = scaled_laplacian(adjacency(circuit::c17()));
  EXPECT_LE(lt.lambda_max(300), 1.0 + 1e-4);
}

}  // namespace
}  // namespace ic::graph

namespace ic::graph {
namespace {

TEST(Structure, RowNormalizedAdjacencyRowsSumToOne) {
  const SparseMatrix a = adjacency(circuit::c17());
  const SparseMatrix s = row_normalized_adjacency(a);
  EXPECT_FALSE(s.is_symmetric());  // degree asymmetry
  for (double rs : s.row_sums()) EXPECT_NEAR(rs, 1.0, 1e-12);
}

TEST(Structure, RowNormalizedAdjacencyAveragesNeighbours) {
  // Path a—g1—g2: row of g1 averages a and g2.
  circuit::Netlist nl("p");
  const auto a = nl.add_input("a");
  const auto g1 = nl.add_gate(circuit::GateKind::Not, {a}, "g1");
  const auto g2 = nl.add_gate(circuit::GateKind::Not, {g1}, "g2");
  nl.mark_output(g2);
  const SparseMatrix s = row_normalized_adjacency(adjacency(nl));
  EXPECT_DOUBLE_EQ(s.at(g1, a), 0.5);
  EXPECT_DOUBLE_EQ(s.at(g1, g2), 0.5);
  EXPECT_DOUBLE_EQ(s.at(a, g1), 1.0);
}

}  // namespace
}  // namespace ic::graph

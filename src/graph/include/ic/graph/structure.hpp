// Graph-structure operators derived from a netlist.
//
// These are the candidate "G" representations of §III of the paper:
//   * adjacency A (ICNet's choice — no smoothness prior),
//   * combinatorial Laplacian L = D − A,
//   * symmetric normalized Laplacian L_norm = I − D^{-1/2} A D^{-1/2},
//   * Kipf–Welling GCN propagation D̃^{-1/2}(A+I)D̃^{-1/2},
//   * scaled Laplacian 2 L_norm / λ_max − I with its Chebyshev basis
//     (ChebNet).
// The circuit graph treats every gate/input as a vertex and connects each
// gate to its fanins; edges are symmetrized because the spectral machinery
// assumes undirected graphs (§II.B).
#pragma once

#include <cstdint>

#include "ic/circuit/netlist.hpp"
#include "ic/graph/sparse.hpp"

namespace ic::graph {

/// Symmetrized 0/1 adjacency matrix of the netlist's gate graph.
SparseMatrix adjacency(const circuit::Netlist& netlist);

/// Combinatorial Laplacian L = D − A.
SparseMatrix laplacian(const SparseMatrix& adjacency);

/// Symmetric normalized Laplacian I − D^{-1/2} A D^{-1/2}
/// (isolated vertices contribute identity rows).
SparseMatrix normalized_laplacian(const SparseMatrix& adjacency);

/// Kipf–Welling propagation matrix D̃^{-1/2} (A + I) D̃^{-1/2}.
SparseMatrix gcn_propagation(const SparseMatrix& adjacency);

/// Row-stochastic neighbour-averaging operator D^{-1} A (GraphSAGE's mean
/// aggregator; isolated vertices get a zero row). Note: asymmetric.
SparseMatrix row_normalized_adjacency(const SparseMatrix& adjacency);

/// Scaled Laplacian L̃ = 2 L_norm / λ_max − I used by ChebNet.
/// Pass λ_max ≤ 0 to estimate it by power iteration.
SparseMatrix scaled_laplacian(const SparseMatrix& adjacency, double lambda_max = -1.0);

}  // namespace ic::graph

// Jacobi-preconditioned conjugate gradient for graph Laplacian systems.
//
// The Laplacian is symmetric positive semi-definite with kernel spanned by
// the indicator vectors of connected components. We solve the consistent
// system L x = b for right-hand sides orthogonal to the kernel (every
// b = B^T W^{1/2} q produced by the Effective Resistance estimator is,
// because each edge contributes +w and -w to its two endpoints, which lie in
// the same component). Iterates are periodically deflated against the
// all-ones vector to suppress kernel drift from rounding.
#ifndef SPARSIFY_LINALG_CG_H_
#define SPARSIFY_LINALG_CG_H_

#include "src/graph/graph.h"
#include "src/linalg/vector_ops.h"

namespace sparsify {

/// Result of a CG solve.
struct CgResult {
  int iterations = 0;
  double residual_norm = 0.0;
  bool converged = false;
};

/// Solves L x = b to relative tolerance `tol` (on the residual norm) with at
/// most `max_iters` iterations. `x` is both the initial guess (pass zeros if
/// unknown) and the output. Degree-0 vertices are fixed at x = 0.
CgResult SolveLaplacian(const Graph& g, const Vec& b, Vec* x,
                        double tol = 1e-8, int max_iters = 2000);

/// Solves L X = B for `width` right-hand sides at once. `b` and `x` are
/// n x width row-major (column c of vertex v at v * width + c); `x` is the
/// initial guess and the output, as in SolveLaplacian. Each iteration reads
/// the edge list once for the whole block; finished columns are carried
/// along but no longer updated. Every column keeps
/// its own step sizes, convergence test, kernel break and deflation, and
/// each per-column sum runs in SolveLaplacian's order, so column c of the
/// result is bit-identical to SolveLaplacian on column c alone. Returns one
/// CgResult per column.
std::vector<CgResult> SolveLaplacianBlock(const Graph& g, const Vec& b,
                                          Vec* x, size_t width,
                                          double tol = 1e-8,
                                          int max_iters = 2000);

}  // namespace sparsify

#endif  // SPARSIFY_LINALG_CG_H_

#include "src/linalg/cg.h"

#include <cassert>
#include <cmath>

#include "src/linalg/laplacian.h"
#include "src/util/cancel.h"

namespace sparsify {

namespace {

// Jacobi preconditioner M^{-1} = 1/deg (1 for isolated vertices, whose
// rows are zero; their solution entries stay at the initial value).
Vec InverseDegrees(const Graph& g) {
  Vec minv = WeightedDegrees(g);
  for (double& d : minv) d = d > 0.0 ? 1.0 / d : 1.0;
  return minv;
}

// Y = L X for n x width row-major blocks: LaplacianMultiply's per-edge
// accumulation order, applied to every column.
void LaplacianMultiplyBlock(const Graph& g, const Vec& x, size_t width,
                            Vec* y) {
  y->assign(x.size(), 0.0);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const Edge& ed = g.CanonicalEdge(e);
    const double w = ed.w;
    const double* xu = &x[ed.u * width];
    const double* xv = &x[ed.v * width];
    double* yu = &(*y)[ed.u * width];
    double* yv = &(*y)[ed.v * width];
    for (size_t c = 0; c < width; ++c) {
      double diff = xu[c] - xv[c];
      yu[c] += w * diff;
      yv[c] -= w * diff;
    }
  }
}

// out[c] = sum_i a[i, c] * b[i, c], summed in ascending i like Dot.
void ColumnDots(const Vec& a, const Vec& b, size_t width, Vec* out) {
  out->assign(width, 0.0);
  for (size_t i = 0; i < a.size(); i += width) {
    for (size_t c = 0; c < width; ++c) (*out)[c] += a[i + c] * b[i + c];
  }
}

}  // namespace

CgResult SolveLaplacian(const Graph& g, const Vec& b, Vec* x, double tol,
                        int max_iters) {
  const size_t n = g.NumVertices();
  assert(b.size() == n);
  assert(x->size() == n);
  CgResult result;

  const Vec minv = InverseDegrees(g);

  Vec r(n), z(n), p(n), lp(n);
  LaplacianMultiply(g, *x, &lp);
  for (size_t i = 0; i < n; ++i) r[i] = b[i] - lp[i];
  double bnorm = Norm2(b);
  if (bnorm == 0.0) {
    x->assign(n, 0.0);
    result.converged = true;
    return result;
  }
  for (size_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
  p = z;
  double rz = Dot(r, z);
  for (int it = 0; it < max_iters; ++it) {
    // ER's CG solves dominate its PrepareScores cost; poll per iteration
    // (one matvec each) so a deadline lands within one iteration.
    SPARSIFY_CHECK_CANCELLED();
    result.iterations = it + 1;
    LaplacianMultiply(g, p, &lp);
    double plp = Dot(p, lp);
    if (plp <= 0.0) break;  // p in (numerical) kernel; converged as far as
                            // the consistent part goes.
    double alpha = rz / plp;
    Axpy(alpha, p, x);
    Axpy(-alpha, lp, &r);
    double rnorm = Norm2(r);
    result.residual_norm = rnorm;
    if (rnorm <= tol * bnorm) {
      result.converged = true;
      break;
    }
    for (size_t i = 0; i < n; ++i) z[i] = minv[i] * r[i];
    double rz_next = Dot(r, z);
    double beta = rz_next / rz;
    rz = rz_next;
    for (size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    // Deflate kernel drift occasionally.
    if ((it & 63) == 63) RemoveMean(x);
  }
  return result;
}

std::vector<CgResult> SolveLaplacianBlock(const Graph& g, const Vec& b,
                                          Vec* x, size_t width, double tol,
                                          int max_iters) {
  const size_t n = g.NumVertices();
  const size_t cells = n * width;
  assert(b.size() == cells);
  assert(x->size() == cells);
  std::vector<CgResult> results(width);
  if (width == 0) return results;
  Vec& xs = *x;
  const Vec minv = InverseDegrees(g);

  // SolveLaplacian's loop, one step at a time for every live column. z =
  // M^{-1} r is recomputed where it is read instead of stored: the product
  // rounds the same either way, and the block is one matrix smaller.
  Vec r(cells), p(cells), lp(cells);
  LaplacianMultiplyBlock(g, xs, width, &lp);
  for (size_t i = 0; i < cells; ++i) r[i] = b[i] - lp[i];
  Vec bnorm, rz, plp, rnorm, rz_next;
  ColumnDots(b, b, width, &bnorm);
  std::vector<uint8_t> live(width, 1);
  size_t num_live = width;
  for (size_t c = 0; c < width; ++c) {
    bnorm[c] = std::sqrt(bnorm[c]);
    if (bnorm[c] == 0.0) {
      for (size_t v = 0; v < n; ++v) xs[v * width + c] = 0.0;
      results[c].converged = true;
      live[c] = 0;
      --num_live;
    }
  }
  for (size_t v = 0; v < n; ++v) {
    for (size_t c = 0; c < width; ++c) {
      p[v * width + c] = minv[v] * r[v * width + c];
    }
  }
  ColumnDots(r, p, width, &rz);
  Vec alpha(width), beta(width);
  for (int it = 0; it < max_iters && num_live > 0; ++it) {
    // One poll per block iteration: one blocked matvec each.
    SPARSIFY_CHECK_CANCELLED();
    LaplacianMultiplyBlock(g, p, width, &lp);
    ColumnDots(p, lp, width, &plp);
    for (size_t c = 0; c < width; ++c) {
      if (!live[c]) continue;
      results[c].iterations = it + 1;
      if (plp[c] <= 0.0) {  // p in (numerical) kernel
        live[c] = 0;
        --num_live;
        continue;
      }
      alpha[c] = rz[c] / plp[c];
    }
    for (size_t i = 0; i < cells; i += width) {
      for (size_t c = 0; c < width; ++c) {
        if (!live[c]) continue;
        xs[i + c] += alpha[c] * p[i + c];
        r[i + c] += -alpha[c] * lp[i + c];
      }
    }
    ColumnDots(r, r, width, &rnorm);
    for (size_t c = 0; c < width; ++c) {
      if (!live[c]) continue;
      rnorm[c] = std::sqrt(rnorm[c]);
      results[c].residual_norm = rnorm[c];
      if (rnorm[c] <= tol * bnorm[c]) {
        results[c].converged = true;
        live[c] = 0;
        --num_live;
      }
    }
    rz_next.assign(width, 0.0);
    for (size_t v = 0; v < n; ++v) {
      for (size_t c = 0; c < width; ++c) {
        const double rv = r[v * width + c];
        rz_next[c] += rv * (minv[v] * rv);
      }
    }
    for (size_t c = 0; c < width; ++c) {
      if (!live[c]) continue;
      beta[c] = rz_next[c] / rz[c];
      rz[c] = rz_next[c];
    }
    for (size_t v = 0; v < n; ++v) {
      for (size_t c = 0; c < width; ++c) {
        if (!live[c]) continue;
        double& pv = p[v * width + c];
        pv = minv[v] * r[v * width + c] + beta[c] * pv;
      }
    }
    if ((it & 63) == 63) {  // deflate kernel drift, column by column
      for (size_t c = 0; c < width; ++c) {
        if (!live[c]) continue;
        double sum = 0.0;
        for (size_t v = 0; v < n; ++v) sum += xs[v * width + c];
        const double mean = sum / static_cast<double>(n);
        for (size_t v = 0; v < n; ++v) xs[v * width + c] -= mean;
      }
    }
  }
  return results;
}

}  // namespace sparsify

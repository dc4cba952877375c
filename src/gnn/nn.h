// Dense neural-network kernels for the CPU GNN substrate: a row-major
// matrix type, matmul variants, ReLU, softmax cross-entropy, and Adam.
//
// The paper trains GraphSAGE and ClusterGCN with PyG on an A40 GPU; this
// reproduction implements the same computations (mean-aggregation message
// passing + MLP + softmax classification) directly, sized for CPU training
// on the synthetic stand-in datasets (src/graph/datasets.h).
#ifndef SPARSIFY_GNN_NN_H_
#define SPARSIFY_GNN_NN_H_

#include <cstddef>
#include <vector>

#include "src/util/rng.h"

namespace sparsify {

/// Row-major dense matrix.
struct Matrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<double> data;

  Matrix() = default;
  Matrix(size_t r, size_t c) : rows(r), cols(c), data(r * c, 0.0) {}

  double& At(size_t r, size_t c) { return data[r * cols + c]; }
  double At(size_t r, size_t c) const { return data[r * cols + c]; }
  double* Row(size_t r) { return data.data() + r * cols; }
  const double* Row(size_t r) const { return data.data() + r * cols; }
  void Zero() { std::fill(data.begin(), data.end(), 0.0); }
};

/// C = A * B.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B.
Matrix MatTMul(const Matrix& a, const Matrix& b);
/// C = A * B^T.
Matrix MatMulT(const Matrix& a, const Matrix& b);
/// Horizontal concatenation [A | B].
Matrix HConcat(const Matrix& a, const Matrix& b);
/// Splits the columns of `ab` back into two blocks of widths ca and cb.
void HSplit(const Matrix& ab, size_t ca, Matrix* a, Matrix* b);

/// In-place ReLU; returns the pre-activation copy needed for the backward
/// pass via the mask convention relu'(x) = [x > 0].
void ReluInPlace(Matrix* m);
/// grad *= [pre > 0] elementwise.
void ReluBackward(const Matrix& post_activation, Matrix* grad);

/// Adds row vector `bias` (1 x cols) to every row.
void AddBias(const Matrix& bias, Matrix* m);

/// Glorot-uniform initialization.
void GlorotInit(Matrix* m, Rng& rng);

/// Softmax cross-entropy over the rows listed in `rows`. Writes the
/// loss gradient (dL/dlogits, zero outside `rows`) into `grad` and returns
/// the mean loss. `labels[r]` is the class index of row r.
double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels,
                           const std::vector<int>& rows, Matrix* grad);

/// Row-wise argmax predictions.
std::vector<int> ArgmaxRows(const Matrix& logits);

/// Adam optimizer state for one parameter matrix.
class Adam {
 public:
  Adam(size_t rows, size_t cols, double lr = 1e-2, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  /// Applies one Adam update: param -= lr * mhat / (sqrt(vhat) + eps).
  void Step(const Matrix& grad, Matrix* param);

 private:
  Matrix m_, v_;
  double lr_, beta1_, beta2_, eps_;
  int t_ = 0;
};

}  // namespace sparsify

#endif  // SPARSIFY_GNN_NN_H_

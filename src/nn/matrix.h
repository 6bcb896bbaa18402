// Dense row-major float matrix and the handful of kernels the GNN needs.
//
// MatMul and MatMulTransA are cache-blocked, register-tiled kernels written
// so the compiler's auto-vectorizer can keep the accumulators in vector
// registers -- no BLAS dependency and no fast-math; MatMulTransB is MatMul on
// a transposed copy of b.  Large shapes run on the default pool (ParallelFor,
// sized by --threads) with blocking that is fixed and shape-only (never a
// function of the thread count), so results are bit-identical run-to-run and
// across worker-pool sizes.  These GEMMs are the only NN kernels that fan
// out; every tape op and Adam runs serially.  The naive reference kernels
// are retained (`*Reference`) for tests and microbenchmarks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mcm {

struct Matrix {
  int rows = 0;
  int cols = 0;
  std::vector<float> data;  // Row-major, size rows*cols.

  Matrix() = default;
  Matrix(int r, int c) : rows(r), cols(c), data(static_cast<std::size_t>(r) * c, 0.0f) {}

  float& at(int r, int c) { return data[static_cast<std::size_t>(r) * cols + c]; }
  float at(int r, int c) const {
    return data[static_cast<std::size_t>(r) * cols + c];
  }
  std::span<float> row(int r) {
    return std::span<float>(data).subspan(static_cast<std::size_t>(r) * cols,
                                          static_cast<std::size_t>(cols));
  }
  std::span<const float> row(int r) const {
    return std::span<const float>(data).subspan(
        static_cast<std::size_t>(r) * cols, static_cast<std::size_t>(cols));
  }
  void Zero() { std::fill(data.begin(), data.end(), 0.0f); }
  bool SameShape(const Matrix& other) const {
    return rows == other.rows && cols == other.cols;
  }
};

// out = a * b.  Shapes: [m x k] * [k x n] -> [m x n].  `accumulate` adds
// into `out` instead of overwriting (used by backward passes); when `out`
// has the wrong shape it is reallocated and the call behaves like a plain
// overwrite.
void MatMul(const Matrix& a, const Matrix& b, Matrix& out,
            bool accumulate = false);

// out = a^T * b.  Shapes: [k x m]^T * [k x n] -> [m x n].
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix& out,
                  bool accumulate = false);

// out = a * b^T.  Shapes: [m x k] * [n x k]^T -> [m x n].  Runs MatMul on a
// transposed copy of b, so it is bit-identical to MatMul(a, transpose(b)).
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix& out,
                  bool accumulate = false);

// Naive scalar triple-loop references, kept as the ground truth for kernel
// tests and as the baseline side of the GEMM microbenchmarks.  Semantics
// match the blocked kernels up to floating-point summation order.
void MatMulReference(const Matrix& a, const Matrix& b, Matrix& out,
                     bool accumulate = false);
void MatMulTransAReference(const Matrix& a, const Matrix& b, Matrix& out,
                           bool accumulate = false);
void MatMulTransBReference(const Matrix& a, const Matrix& b, Matrix& out,
                           bool accumulate = false);

// Gaussian init scaled by sqrt(2 / fan_in) (He) or Xavier-uniform.
void InitHe(Matrix& m, int fan_in, Rng& rng);
void InitXavier(Matrix& m, int fan_in, int fan_out, Rng& rng);

}  // namespace mcm

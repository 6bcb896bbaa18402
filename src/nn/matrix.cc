#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/logging.h"
#include "nn/arena.h"
#include "runtime/thread_pool.h"

namespace mcm {
namespace {

// ---- Blocking parameters ----------------------------------------------------
//
// All blocking decisions are pure functions of the operand shapes: micro-tile
// sizes are compile-time constants, the parallel cutover is a flop threshold,
// and parallel work is split into fixed-size panels/slabs.  Every output
// element is therefore produced by exactly one task with a fixed summation
// order, which keeps results bit-identical run-to-run and for any worker-pool
// size (including 1).  No fast-math anywhere: every kernel sums each output
// element in k-ascending order, as the reference kernels do.

// Register micro-tile, sized for the widest vector ISA this translation
// unit is compiled for (CMake builds it with -march=native when the host
// supports it; see src/nn/CMakeLists.txt and MCM_NATIVE_KERNELS).  The
// accumulator block `rows x cols` floats must fit the register file with
// room for the streamed b-row and the broadcast a-value:
//   AVX-512: 6x32 = 12 zmm accumulators (of 32)
//   AVX2+FMA: 6x16 = 12 ymm accumulators (of 16)
//   baseline SSE2: 4x8 = 8 xmm accumulators (of 16)
// Tile sizes are compile-time constants, so blocking -- and therefore every
// floating-point summation order -- is fixed per build.
#if defined(__AVX512F__)
constexpr int kMicroRows = 6;
constexpr int kMicroCols = 32;
#elif defined(__AVX2__) && defined(__FMA__)
constexpr int kMicroRows = 6;
constexpr int kMicroCols = 16;
#else
constexpr int kMicroRows = 4;
constexpr int kMicroCols = 8;
#endif
// Rows of `out` per parallel task (MatMul row split; MatMulTransB reuses it).
constexpr int kPanelRows = 64;
// Reduction rows per parallel slab (MatMulTransA k split); partial sums are
// combined serially in slab order.
constexpr int kSlabRows = 256;
// Minimum work (2*m*n*k flops) before going parallel; below this the fork
// overhead dominates.  Roughly a 128x128x128 product.
constexpr std::int64_t kParallelMinFlops = std::int64_t{1} << 22;

std::int64_t FlopCount(int m, int n, int k) {
  return 2 * static_cast<std::int64_t>(m) * n * k;
}

// Gives `out` the requested shape without zeroing (callers overwrite every
// element).  Retired storage goes back to the scratch arena.
void EnsureShape(Matrix& out, int rows, int cols) {
  if (out.rows == rows && out.cols == cols) return;
  ScratchArena::Release(std::move(out));
  out = ScratchArena::AcquireUninit(rows, cols);
}

// Stores a rows x cols accumulator tile into c.
inline void StoreTile(const float acc[kMicroRows][kMicroCols], float* c,
                      std::size_t ldc, int rows, int cols, bool accumulate) {
  for (int i = 0; i < rows; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (accumulate) {
      for (int j = 0; j < cols; ++j) crow[j] += acc[i][j];
    } else {
      for (int j = 0; j < cols; ++j) crow[j] = acc[i][j];
    }
  }
}

// ---- MatMul: out[i,j] = sum_k a[i,k] * b[k,j] -------------------------------

// One rows x cols tile (rows <= kMicroRows, cols <= kMicroCols) of a*b,
// streaming k with the accumulators in registers.  Per-element summation
// order is k-ascending, identical to the reference kernel.  `a` points at
// (i0, 0), `b` at (0, j0), `c` at (i0, j0).  When kFullTile is set the loop
// bounds are the compile-time micro-tile so the compiler fully unrolls and
// vectorizes.
template <bool kFullTile>
void MatMulTile(const float* a, std::size_t lda, const float* b,
                std::size_t ldb, float* c, std::size_t ldc, int kk, int rows,
                int cols, bool accumulate) {
  float acc[kMicroRows][kMicroCols] = {};
  const int r = kFullTile ? kMicroRows : rows;
  const int n = kFullTile ? kMicroCols : cols;
  for (int k = 0; k < kk; ++k) {
    const float* brow = b + static_cast<std::size_t>(k) * ldb;
    for (int i = 0; i < r; ++i) {
      const float av = a[static_cast<std::size_t>(i) * lda + k];
      for (int j = 0; j < n; ++j) acc[i][j] += av * brow[j];
    }
  }
  StoreTile(acc, c, ldc, r, n, accumulate);
}

void MatMulPanel(const Matrix& a, const Matrix& b, Matrix& out,
                 bool accumulate, int row_begin, int row_end) {
  const int kk = a.cols;
  const int n = b.cols;
  const auto lda = static_cast<std::size_t>(a.cols);
  const auto ldb = static_cast<std::size_t>(b.cols);
  const auto ldc = static_cast<std::size_t>(out.cols);
  for (int i = row_begin; i < row_end; i += kMicroRows) {
    const int rows = std::min(kMicroRows, row_end - i);
    for (int j = 0; j < n; j += kMicroCols) {
      const int cols = std::min(kMicroCols, n - j);
      const float* ap = a.data.data() + static_cast<std::size_t>(i) * lda;
      const float* bp = b.data.data() + j;
      float* cp = out.data.data() + static_cast<std::size_t>(i) * ldc + j;
      if (rows == kMicroRows && cols == kMicroCols) {
        MatMulTile<true>(ap, lda, bp, ldb, cp, ldc, kk, rows, cols,
                         accumulate);
      } else {
        MatMulTile<false>(ap, lda, bp, ldb, cp, ldc, kk, rows, cols,
                          accumulate);
      }
    }
  }
}

// ---- MatMulTransA: out[i,j] = sum_k a[k,i] * b[k,j] -------------------------

// One tile of a^T*b over the reduction range [k_begin, k_end).  `a` points
// at (0, i0), `b` at (0, j0), `c` at (i0, j0); both operand loads are
// contiguous (a[k, i0..] and b[k, j0..]).
template <bool kFullTile>
void MatMulTransATile(const float* a, std::size_t lda, const float* b,
                      std::size_t ldb, float* c, std::size_t ldc, int k_begin,
                      int k_end, int rows, int cols, bool accumulate) {
  float acc[kMicroRows][kMicroCols] = {};
  const int r = kFullTile ? kMicroRows : rows;
  const int n = kFullTile ? kMicroCols : cols;
  for (int k = k_begin; k < k_end; ++k) {
    const float* arow = a + static_cast<std::size_t>(k) * lda;
    const float* brow = b + static_cast<std::size_t>(k) * ldb;
    for (int i = 0; i < r; ++i) {
      const float av = arow[i];
      for (int j = 0; j < n; ++j) acc[i][j] += av * brow[j];
    }
  }
  StoreTile(acc, c, ldc, r, n, accumulate);
}

// Computes the full m x n output (or a k-slab partial of it) into raw
// storage `c` with leading dimension ldc.
void MatMulTransAPanel(const Matrix& a, const Matrix& b, float* c,
                       std::size_t ldc, bool accumulate, int k_begin,
                       int k_end) {
  const int m = a.cols;
  const int n = b.cols;
  const auto lda = static_cast<std::size_t>(a.cols);
  const auto ldb = static_cast<std::size_t>(b.cols);
  for (int i = 0; i < m; i += kMicroRows) {
    const int rows = std::min(kMicroRows, m - i);
    for (int j = 0; j < n; j += kMicroCols) {
      const int cols = std::min(kMicroCols, n - j);
      const float* ap = a.data.data() + i;
      const float* bp = b.data.data() + j;
      float* cp = c + static_cast<std::size_t>(i) * ldc + j;
      if (rows == kMicroRows && cols == kMicroCols) {
        MatMulTransATile<true>(ap, lda, bp, ldb, cp, ldc, k_begin, k_end,
                               rows, cols, accumulate);
      } else {
        MatMulTransATile<false>(ap, lda, bp, ldb, cp, ldc, k_begin, k_end,
                                rows, cols, accumulate);
      }
    }
  }
}

// Splits [0, rows) into fixed kPanelRows-row panels executed on the default
// pool.  Panel boundaries depend only on `rows`.
template <typename PanelFn>
void ParallelOverRowPanels(int rows, const PanelFn& panel) {
  const int num_panels = (rows + kPanelRows - 1) / kPanelRows;
  ParallelFor(0, num_panels, [&](std::int64_t p) {
    const int begin = static_cast<int>(p) * kPanelRows;
    const int end = std::min(rows, begin + kPanelRows);
    panel(begin, end);
  });
}

}  // namespace

// MCM_CONTRACT(deterministic): fixed shape-only row panels; each output
// element is written by exactly one task in the serial summation order.
void MatMul(const Matrix& a, const Matrix& b, Matrix& out, bool accumulate) {
  MCM_CHECK_EQ(a.cols, b.rows);
  const bool fresh = !accumulate || out.rows != a.rows || out.cols != b.cols;
  if (fresh) EnsureShape(out, a.rows, b.cols);
  // A reallocated output has unspecified contents, so accumulate degrades to
  // a plain overwrite (same semantics as accumulating into zeros).
  const bool acc = accumulate && !fresh;
  if (FlopCount(a.rows, b.cols, a.cols) >= kParallelMinFlops &&
      a.rows > kPanelRows) {
    ParallelOverRowPanels(a.rows, [&](int begin, int end) {
      MatMulPanel(a, b, out, acc, begin, end);
    });
  } else {
    MatMulPanel(a, b, out, acc, 0, a.rows);
  }
}

// MCM_CONTRACT(deterministic): fixed k-slabs with a serial slab-order
// reduction of the partials.
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix& out,
                  bool accumulate) {
  MCM_CHECK_EQ(a.rows, b.rows);
  const bool fresh = !accumulate || out.rows != a.cols || out.cols != b.cols;
  if (fresh) EnsureShape(out, a.cols, b.cols);
  const bool acc = accumulate && !fresh;
  const int m = a.cols;
  const int n = b.cols;
  const int kk = a.rows;
  // The output is small (m, n are hidden dimensions) while the reduction is
  // long (kk is the node count), so the parallel split is over fixed k-slabs
  // whose partials are reduced serially in slab order.
  if (FlopCount(m, n, kk) >= kParallelMinFlops && kk >= 2 * kSlabRows) {
    const int num_slabs = (kk + kSlabRows - 1) / kSlabRows;
    const std::size_t tile = static_cast<std::size_t>(m) * n;
    std::vector<float> partials =
        ScratchArena::AcquireBuffer(tile * static_cast<std::size_t>(num_slabs));
    ParallelFor(0, num_slabs, [&](std::int64_t s) {
      const int k_begin = static_cast<int>(s) * kSlabRows;
      const int k_end = std::min(kk, k_begin + kSlabRows);
      MatMulTransAPanel(a, b, partials.data() + static_cast<std::size_t>(s) * tile,
                        static_cast<std::size_t>(n), /*accumulate=*/false,
                        k_begin, k_end);
    });
    // Ordered reduction: slab s is always added after slab s-1.
    float* dst = out.data.data();
    for (int s = 0; s < num_slabs; ++s) {
      const float* src = partials.data() + static_cast<std::size_t>(s) * tile;
      if (s == 0 && !acc) {
        std::copy(src, src + tile, dst);
      } else {
        for (std::size_t idx = 0; idx < tile; ++idx) dst[idx] += src[idx];
      }
    }
    ScratchArena::ReleaseBuffer(std::move(partials));
  } else {
    MatMulTransAPanel(a, b, out.data.data(), static_cast<std::size_t>(n), acc,
                      0, kk);
  }
}

// MCM_CONTRACT(deterministic): b is transposed once, then the product runs on
// MatMul's fixed shape-only row panels and tiles.
void MatMulTransB(const Matrix& a, const Matrix& b, Matrix& out,
                  bool accumulate) {
  MCM_CHECK_EQ(a.cols, b.cols);
  Matrix bt = ScratchArena::AcquireUninit(b.cols, b.rows);
  for (int j = 0; j < b.rows; ++j) {
    const auto brow = b.row(j);
    for (int k = 0; k < b.cols; ++k) bt.at(k, j) = brow[k];
  }
  MatMul(a, bt, out, accumulate);
  ScratchArena::Release(std::move(bt));
}

}  // namespace mcm

// Low-level dense kernels shared by Vector/Matrix and the hot paths.
//
// Every higher-level operation (dot, norms, axpy, matvec, gemm) funnels
// through these raw-pointer loops so the hot paths have exactly one place
// where floating-point evaluation order is decided.  The determinism
// contract (docs/PERFORMANCE.md, "Determinism vs. speed"): every
// reduction accumulates in ascending index order with a single
// accumulator — bit-identical to the naive reference loops the library
// used before the kernels existed, so golden traces and the
// cross-thread-count manifests are unchanged.
//
// Element-wise kernels (axpy, add, sub, scale) have no reduction, so
// they are free to vectorize.  The matrix kernels (matvec,
// matvec_transposed, gemm_add) restructure loops only in ways that keep
// every output's own accumulation order (row interleaving, output
// blocking).
#pragma once

#include <cstddef>

namespace redopt::linalg::kernels {

/// <a, b> over n entries.
double dot(const double* a, const double* b, std::size_t n);

/// sum a_i^2.
double norm_squared(const double* a, std::size_t n);

/// sum (a_i - b_i)^2.
double distance_squared(const double* a, const double* b, std::size_t n);

/// y += alpha * x (element-wise; order-independent, always vectorizable).
void axpy(double* y, double alpha, const double* x, std::size_t n);

/// y += x.
void add(double* y, const double* x, std::size_t n);

/// y -= x.
void sub(double* y, const double* x, std::size_t n);

/// y *= alpha.
void scale(double* y, double alpha, std::size_t n);

/// out = A x for row-major A (rows x cols).  Eight rows per pass, each
/// with its own accumulator in ascending column order, so out[i] is bit-
/// identical to a strict single-accumulator dot of row i in both builds.
void matvec(const double* a, std::size_t rows, std::size_t cols, const double* x, double* out);

/// out = A^T x for row-major A (rows x cols).  Accumulates row-by-row in
/// ascending row order (out[j] += a(i,j) * x[i]); rows whose x[i] is
/// exactly 0.0 are skipped, matching the historical sparse-friendly loop
/// bit for bit (adding a 0.0 product could flip a -0.0 sign).  @p out is
/// zero-initialised by the kernel.
void matvec_transposed(const double* a, std::size_t rows, std::size_t cols, const double* x,
                       double* out);

/// C += A B ("gemm-lite"): row-major A (m x k), B (k x n), C (m x n).
/// Blocked over the output for cache locality; the accumulation over k
/// stays in ascending order for every C(i,j), and rows of A with an
/// exactly-zero entry skip that term, so the result is bit-identical to
/// the naive triple loop (and to linalg::matmul).  @p c is NOT cleared —
/// callers wanting C = A B must zero it first.
void gemm_add(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
              std::size_t n);

/// sum a_i over n contiguous entries.  Strict mode: single accumulator in
/// ascending index order; fast mode: 4-lane partial sums (same reordering
/// contract as dot / norm_squared).
double sum(const double* a, std::size_t n);

/// <a, b> over n entries read with the given strides (a[i * stride_a],
/// b[i * stride_b]).  Always a single accumulator in ascending i order —
/// strided access does not vectorize profitably, so there is no fast-mode
/// variant and the result is bit-identical in both builds.  The column-dot
/// inside Gram-matrix assembly is the canonical caller.
double dot_strided(const double* a, std::size_t stride_a, const double* b, std::size_t stride_b,
                   std::size_t n);

/// Streamed reduction with pinned evaluation order, for accumulations
/// whose terms arrive one call at a time (per-agent cost values, per-shell
/// probe statistics) rather than as a contiguous array.  add() folds each
/// term into a single accumulator in call order.  Every floating-point
/// accumulation loop outside this layer should either call sum()/dot() on
/// a staged buffer or fold through a Sum — that is what keeps the
/// FP-order authority in one place (redopt-analyze rule B1).
class Sum {
 public:
  /// Folds @p term into the running total (strict call order).
  void add(double term) { total_ += term; }
  /// The running total; identity (0.0) when nothing was added.
  double value() const { return total_; }

 private:
  double total_ = 0.0;
};

}  // namespace redopt::linalg::kernels

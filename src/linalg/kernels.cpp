#include "linalg/kernels.h"

#include <algorithm>

namespace redopt::linalg::kernels {

bool fast_mode() {
#ifdef REDOPT_FAST_KERNELS
  return true;
#else
  return false;
#endif
}

#ifdef REDOPT_FAST_KERNELS

// Reordered reductions: 4 independent partial sums, folded pairwise at the
// end.  Not bit-identical to the strict loops — gated behind the build
// flag precisely because of that (see kernels.h).
double dot(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * b[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

double norm_squared(const double* a, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * a[i];
    s1 += a[i + 1] * a[i + 1];
    s2 += a[i + 2] * a[i + 2];
    s3 += a[i + 3] * a[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i] * a[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

double distance_squared(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}

double sum(const double* a, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i];
    s1 += a[i + 1];
    s2 += a[i + 2];
    s3 += a[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += a[i];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

#else  // strict mode (default): single accumulator, ascending index order

double dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double norm_squared(const double* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * a[i];
  return acc;
}

double distance_squared(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double sum(const double* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}

#endif  // REDOPT_FAST_KERNELS

double dot_strided(const double* a, std::size_t stride_a, const double* b, std::size_t stride_b,
                   std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i * stride_a] * b[i * stride_b];
  return acc;
}

void axpy(double* y, double alpha, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void add(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += x[i];
}

void sub(double* y, const double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
}

void scale(double* y, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] *= alpha;
}

void matvec(const double* a, std::size_t rows, std::size_t cols, const double* x, double* out) {
  // Eight rows per pass, each with its own accumulator summed in
  // ascending column order: every out[i] is bit-identical to a strict
  // single-accumulator dot of row i, and the eight independent add
  // chains overlap their latencies.  Leftover rows go through
  // dot_strided, which is strict in both builds.
  std::size_t i = 0;
  for (; i + 8 <= rows; i += 8) {
    const double* r = a + i * cols;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      const double xj = x[j];
      s0 += r[j] * xj;
      s1 += r[cols + j] * xj;
      s2 += r[2 * cols + j] * xj;
      s3 += r[3 * cols + j] * xj;
      s4 += r[4 * cols + j] * xj;
      s5 += r[5 * cols + j] * xj;
      s6 += r[6 * cols + j] * xj;
      s7 += r[7 * cols + j] * xj;
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
    out[i + 4] = s4;
    out[i + 5] = s5;
    out[i + 6] = s6;
    out[i + 7] = s7;
  }
  for (; i < rows; ++i) out[i] = dot_strided(a + i * cols, 1, x, 1, cols);
}

void matvec_transposed(const double* a, std::size_t rows, std::size_t cols, const double* x,
                       double* out) {
  std::fill(out, out + cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    axpy(out, xi, a + i * cols, cols);
  }
}

void gemm_add(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
              std::size_t n) {
  // Block the j (output-column) dimension so a tile of C and the matching
  // tile of each B row stay cache-resident across the k sweep.  For every
  // C(i,j) the k accumulation is still strictly ascending.
  constexpr std::size_t kBlock = 128;
  for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
    const std::size_t j1 = std::min(n, j0 + kBlock);
    for (std::size_t i = 0; i < m; ++i) {
      const double* ai = a + i * k;
      double* ci = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = ai[kk];
        if (aik == 0.0) continue;
        const double* bk = b + kk * n;
        for (std::size_t j = j0; j < j1; ++j) ci[j] += aik * bk[j];
      }
    }
  }
}

}  // namespace redopt::linalg::kernels

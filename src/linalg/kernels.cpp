#include "linalg/kernels.h"

#include <algorithm>

namespace redopt::linalg::kernels {

// Reductions: a single accumulator in ascending index order.

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
  // Eight output columns per pass, each summed in its own register over
  // the rows in ascending order: every out[j] is bit-identical to the
  // row-wise axpy below, but the pass never stores into out inside its
  // inner loop.  The axpy form reloads and stores out for every row, and
  // its speed depends on where out sits relative to a (a store sharing a
  // 4 KiB page offset with a later load of a stalls that load): measured
  // 2-3x swings across heap layouts at 64 x 64, enough to move redoptd's
  // slice time by a third from one allocation change to the next.
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      const double* r = a + i * cols + j;
      s0 += xi * r[0];
      s1 += xi * r[1];
      s2 += xi * r[2];
      s3 += xi * r[3];
      s4 += xi * r[4];
      s5 += xi * r[5];
      s6 += xi * r[6];
      s7 += xi * r[7];
    }
    out[j] = s0;
    out[j + 1] = s1;
    out[j + 2] = s2;
    out[j + 3] = s3;
    out[j + 4] = s4;
    out[j + 5] = s5;
    out[j + 6] = s6;
    out[j + 7] = s7;
  }
  if (j == cols) return;
  std::fill(out + j, out + cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    axpy(out + j, xi, a + i * cols + j, cols - j);
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

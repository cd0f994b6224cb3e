#include "linalg/decompose.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace redopt::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  REDOPT_REQUIRE(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return l;
}

std::optional<Vector> solve_spd(const Matrix& a, const Vector& b) {
  REDOPT_REQUIRE(a.rows() == b.size(), "solve_spd dimension mismatch");
  auto l = cholesky(a);
  if (!l) return std::nullopt;
  const std::size_t n = a.rows();
  // Forward substitution L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= (*l)(i, k) * y[k];
    y[i] = acc / (*l)(i, i);
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = y[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= (*l)(k, i) * x[k];
    x[i] = acc / (*l)(i, i);
  }
  return x;
}

namespace {

// Applies the Householder reflector I - beta v v^T held in column k of
// @p qr (v_k = 1, v_i = qr(i, k) for i > k) to columns j..j+7:
//   s_c = beta (qr(k, c) + sum_{i>k} v_i qr(i, c)),   qr(i, c) -= s_c v_i.
// The eight sums stay in registers while the rows go by in ascending
// order (the kernels::matvec_transposed pattern), so every s_c and every
// updated entry is bit-identical to a loop down one column at a time.
void reflect_eight_columns(Matrix& qr, std::size_t k, std::size_t j, double beta) {
  const std::size_t m = qr.rows();
  double* row_k = &qr(k, j);
  double s0 = row_k[0], s1 = row_k[1], s2 = row_k[2], s3 = row_k[3];
  double s4 = row_k[4], s5 = row_k[5], s6 = row_k[6], s7 = row_k[7];
  for (std::size_t i = k + 1; i < m; ++i) {
    const double v = qr(i, k);
    const double* r = &qr(i, j);
    s0 += v * r[0];
    s1 += v * r[1];
    s2 += v * r[2];
    s3 += v * r[3];
    s4 += v * r[4];
    s5 += v * r[5];
    s6 += v * r[6];
    s7 += v * r[7];
  }
  s0 *= beta;
  s1 *= beta;
  s2 *= beta;
  s3 *= beta;
  s4 *= beta;
  s5 *= beta;
  s6 *= beta;
  s7 *= beta;
  row_k[0] -= s0;
  row_k[1] -= s1;
  row_k[2] -= s2;
  row_k[3] -= s3;
  row_k[4] -= s4;
  row_k[5] -= s5;
  row_k[6] -= s6;
  row_k[7] -= s7;
  for (std::size_t i = k + 1; i < m; ++i) {
    const double v = qr(i, k);
    double* r = &qr(i, j);
    r[0] -= s0 * v;
    r[1] -= s1 * v;
    r[2] -= s2 * v;
    r[3] -= s3 * v;
    r[4] -= s4 * v;
    r[5] -= s5 * v;
    r[6] -= s6 * v;
    r[7] -= s7 * v;
  }
}

// The same for columns j..n-1 (fewer than eight), one sum per column in
// s[0, n - j), each in ascending row order.
void reflect_columns(Matrix& qr, std::size_t k, std::size_t j, double beta, double* s) {
  const std::size_t m = qr.rows();
  const std::size_t width = qr.cols() - j;
  double* row_k = &qr(k, j);
  for (std::size_t c = 0; c < width; ++c) s[c] = row_k[c];
  for (std::size_t i = k + 1; i < m; ++i) {
    const double v = qr(i, k);
    const double* r = &qr(i, j);
    for (std::size_t c = 0; c < width; ++c) s[c] += v * r[c];
  }
  for (std::size_t c = 0; c < width; ++c) {
    s[c] *= beta;
    row_k[c] -= s[c];
  }
  for (std::size_t i = k + 1; i < m; ++i) {
    const double v = qr(i, k);
    double* r = &qr(i, j);
    for (std::size_t c = 0; c < width; ++c) r[c] -= s[c] * v;
  }
}

}  // namespace

QrDecomposition::QrDecomposition(const Matrix& a, bool pivot)
    : m_(a.rows()), n_(a.cols()), qr_(a), beta_(std::min(a.rows(), a.cols()), 0.0), perm_(a.cols()) {
  REDOPT_REQUIRE(m_ > 0 && n_ > 0, "QR of an empty matrix");
  for (std::size_t j = 0; j < n_; ++j) perm_[j] = j;

  // colnorm[0, n) holds the squared norms of the trailing part of each
  // column, for pivot selection; colnorm[n, 2n) holds reflect_columns'
  // sums.  qr_ is row-major, so the norms are summed row by row, one sum
  // per column in ascending row order, as a loop down each column would.
  std::vector<double> colnorm(2 * n_, 0.0);
  double* const dots = colnorm.data() + n_;
  for (std::size_t i = 0; i < m_; ++i) {
    const double* row = qr_.row_data(i);
    for (std::size_t j = 0; j < n_; ++j) colnorm[j] += row[j] * row[j];
  }

  const std::size_t steps = std::min(m_, n_);
  for (std::size_t k = 0; k < steps; ++k) {
    if (pivot) {
      std::size_t best = k;
      for (std::size_t j = k + 1; j < n_; ++j)
        if (colnorm[j] > colnorm[best]) best = j;
      if (best != k) {
        for (std::size_t i = 0; i < m_; ++i) std::swap(qr_(i, k), qr_(i, best));
        std::swap(colnorm[k], colnorm[best]);
        std::swap(perm_[k], perm_[best]);
      }
    }

    // Householder vector for column k, rows k..m-1.
    double normx = 0.0;
    for (std::size_t i = k; i < m_; ++i) normx += qr_(i, k) * qr_(i, k);
    normx = std::sqrt(normx);
    if (normx == 0.0) {
      beta_[k] = 0.0;
      continue;  // column already zero below the diagonal
    }
    const double alpha = qr_(k, k) >= 0.0 ? -normx : normx;
    const double v0 = qr_(k, k) - alpha;
    qr_(k, k) = alpha;  // R diagonal entry
    // Store v (scaled so v[0] = 1) below the diagonal.
    for (std::size_t i = k + 1; i < m_; ++i) qr_(i, k) /= v0;
    beta_[k] = -v0 / alpha;  // = 2 / (v^T v) with the v[0] = 1 scaling

    // Apply the reflector to the trailing columns: eight at a time with
    // the sums in registers, then the leftover ones with theirs in `dots`.
    std::size_t j = k + 1;
    for (; j + 8 <= n_; j += 8) reflect_eight_columns(qr_, k, j, beta_[k]);
    if (j < n_) reflect_columns(qr_, k, j, beta_[k], dots + j);
    // Downdate the trailing column norms for pivoting.
    for (std::size_t c = k + 1; c < n_; ++c) {
      colnorm[c] -= qr_(k, c) * qr_(k, c);
      if (colnorm[c] < 0.0) colnorm[c] = 0.0;
    }
    colnorm[k] = 0.0;
  }
}

std::size_t QrDecomposition::rank(double rel_tol) const {
  const std::size_t steps = std::min(m_, n_);
  const double scale = std::abs(qr_(0, 0));
  if (scale == 0.0) return 0;
  std::size_t r = 0;
  for (std::size_t k = 0; k < steps; ++k) {
    if (std::abs(qr_(k, k)) > rel_tol * scale) ++r;
  }
  return r;
}

Vector QrDecomposition::apply_qt(const Vector& b) const {
  REDOPT_REQUIRE(b.size() == m_, "apply_qt dimension mismatch");
  Vector y = b;
  const std::size_t steps = std::min(m_, n_);
  for (std::size_t k = 0; k < steps; ++k) {
    if (beta_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * y[i];
    s *= beta_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m_; ++i) y[i] -= s * qr_(i, k);
  }
  return y;
}

Vector QrDecomposition::solve_least_squares(const Vector& b, double rel_tol) const {
  const std::size_t r = rank(rel_tol);
  Vector y = apply_qt(b);
  // Back substitution on the leading r x r block of R.
  Vector z(n_);  // permuted solution, free variables zero
  for (std::size_t ii = r; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = y[i];
    for (std::size_t k = i + 1; k < r; ++k) acc -= qr_(i, k) * z[k];
    z[i] = acc / qr_(i, i);
  }
  // Undo the column permutation.
  Vector x(n_);
  for (std::size_t j = 0; j < n_; ++j) x[perm_[j]] = z[j];
  return x;
}

Matrix QrDecomposition::r() const {
  Matrix out(m_, n_);
  for (std::size_t i = 0; i < std::min(m_, n_); ++i)
    for (std::size_t j = i; j < n_; ++j) out(i, j) = qr_(i, j);
  return out;
}

Vector solve(const Matrix& a, const Vector& b) {
  REDOPT_REQUIRE(a.rows() == a.cols(), "solve requires a square matrix");
  REDOPT_REQUIRE(a.rows() == b.size(), "solve dimension mismatch");
  QrDecomposition qr(a);
  REDOPT_REQUIRE(qr.rank() == a.cols(), "solve: matrix is singular to working precision");
  return qr.solve_least_squares(b);
}

std::size_t rank(const Matrix& a, double rel_tol) {
  if (a.empty()) return 0;
  return QrDecomposition(a).rank(rel_tol);
}

SymmetricEigen symmetric_eigen(const Matrix& a, double sym_tol) {
  REDOPT_REQUIRE(a.rows() == a.cols(), "symmetric_eigen requires a square matrix");
  const std::size_t n = a.rows();
  const double scale = std::max(a.max_abs(), 1e-300);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      REDOPT_REQUIRE(std::abs(a(i, j) - a(j, i)) <= sym_tol * scale,
                     "symmetric_eigen requires a symmetric matrix");

  Matrix d = a;
  Matrix v = Matrix::identity(n);

  auto off_norm = [&]() {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) acc += d(i, j) * d(i, j);
    return std::sqrt(2.0 * acc);
  };

  const int max_sweeps = 100;
  const double tol = 1e-14 * scale * static_cast<double>(n);
  for (int sweep = 0; sweep < max_sweeps && off_norm() > tol; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) <= 1e-300) continue;
        const double app = d(p, p);
        const double aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation J(p, q, theta)^T D J(p, q, theta).
        for (std::size_t k = 0; k < n; ++k) {
          const double dkp = d(k, p);
          const double dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double dpk = d(p, k);
          const double dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort ascending by eigenvalue, permuting eigenvector columns along.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return d(i, i) < d(j, j); });

  SymmetricEigen out;
  out.eigenvalues = Vector(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.eigenvalues[k] = d(order[k], order[k]);
    for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, k) = v(i, order[k]);
  }
  return out;
}

double min_eigenvalue(const Matrix& a) { return symmetric_eigen(a).eigenvalues[0]; }

double max_eigenvalue(const Matrix& a) {
  const auto eig = symmetric_eigen(a);
  return eig.eigenvalues[eig.eigenvalues.size() - 1];
}

}  // namespace redopt::linalg

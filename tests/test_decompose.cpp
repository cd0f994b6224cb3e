// Unit and property tests for the matrix decompositions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "data/regression.h"
#include "linalg/decompose.h"
#include "rng/rng.h"
#include "util/error.h"

using redopt::linalg::Matrix;
using redopt::linalg::Vector;
namespace rl = redopt::linalg;

namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, redopt::rng::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.gaussian();
  return m;
}

Matrix random_spd(std::size_t n, redopt::rng::Rng& rng) {
  // A^T A + I is symmetric positive definite.
  const Matrix a = random_matrix(n + 2, n, rng);
  Matrix spd = a.gram();
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

}  // namespace

// ---------------------------------------------------------------- Cholesky

TEST(Cholesky, ReconstructsSpdMatrix) {
  redopt::rng::Rng rng(1);
  const Matrix a = random_spd(5, rng);
  const auto l = rl::cholesky(a);
  ASSERT_TRUE(l.has_value());
  const Matrix reconstructed = rl::matmul(*l, l->transposed());
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(reconstructed(i, j), a(i, j), 1e-9);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  const Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(rl::cholesky(indefinite).has_value());
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(rl::cholesky(Matrix(2, 3)), redopt::PreconditionError);
}

TEST(SolveSpd, RecoversKnownSolution) {
  redopt::rng::Rng rng(2);
  const Matrix a = random_spd(6, rng);
  const Vector x_true(rng.gaussian_vector(6));
  const Vector b = rl::matvec(a, x_true);
  const auto x = rl::solve_spd(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(rl::distance(*x, x_true), 0.0, 1e-8);
}

TEST(SolveSpd, ReturnsNulloptForIndefinite) {
  const Matrix indefinite{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_FALSE(rl::solve_spd(indefinite, Vector{1.0, 1.0}).has_value());
}

// ---------------------------------------------------------------- QR

TEST(Qr, QtPreservesNorm) {
  redopt::rng::Rng rng(3);
  const Matrix a = random_matrix(8, 5, rng);
  const rl::QrDecomposition qr(a);
  const Vector b(rng.gaussian_vector(8));
  EXPECT_NEAR(qr.apply_qt(b).norm(), b.norm(), 1e-10);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  redopt::rng::Rng rng(4);
  const Matrix a = random_matrix(10, 4, rng);
  const Vector b(rng.gaussian_vector(10));
  const rl::QrDecomposition qr(a);
  const Vector x = qr.solve_least_squares(b);
  // Normal equations: A^T A x = A^T b.
  const Vector lhs = rl::matvec(a.gram(), x);
  const Vector rhs = rl::matvec_transposed(a, b);
  EXPECT_NEAR(rl::distance(lhs, rhs), 0.0, 1e-8);
}

TEST(Qr, ExactSolutionForConsistentSystem) {
  redopt::rng::Rng rng(5);
  const Matrix a = random_matrix(7, 3, rng);
  const Vector x_true(rng.gaussian_vector(3));
  const Vector b = rl::matvec(a, x_true);
  EXPECT_NEAR(rl::distance(rl::QrDecomposition(a).solve_least_squares(b), x_true), 0.0, 1e-9);
}

TEST(Qr, FullRankDetected) {
  redopt::rng::Rng rng(6);
  const Matrix a = random_matrix(6, 4, rng);
  EXPECT_EQ(rl::rank(a), 4u);
}

TEST(Qr, RankDeficiencyDetected) {
  // Third column = first + second.
  Matrix a(5, 3);
  redopt::rng::Rng rng(7);
  for (std::size_t r = 0; r < 5; ++r) {
    a(r, 0) = rng.gaussian();
    a(r, 1) = rng.gaussian();
    a(r, 2) = a(r, 0) + a(r, 1);
  }
  EXPECT_EQ(rl::rank(a), 2u);
}

TEST(Qr, ZeroMatrixHasRankZero) { EXPECT_EQ(rl::rank(Matrix(4, 3)), 0u); }

TEST(Qr, WideMatrixRank) {
  redopt::rng::Rng rng(8);
  const Matrix a = random_matrix(3, 7, rng);
  EXPECT_EQ(rl::rank(a), 3u);
}

TEST(Qr, RFactorIsUpperTriangular) {
  redopt::rng::Rng rng(9);
  const rl::QrDecomposition qr(random_matrix(6, 4, rng));
  const Matrix r = qr.r();
  for (std::size_t i = 1; i < r.rows(); ++i)
    for (std::size_t j = 0; j < std::min<std::size_t>(i, r.cols()); ++j)
      EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

TEST(Solve, SquareSystemRoundTrip) {
  redopt::rng::Rng rng(10);
  const Matrix a = random_matrix(5, 5, rng);
  const Vector x_true(rng.gaussian_vector(5));
  EXPECT_NEAR(rl::distance(rl::solve(a, rl::matvec(a, x_true)), x_true), 0.0, 1e-8);
}

TEST(Solve, SingularSystemThrows) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(rl::solve(singular, Vector{1.0, 2.0}), redopt::PreconditionError);
}

// ---------------------------------------------------------------- Eigen

TEST(Eigen, DiagonalMatrixEigenvaluesSorted) {
  const auto eig = rl::symmetric_eigen(Matrix::diagonal(Vector{3.0, -1.0, 2.0}));
  EXPECT_NEAR(eig.eigenvalues[0], -1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const auto eig = rl::symmetric_eigen(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-10);
}

TEST(Eigen, SatisfiesDefinitionOnRandomSymmetric) {
  redopt::rng::Rng rng(11);
  const Matrix a = random_spd(6, rng);
  const auto eig = rl::symmetric_eigen(a);
  // Check A v_k = lambda_k v_k for every k, and orthonormality of V.
  for (std::size_t k = 0; k < 6; ++k) {
    const Vector v = eig.eigenvectors.col(k);
    const Vector av = rl::matvec(a, v);
    EXPECT_NEAR(rl::distance(av, v * eig.eigenvalues[k]), 0.0, 1e-8);
    EXPECT_NEAR(v.norm(), 1.0, 1e-10);
    for (std::size_t j = k + 1; j < 6; ++j) {
      EXPECT_NEAR(rl::dot(v, eig.eigenvectors.col(j)), 0.0, 1e-9);
    }
  }
}

TEST(Eigen, TraceEqualsEigenvalueSum) {
  redopt::rng::Rng rng(12);
  const Matrix a = random_spd(5, rng);
  double trace = 0.0;
  for (std::size_t i = 0; i < 5; ++i) trace += a(i, i);
  const auto eig = rl::symmetric_eigen(a);
  double sum = 0.0;
  for (double l : eig.eigenvalues) sum += l;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Eigen, RejectsAsymmetric) {
  EXPECT_THROW(rl::symmetric_eigen(Matrix{{1.0, 2.0}, {0.0, 1.0}}), redopt::PreconditionError);
  EXPECT_THROW(rl::symmetric_eigen(Matrix(2, 3)), redopt::PreconditionError);
}

TEST(Eigen, MinMaxEigenvalueHelpers) {
  const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  EXPECT_NEAR(rl::min_eigenvalue(a), 4.0, 1e-12);
  EXPECT_NEAR(rl::max_eigenvalue(a), 9.0, 1e-12);
}

TEST(Eigen, PsdGramHasNonNegativeEigenvalues) {
  redopt::rng::Rng rng(13);
  const Matrix a = random_matrix(4, 6, rng);  // wide => gram is singular PSD
  const auto eig = rl::symmetric_eigen(a.gram());
  for (double l : eig.eigenvalues) EXPECT_GE(l, -1e-9);
  EXPECT_NEAR(eig.eigenvalues[0], 0.0, 1e-9);  // rank <= 4 < 6
}

// ------------------------------------------- QR bit-identity contract
//
// QrDecomposition's loops may be restructured for speed only in ways that
// keep every output bit.  ReferenceQr is the original column-order
// Householder QR (constructor, apply_qt, rank, back substitution and r()
// copied verbatim), and every case below compares the library against it
// by bit pattern, so -0.0, subnormals and NaN payloads count.

namespace {

struct ReferenceQr {
  std::size_t m_, n_;
  Matrix qr_;
  std::vector<double> beta_;
  std::vector<std::size_t> perm_;

  ReferenceQr(const Matrix& a, bool pivot)
      : m_(a.rows()),
        n_(a.cols()),
        qr_(a),
        beta_(std::min(a.rows(), a.cols()), 0.0),
        perm_(a.cols()) {
    for (std::size_t j = 0; j < n_; ++j) perm_[j] = j;
    std::vector<double> colnorm(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j)
      for (std::size_t i = 0; i < m_; ++i) colnorm[j] += qr_(i, j) * qr_(i, j);

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
      double normx = 0.0;
      for (std::size_t i = k; i < m_; ++i) normx += qr_(i, k) * qr_(i, k);
      normx = std::sqrt(normx);
      if (normx == 0.0) {
        beta_[k] = 0.0;
        continue;
      }
      const double alpha = qr_(k, k) >= 0.0 ? -normx : normx;
      const double v0 = qr_(k, k) - alpha;
      qr_(k, k) = alpha;
      for (std::size_t i = k + 1; i < m_; ++i) qr_(i, k) /= v0;
      beta_[k] = -v0 / alpha;
      for (std::size_t j = k + 1; j < n_; ++j) {
        double s = qr_(k, j);
        for (std::size_t i = k + 1; i < m_; ++i) s += qr_(i, k) * qr_(i, j);
        s *= beta_[k];
        qr_(k, j) -= s;
        for (std::size_t i = k + 1; i < m_; ++i) qr_(i, j) -= s * qr_(i, k);
        colnorm[j] -= qr_(k, j) * qr_(k, j);
        if (colnorm[j] < 0.0) colnorm[j] = 0.0;
      }
      colnorm[k] = 0.0;
    }
  }

  std::size_t rank(double rel_tol = 1e-10) const {
    const std::size_t steps = std::min(m_, n_);
    const double scale = std::abs(qr_(0, 0));
    if (scale == 0.0) return 0;
    std::size_t r = 0;
    for (std::size_t k = 0; k < steps; ++k) {
      if (std::abs(qr_(k, k)) > rel_tol * scale) ++r;
    }
    return r;
  }

  Vector apply_qt(const Vector& b) const {
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

  Vector solve_least_squares(const Vector& b, double rel_tol = 1e-10) const {
    const std::size_t r = rank(rel_tol);
    Vector y = apply_qt(b);
    Vector z(n_);
    for (std::size_t ii = r; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      double acc = y[i];
      for (std::size_t k = i + 1; k < r; ++k) acc -= qr_(i, k) * z[k];
      z[i] = acc / qr_(i, i);
    }
    Vector x(n_);
    for (std::size_t j = 0; j < n_; ++j) x[perm_[j]] = z[j];
    return x;
  }

  Matrix r() const {
    Matrix out(m_, n_);
    for (std::size_t i = 0; i < std::min(m_, n_); ++i)
      for (std::size_t j = i; j < n_; ++j) out(i, j) = qr_(i, j);
    return out;
  }
};

// Index of the first entry whose bit pattern differs, or -1.
long first_bit_difference(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return static_cast<long>(i);
  }
  return -1;
}

// Checks every observable of QrDecomposition against the reference for
// both pivoting modes and two right-hand sides.
void expect_qr_matches_reference(const Matrix& a, const std::vector<Vector>& rhs,
                                 const std::string& label) {
  for (const bool pivot : {true, false}) {
    SCOPED_TRACE(label + (pivot ? " pivoted" : " unpivoted"));
    const rl::QrDecomposition qr(a, pivot);
    const ReferenceQr ref(a, pivot);
    EXPECT_EQ(first_bit_difference(qr.r().data(), ref.r().data()), -1) << "r()";
    EXPECT_EQ(qr.perm(), ref.perm_);
    EXPECT_EQ(qr.rank(), ref.rank());
    EXPECT_EQ(qr.rank(1e-3), ref.rank(1e-3));
    for (const Vector& b : rhs) {
      const Vector qtb = qr.apply_qt(b);
      const Vector x = qr.solve_least_squares(b);
      EXPECT_EQ(first_bit_difference(qtb.data(), ref.apply_qt(b).data()), -1) << "apply_qt";
      EXPECT_EQ(first_bit_difference(x.data(), ref.solve_least_squares(b).data()), -1) << "solve";
    }
  }
}

// A Gaussian entry times @p scale, or (one time in eight each) an exact
// zero, a negative zero or a subnormal.
double edge_entry(redopt::rng::Rng& rng, double scale) {
  const auto kind = rng.uniform_int(0, 7);
  if (kind == 0) return 0.0;
  if (kind == 1) return -0.0;
  if (kind == 2) return rng.gaussian() * 1e-310;
  return rng.gaussian() * scale;
}

}  // namespace

TEST(QrBitIdentity, MatchesTheColumnOrderReferenceOnEdgeCaseMatrices) {
  redopt::rng::Rng rng(1907);
  for (std::size_t t = 0; t < 1200; ++t) {
    // Tall, square and wide shapes in turn, up to 60 x 20.
    const std::size_t cols = static_cast<std::size_t>(rng.uniform_int(1, 20));
    std::size_t rows = cols;
    if (t % 3 == 0) rows = static_cast<std::size_t>(rng.uniform_int(cols, 60));
    if (t % 3 == 2) rows = static_cast<std::size_t>(rng.uniform_int(1, cols));
    Matrix a(rows, cols);
    for (std::size_t c = 0; c < cols; ++c) {
      // Column scales over twelve decades give the pivot real choices.
      const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
      for (std::size_t r = 0; r < rows; ++r) a(r, c) = edge_entry(rng, scale);
    }
    if (cols >= 2 && t % 4 == 1) {  // duplicated column: rank-deficient
      const auto from = static_cast<std::size_t>(rng.uniform_int(0, cols - 1));
      const auto to = static_cast<std::size_t>(rng.uniform_int(0, cols - 1));
      for (std::size_t r = 0; r < rows; ++r) a(r, to) = a(r, from);
    }
    if (t % 5 == 2) {  // all-zero column: the beta = 0 path
      const auto zero = static_cast<std::size_t>(rng.uniform_int(0, cols - 1));
      for (std::size_t r = 0; r < rows; ++r) a(r, zero) = t % 2 == 0 ? 0.0 : -0.0;
    }
    if (t % 97 == 0) a = Matrix(rows, cols);  // all zero
    Vector b(rows);
    Vector b_edge(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      b[r] = rng.gaussian();
      b_edge[r] = edge_entry(rng, 1.0);
    }
    expect_qr_matches_reference(a, {b, b_edge}, "case " + std::to_string(t));
    if (HasFailure()) return;  // one diagnosed case beats a thousand
  }
}

TEST(QrBitIdentity, MatchesTheColumnOrderReferenceOnAStackedOrthonormalSystem) {
  // The honest system materialize_scenario solves for a serve_wide job
  // (block_regression, n = 16, d = 64, two faulty agents): fourteen
  // stacked 64 x 64 orthonormal blocks, 896 x 64.
  redopt::rng::Rng rng(5);
  Vector x_star(64);
  for (auto& v : x_star) v = rng.uniform(-3.0, 3.0);
  const auto inst = redopt::data::make_orthonormal_regression(16, 64, 1, 0.1, x_star, rng);
  Matrix stacked(14 * 64, 64);
  Vector b(14 * 64);
  for (std::size_t id = 0; id < 14; ++id) {
    for (std::size_t r = 0; r < 64; ++r) {
      for (std::size_t c = 0; c < 64; ++c) stacked(id * 64 + r, c) = inst.block(id)(r, c);
      b[id * 64 + r] = inst.observation(id)[r];
    }
  }
  expect_qr_matches_reference(stacked, {b}, "stacked 896 x 64");
}

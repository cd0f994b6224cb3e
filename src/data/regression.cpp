#include "data/regression.h"

#include <cmath>
#include <limits>

#include "linalg/decompose.h"
#include "linalg/kernels.h"
#include "util/error.h"
#include "util/subsets.h"

namespace redopt::data {

Matrix paper_matrix() {
  // Unit-norm rows at angles k * 30 degrees.  No two rows are parallel, so
  // any four of them span R^2 — exactly the 2f-redundancy rank condition
  // for n = 6, f = 1, d = 2.  Unit rows give every agent the same
  // Lipschitz constant mu = 2 (the paper reports mu = 2 for its instance)
  // and the best achievable gamma for single-row agents at this (n, f).
  const double s3 = std::sqrt(3.0) / 2.0;
  return Matrix{{1.0, 0.0}, {s3, 0.5}, {0.5, s3}, {0.0, 1.0}, {-0.5, s3}, {-s3, 0.5}};
}

Matrix redundant_matrix(std::size_t n, std::size_t d, std::size_t f, rng::Rng& rng,
                        std::size_t max_attempts) {
  REDOPT_REQUIRE(n > 2 * f, "redundant_matrix requires n > 2f");
  REDOPT_REQUIRE(n - 2 * f >= d, "rank condition needs n - 2f >= d rows per subset");
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Matrix a(n, d);
    for (std::size_t r = 0; r < n; ++r) {
      // Unit-norm rows (uniform on the sphere): the rank condition only
      // depends on directions, and unit rows give every agent the same
      // Lipschitz constant mu = 2, keeping instances well conditioned.
      const auto row = rng.unit_sphere(d);
      for (std::size_t c = 0; c < d; ++c) a(r, c) = row[c];
    }
    if (regression_rank_condition(a, f)) return a;
  }
  REDOPT_REQUIRE(false, "failed to draw a 2f-redundant matrix (should be measure-1)");
  return {};  // unreachable
}

bool regression_rank_condition(const linalg::Matrix& a, std::size_t f, double rel_tol) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  REDOPT_REQUIRE(n > 2 * f, "rank condition requires n > 2f");
  if (n - 2 * f < d) return false;  // too few rows to ever reach rank d
  bool ok = true;
  util::for_each_subset(n, n - 2 * f, [&](const std::vector<std::size_t>& rows) {
    if (linalg::rank(a.select_rows(rows), rel_tol) < d) {
      ok = false;
      return false;  // stop early
    }
    return true;
  });
  return ok;
}

RegressionInstance make_regression(const Matrix& a, const Vector& x_star, double noise_sigma,
                                   std::size_t f, rng::Rng& rng) {
  REDOPT_REQUIRE(a.cols() == x_star.size(), "x_star dimension mismatch");
  REDOPT_REQUIRE(noise_sigma >= 0.0, "noise sigma must be non-negative");
  const std::size_t n = a.rows();

  RegressionInstance inst;
  inst.a = a;
  inst.x_star = x_star;
  inst.noise_sigma = noise_sigma;
  inst.b = linalg::matvec(a, x_star);
  for (std::size_t i = 0; i < n; ++i) inst.b[i] += rng.gaussian(0.0, noise_sigma);

  inst.problem.f = f;
  inst.problem.costs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inst.problem.costs.push_back(std::make_shared<core::LeastSquaresCost>(
        core::LeastSquaresCost::single(a.row(i), inst.b[i])));
  }
  inst.problem.validate();
  return inst;
}

BlockRegressionInstance make_orthonormal_regression(std::size_t n, std::size_t d, std::size_t f,
                                                    double noise_sigma, const Vector& x_star,
                                                    rng::Rng& rng) {
  REDOPT_REQUIRE(n > 2 * f, "orthonormal regression requires n > 2f");
  REDOPT_REQUIRE(x_star.size() == d, "x_star dimension mismatch");
  REDOPT_REQUIRE(noise_sigma >= 0.0, "noise sigma must be non-negative");

  BlockRegressionInstance inst;
  inst.x_star = x_star;
  inst.problem.f = f;
  for (std::size_t i = 0; i < n; ++i) {
    // Random orthogonal block via Gram-Schmidt on Gaussian rows, drawn and
    // orthogonalized in place in the block's own row storage.  axpy with
    // -s adds the exact negation of s * prev, so each entry gets the same
    // bits as subtracting s * prev would give.
    Matrix a(d, d);
    for (std::size_t r = 0; r < d; ++r) {
      double* row = &a(r, 0);
      double norm = 0.0;
      do {
        for (std::size_t c = 0; c < d; ++c) row[c] = rng.gaussian();
        for (std::size_t p = 0; p < r; ++p) {
          const double* prev = a.row_data(p);
          linalg::kernels::axpy(row, -linalg::kernels::dot(row, prev, d), prev, d);
        }
        norm = std::sqrt(linalg::kernels::norm_squared(row, d));
      } while (norm < 1e-8);  // re-draw on (measure-zero) degeneracy
      for (std::size_t c = 0; c < d; ++c) row[c] /= norm;
    }
    Vector b = linalg::matvec(a, x_star);
    for (auto& c : b) c += rng.gaussian(0.0, noise_sigma);
    inst.problem.costs.push_back(
        std::make_shared<core::LeastSquaresCost>(std::move(a), std::move(b)));
  }
  inst.problem.validate();
  return inst;
}

namespace {

const core::LeastSquaresCost& block_cost(const BlockRegressionInstance& instance, std::size_t i) {
  REDOPT_REQUIRE(i < instance.problem.costs.size(), "agent id out of range");
  const auto* cost = dynamic_cast<const core::LeastSquaresCost*>(instance.problem.costs[i].get());
  REDOPT_REQUIRE(cost != nullptr, "block regression agent without a least-squares cost");
  return *cost;
}

}  // namespace

const Matrix& BlockRegressionInstance::block(std::size_t i) const {
  return block_cost(*this, i).a();
}

const Vector& BlockRegressionInstance::observation(std::size_t i) const {
  return block_cost(*this, i).b();
}

Vector block_regression_argmin(const BlockRegressionInstance& instance,
                               const std::vector<std::size_t>& honest) {
  REDOPT_REQUIRE(!honest.empty(), "block regression argmin over empty agent set");
  const std::size_t d = instance.x_star.size();
  Matrix stacked(honest.size() * d, d);
  Vector b(honest.size() * d);
  std::size_t r = 0;
  for (std::size_t id : honest) {
    const Matrix& block = instance.block(id);
    const Vector& observation = instance.observation(id);
    for (std::size_t br = 0; br < d; ++br, ++r) {
      for (std::size_t c = 0; c < d; ++c) stacked(r, c) = block(br, c);
      b[r] = observation[br];
    }
  }
  return linalg::QrDecomposition(stacked).solve_least_squares(b);
}

Vector regression_argmin(const RegressionInstance& instance,
                         const std::vector<std::size_t>& honest) {
  REDOPT_REQUIRE(!honest.empty(), "regression argmin over empty agent set");
  const Matrix a_h = instance.a.select_rows(honest);
  Vector b_h(honest.size());
  for (std::size_t i = 0; i < honest.size(); ++i) b_h[i] = instance.b[honest[i]];
  linalg::QrDecomposition qr(a_h);
  REDOPT_REQUIRE(qr.rank() == instance.a.cols(),
                 "honest observation matrix is rank-deficient; x_H not unique");
  return qr.solve_least_squares(b_h);
}

RegressionConstants regression_constants(const RegressionInstance& instance,
                                         const std::vector<std::size_t>& honest) {
  const std::size_t n = instance.problem.num_agents();
  const std::size_t f = instance.problem.f;
  REDOPT_REQUIRE(honest.size() >= n - f, "need at least n - f honest agents");

  RegressionConstants out;
  // mu: per-agent Hessian is 2 A_i^T A_i (rank one); largest eigenvalue is
  // 2 ||A_i||^2.
  for (std::size_t id : honest) {
    const Vector row = instance.a.row(id);
    out.mu = std::max(out.mu, 2.0 * row.norm_squared());
  }
  // gamma: smallest eigenvalue of the average Hessian over every
  // (n - f)-subset of the honest agents.
  out.gamma = std::numeric_limits<double>::infinity();
  util::for_each_subset_of(honest, n - f, [&](const std::vector<std::size_t>& subset) {
    Matrix gram = instance.a.select_rows(subset).gram();
    gram *= 2.0 / static_cast<double>(subset.size());
    out.gamma = std::min(out.gamma, linalg::min_eigenvalue(gram));
    return true;
  });
  return out;
}

}  // namespace redopt::data

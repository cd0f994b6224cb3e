// Distributed linear-regression instance generation.
//
// The paper's evaluation (Section 5): n agents, agent i holds a row vector
// A_i in R^d and a scalar observation B_i = A_i x* + N_i.  Agent i's cost
// is Q_i(x) = (B_i - A_i x)^2.  The rows are chosen so the *noiseless*
// system has exact 2f-redundancy — every (n - 2f)-row submatrix has full
// column rank d — and observation noise then relaxes it to
// (2f, eps)-redundancy with a measurable eps.
//
// The paper withholds its concrete A/B values; paper_matrix() provides a
// fixed deterministic 6 x 2 instance satisfying the same rank condition,
// and redundant_matrix() draws verified random instances of any size.
#pragma once

#include <cstdint>

#include "core/least_squares_cost.h"
#include "core/problem.h"
#include "linalg/matrix.h"
#include "rng/rng.h"

namespace redopt::data {

using linalg::Matrix;
using linalg::Vector;

/// A fully specified regression instance.
struct RegressionInstance {
  core::MultiAgentProblem problem;  ///< agent i holds (B_i - A_i x)^2
  Matrix a;                         ///< n x d observation matrix
  Vector b;                         ///< n observations (with noise)
  Vector x_star;                    ///< ground-truth parameter
  double noise_sigma = 0.0;         ///< observation noise level used
};

/// The fixed 6 x 2 observation matrix used for the paper-shaped experiments
/// (n = 6, f = 1, d = 2; every 4-row submatrix has rank 2).
Matrix paper_matrix();

/// Draws an n x d matrix with iid unit-norm rows (uniform on the sphere),
/// retrying until the 2f-redundancy rank condition holds (every
/// (n - 2f)-row submatrix has rank d).  Requires n - 2f >= d.  Throws
/// after @p max_attempts failures.
Matrix redundant_matrix(std::size_t n, std::size_t d, std::size_t f, rng::Rng& rng,
                        std::size_t max_attempts = 100);

/// The constructive rank condition the generators above enforce: with
/// agent i holding observation row i of @p a, 2f-redundancy (noiseless)
/// holds iff every (n - 2f)-row submatrix has full column rank d.  Lives
/// here with the generators; redundancy::regression_rank_condition
/// (the measurement layer, one module up) delegates to this.
bool regression_rank_condition(const linalg::Matrix& a, std::size_t f, double rel_tol = 1e-10);

/// Builds the per-agent costs for observations B = A x* + noise, where the
/// noise is iid Gaussian with standard deviation @p noise_sigma.
RegressionInstance make_regression(const Matrix& a, const Vector& x_star, double noise_sigma,
                                   std::size_t f, rng::Rng& rng);

/// The honest aggregate's unique minimum point x_H: the least-squares
/// solution over the rows in @p honest (requires full column rank).
Vector regression_argmin(const RegressionInstance& instance,
                         const std::vector<std::size_t>& honest);

/// A regression instance whose agents each hold a d x d *orthonormal*
/// observation block A_i (so A_i^T A_i = I).  This puts the instance in the
/// regime where Theorem 4's sufficient condition holds: mu = 2, gamma = 2,
/// hence alpha = 1 - 3 f / n > 0 whenever f < n / 3.  Single-row agents
/// (the paper's own experiment) cannot reach alpha > 0 at n = 6, f = 1 —
/// see EXPERIMENTS.md — so this family is what the bound-checking tests
/// and the epsilon-sweep bench run on.
struct BlockRegressionInstance {
  core::MultiAgentProblem problem;  ///< agent i holds ||A_i x - b_i||^2
  Vector x_star;                    ///< ground-truth parameter

  /// Agent i's d x d orthonormal A_i and its b_i = A_i x* + noise, read
  /// from its LeastSquaresCost: the instance holds one copy of each.
  const Matrix& block(std::size_t i) const;
  const Vector& observation(std::size_t i) const;
};

/// Draws the orthonormal-block instance (Gram-Schmidt on Gaussian draws).
BlockRegressionInstance make_orthonormal_regression(std::size_t n, std::size_t d, std::size_t f,
                                                    double noise_sigma, const Vector& x_star,
                                                    rng::Rng& rng);

/// Least-squares solution over the honest agents' stacked blocks.
Vector block_regression_argmin(const BlockRegressionInstance& instance,
                               const std::vector<std::size_t>& honest);

/// Assumption-2/3 constants of a regression instance:
///   mu    = max_i 2 ||A_i||^2           (per-agent Lipschitz constant)
///   gamma = min over (n-f)-subsets H of honest agents of
///           lambda_min( (2 / |H|) A_H^T A_H )
struct RegressionConstants {
  double mu = 0.0;
  double gamma = 0.0;
};
RegressionConstants regression_constants(const RegressionInstance& instance,
                                         const std::vector<std::size_t>& honest);

}  // namespace redopt::data

#include "core/quadratic_cost.h"

#include <cmath>

#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::core {

QuadraticCost::QuadraticCost(Matrix p, Vector q, double c)
    : p_(std::move(p)), q_(std::move(q)), c_(c) {
  REDOPT_REQUIRE(p_.rows() == p_.cols(), "quadratic P must be square");
  REDOPT_REQUIRE(p_.rows() == q_.size(), "quadratic P and q dimension mismatch");
  const double scale = std::max(p_.max_abs(), 1e-300);
  for (std::size_t i = 0; i < p_.rows(); ++i)
    for (std::size_t j = i + 1; j < p_.cols(); ++j)
      REDOPT_REQUIRE(std::abs(p_(i, j) - p_(j, i)) <= 1e-9 * scale,
                     "quadratic P must be symmetric");
}

QuadraticCost QuadraticCost::squared_distance(const Vector& center) {
  const std::size_t d = center.size();
  Matrix p = Matrix::identity(d);
  p *= 2.0;
  Vector q = center * (-2.0);
  return QuadraticCost(std::move(p), std::move(q), center.norm_squared());
}

double QuadraticCost::value(const Vector& x) const {
  REDOPT_REQUIRE(x.size() == dimension(), "quadratic value dimension mismatch");
  return 0.5 * linalg::dot(x, linalg::matvec(p_, x)) + linalg::dot(q_, x) + c_;
}

Vector QuadraticCost::gradient(const Vector& x) const {
  Vector out;
  Vector unused;
  gradient_into(x, out, unused);
  return out;
}

void QuadraticCost::gradient_into(const Vector& x, Vector& out, Vector& /*scratch*/) const {
  REDOPT_REQUIRE(x.size() == dimension(), "quadratic gradient dimension mismatch");
  const std::size_t d = q_.size();
  if (out.size() != d) out = Vector(d);
  linalg::kernels::matvec(p_.data().data(), d, d, x.data().data(), out.data().data());
  linalg::kernels::add(out.data().data(), q_.data().data(), d);
}

std::optional<Matrix> QuadraticCost::hessian(const Vector&) const { return p_; }

std::unique_ptr<CostFunction> QuadraticCost::clone() const {
  return std::make_unique<QuadraticCost>(*this);
}

std::string QuadraticCost::describe() const {
  return "quadratic(d=" + std::to_string(dimension()) + ")";
}

}  // namespace redopt::core

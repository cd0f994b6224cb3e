// Quadratic cost Q(x) = 0.5 x^T P x + q^T x + c with symmetric PSD P.
//
// Quadratics are the workhorse of the test-suite and of the robust-mean
// examples (Q_i(x) = ||x - x_i||^2 is a quadratic with P = 2I).  Their
// argmin sets are affine and computed exactly, which lets the redundancy
// checker measure (2f, eps)-redundancy without numeric optimization error.
#pragma once

#include "core/cost_function.h"

namespace redopt::core {

class QuadraticCost final : public CostFunction {
 public:
  /// Constructs 0.5 x^T P x + q^T x + c.  P must be square, symmetric (to
  /// 1e-9 relative tolerance) and match q's dimension.
  QuadraticCost(Matrix p, Vector q, double c = 0.0);

  /// Convenience: the squared-distance cost ||x - center||^2
  /// (P = 2I, q = -2 center, c = ||center||^2).
  static QuadraticCost squared_distance(const Vector& center);

  std::size_t dimension() const override { return q_.size(); }
  double value(const Vector& x) const override;
  Vector gradient(const Vector& x) const override;
  /// P x + q in @p out; @p scratch is unused.
  void gradient_into(const Vector& x, Vector& out, Vector& scratch) const override;
  std::optional<Matrix> hessian(const Vector& x) const override;
  std::unique_ptr<CostFunction> clone() const override;
  std::string describe() const override;

  const Matrix& p() const { return p_; }
  const Vector& q() const { return q_; }
  double c() const { return c_; }

 private:
  Matrix p_;
  Vector q_;
  double c_;
};

}  // namespace redopt::core

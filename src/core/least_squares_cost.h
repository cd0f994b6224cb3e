// Least-squares cost Q(x) = ||A x - b||^2.
//
// This is the cost family of the paper's evaluation: in distributed linear
// regression agent i holds one observation row, Q_i(x) = (B_i - A_i x)^2.
// An aggregate of least-squares costs is again least-squares (stack rows),
// so argmin sets are computed exactly; the 2f-redundancy property reduces to
// a rank condition on row subsets of A.
#pragma once

#include "core/cost_function.h"

namespace redopt::core {

class LeastSquaresCost final : public CostFunction {
 public:
  /// Constructs ||A x - b||^2 (no 1/2 factor, matching the paper).
  /// Requires a.rows() == b.size() and a.rows() >= 1.
  LeastSquaresCost(Matrix a, Vector b);

  /// Single-observation convenience: (b - <a_row, x>)^2.
  static LeastSquaresCost single(const Vector& a_row, double b);

  std::size_t dimension() const override { return a_.cols(); }
  double value(const Vector& x) const override;
  Vector gradient(const Vector& x) const override;
  /// r = A x - b in @p scratch, then 2 A^T r in @p out.
  void gradient_into(const Vector& x, Vector& out, Vector& scratch) const override;
  std::optional<Matrix> hessian(const Vector& x) const override;
  std::unique_ptr<CostFunction> clone() const override;
  std::string describe() const override;

  const Matrix& a() const { return a_; }
  const Vector& b() const { return b_; }

 private:
  Matrix a_;
  Vector b_;
};

}  // namespace redopt::core

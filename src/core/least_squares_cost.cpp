#include "core/least_squares_cost.h"

#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::core {

LeastSquaresCost::LeastSquaresCost(Matrix a, Vector b) : a_(std::move(a)), b_(std::move(b)) {
  REDOPT_REQUIRE(a_.rows() >= 1, "least-squares cost needs at least one observation row");
  REDOPT_REQUIRE(a_.rows() == b_.size(), "least-squares A and b row-count mismatch");
}

LeastSquaresCost LeastSquaresCost::single(const Vector& a_row, double b) {
  Matrix a(1, a_row.size());
  a.set_row(0, a_row);
  return LeastSquaresCost(std::move(a), Vector{b});
}

double LeastSquaresCost::value(const Vector& x) const {
  REDOPT_REQUIRE(x.size() == dimension(), "least-squares value dimension mismatch");
  const Vector r = linalg::matvec(a_, x) - b_;
  return r.norm_squared();
}

Vector LeastSquaresCost::gradient(const Vector& x) const {
  Vector out;
  Vector residual;
  gradient_into(x, out, residual);
  return out;
}

void LeastSquaresCost::gradient_into(const Vector& x, Vector& out, Vector& scratch) const {
  REDOPT_REQUIRE(x.size() == dimension(), "least-squares gradient dimension mismatch");
  const std::size_t rows = a_.rows();
  const std::size_t d = a_.cols();
  if (scratch.size() != rows) scratch = Vector(rows);
  if (out.size() != d) out = Vector(d);
  double* r = scratch.data().data();
  linalg::kernels::matvec(a_.data().data(), rows, d, x.data().data(), r);
  linalg::kernels::sub(r, b_.data().data(), rows);
  double* g = out.data().data();
  linalg::kernels::matvec_transposed(a_.data().data(), rows, d, r, g);
  linalg::kernels::scale(g, 2.0, d);
}

std::optional<Matrix> LeastSquaresCost::hessian(const Vector&) const {
  Matrix h = a_.gram();
  h *= 2.0;
  return h;
}

std::unique_ptr<CostFunction> LeastSquaresCost::clone() const {
  return std::make_unique<LeastSquaresCost>(*this);
}

std::string LeastSquaresCost::describe() const {
  return "least_squares(rows=" + std::to_string(a_.rows()) +
         ", d=" + std::to_string(dimension()) + ")";
}

}  // namespace redopt::core

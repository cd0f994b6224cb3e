#include "core/batch_gradient.h"

#include "core/least_squares_cost.h"
#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::core {

bool BatchGradientEvaluator::all_least_squares(const std::vector<CostPtr>& costs,
                                               std::size_t* d) {
  if (costs.empty()) return false;
  std::size_t dim = 0;
  for (const auto& c : costs) {
    const auto* ls = dynamic_cast<const LeastSquaresCost*>(c.get());
    if (ls == nullptr) return false;
    if (dim == 0) {
      dim = ls->dimension();
    } else if (ls->dimension() != dim) {
      return false;
    }
  }
  if (d != nullptr) *d = dim;
  return true;
}

std::unique_ptr<BatchGradientEvaluator> BatchGradientEvaluator::try_create(
    const std::vector<CostPtr>& costs) {
  return try_create_grouped({costs});
}

std::unique_ptr<BatchGradientEvaluator> BatchGradientEvaluator::try_create_grouped(
    const std::vector<std::vector<CostPtr>>& groups) {
  if (groups.empty()) return nullptr;
  std::vector<const LeastSquaresCost*> terms;
  std::vector<std::size_t> group_offsets{0};
  for (const auto& costs : groups) {
    if (costs.empty()) return nullptr;
    for (const auto& c : costs) {
      const auto* ls = dynamic_cast<const LeastSquaresCost*>(c.get());
      if (ls == nullptr) return nullptr;
      terms.push_back(ls);
    }
    group_offsets.push_back(terms.size());
  }
  const std::size_t d = terms.front()->dimension();
  for (const auto* ls : terms) {
    if (ls->dimension() != d) return nullptr;
  }

  auto evaluator = std::unique_ptr<BatchGradientEvaluator>(new BatchGradientEvaluator());
  evaluator->d_ = d;
  evaluator->group_offsets_ = std::move(group_offsets);
  evaluator->row_offsets_.reserve(terms.size() + 1);
  evaluator->row_offsets_.push_back(0);
  std::size_t total_rows = 0;
  for (const auto* ls : terms) {
    total_rows += ls->a().rows();
    evaluator->row_offsets_.push_back(total_rows);
  }
  evaluator->rows_.reserve(total_rows * d);
  evaluator->rhs_.reserve(total_rows);
  for (const auto* ls : terms) {
    const auto& a = ls->a().data();
    evaluator->rows_.insert(evaluator->rows_.end(), a.begin(), a.end());
    const auto& b = ls->b().data();
    evaluator->rhs_.insert(evaluator->rhs_.end(), b.begin(), b.end());
  }
  return evaluator;
}

void BatchGradientEvaluator::evaluate_all(const Vector& x, std::vector<Vector>& out) {
  REDOPT_REQUIRE(x.size() == d_, "batch gradient dimension mismatch");
  const std::size_t n = num_agents();
  const std::size_t total_rows = row_offsets_.back();
  residual_.resize(total_rows);
  // r = R x - b over the whole stacked population.  Each row's dot product
  // is independent, so this equals the per-agent matvec bit-for-bit.
  linalg::kernels::matvec(rows_.data(), total_rows, d_, x.data().data(), residual_.data());
  linalg::kernels::sub(residual_.data(), rhs_.data(), total_rows);

  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = row_offsets_[i];
    const std::size_t rows = row_offsets_[i + 1] - lo;
    if (out[i].size() != d_) out[i] = Vector(d_);
    double* g = out[i].data().data();
    linalg::kernels::matvec_transposed(rows_.data() + lo * d_, rows, d_, residual_.data() + lo, g);
    linalg::kernels::scale(g, 2.0, d_);
  }
}

void BatchGradientEvaluator::evaluate_agent(std::size_t i, const Vector& x, Vector& residual_ws,
                                            Vector& out) const {
  REDOPT_REQUIRE(i < num_agents(), "batch gradient agent index out of range");
  REDOPT_REQUIRE(x.size() == d_, "batch gradient dimension mismatch");
  const std::size_t lo = row_offsets_[i];
  const std::size_t rows = row_offsets_[i + 1] - lo;
  if (residual_ws.size() != rows) residual_ws = Vector(rows);
  if (out.size() != d_) out = Vector(d_);
  const double* block = rows_.data() + lo * d_;
  double* r = residual_ws.data().data();
  linalg::kernels::matvec(block, rows, d_, x.data().data(), r);
  linalg::kernels::sub(r, rhs_.data() + lo, rows);
  double* g = out.data().data();
  linalg::kernels::matvec_transposed(block, rows, d_, r, g);
  linalg::kernels::scale(g, 2.0, d_);
}

}  // namespace redopt::core

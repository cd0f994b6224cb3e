#include "filters/trimmed_mean.h"

#include <algorithm>
#include <numeric>

#include "filters/norm_cache.h"
#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::filters {

CwtmFilter::CwtmFilter(std::size_t n, std::size_t f) : n_(n), f_(f) {
  REDOPT_REQUIRE(n > 2 * f, "CWTM requires n > 2f");
}

Vector CwtmFilter::apply(const std::vector<Vector>& gradients) const {
  Vector out;
  FilterScratch scratch;
  apply_into(detail::view_of(gradients), out, scratch);
  return out;
}

void CwtmFilter::apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const {
  detail::check_inputs(gradients, n_, "cwtm");
  const std::size_t d = gradients.front()->size();
  if (out.size() != d) out = Vector(d);
  // One tiled gather into a column-major scratch, then each coordinate's
  // column is read (and sorted) contiguously.  The naive per-coordinate
  // gather strides across n heap buffers and thrashes the cache at large d.
  std::vector<double>& columns = scratch.values;
  gather_columns(gradients, columns);
  for (std::size_t k = 0; k < d; ++k) {
    double* column = columns.data() + k * n_;
    std::sort(column, column + n_);
    out[k] = linalg::kernels::sum(column + f_, n_ - 2 * f_) / static_cast<double>(n_ - 2 * f_);
  }
}

std::vector<std::size_t> CwtmFilter::accepted_inputs(const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "cwtm");
  const std::size_t d = gradients.front().size();
  std::vector<bool> survives(n_, false);
  std::vector<std::size_t> order(n_);
  for (std::size_t k = 0; k < d; ++k) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (gradients[a][k] != gradients[b][k]) return gradients[a][k] < gradients[b][k];
      return a < b;
    });
    for (std::size_t i = f_; i < n_ - f_; ++i) survives[order[i]] = true;
  }
  std::vector<std::size_t> accepted;
  for (std::size_t i = 0; i < n_; ++i) {
    if (survives[i]) accepted.push_back(i);
  }
  return accepted;
}

CwMedianFilter::CwMedianFilter(std::size_t n) : n_(n) {
  REDOPT_REQUIRE(n >= 1, "CWMed requires n >= 1");
}

Vector CwMedianFilter::apply(const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "cwmed");
  const std::size_t d = gradients.front().size();
  Vector out(d);
  std::vector<double> columns;
  gather_columns(gradients, columns);
  const std::size_t mid = n_ / 2;
  for (std::size_t k = 0; k < d; ++k) {
    double* column = columns.data() + k * n_;
    // Selection instead of a full sort: the median value(s) are the same
    // order statistics either way, so the output bytes are unchanged.
    std::nth_element(column, column + mid, column + n_);
    if (n_ % 2 == 1) {
      out[k] = column[mid];
    } else {
      const double lower = *std::max_element(column, column + mid);
      out[k] = 0.5 * (lower + column[mid]);
    }
  }
  return out;
}

}  // namespace redopt::filters

#include "filters/cge.h"

#include <algorithm>
#include <numeric>

#include "filters/norm_cache.h"
#include "util/error.h"

namespace redopt::filters {

namespace {

/// Survivor computation over precomputed norms: sort agent indices by
/// ascending norm (ties broken by agent index) and keep the n - f
/// smallest, in @p order.
void rank_by_norm(const std::vector<double>& norms, std::size_t f,
                  std::vector<std::size_t>& order) {
  const std::size_t n = norms.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Stable tie-break on agent index keeps the filter deterministic.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (norms[a] != norms[b]) return norms[a] < norms[b];
    return a < b;
  });
  order.resize(n - f);
}

std::vector<std::size_t> survivors_from_norms(const std::vector<double>& norms, std::size_t f) {
  std::vector<std::size_t> order;
  rank_by_norm(norms, f, order);
  return order;
}

}  // namespace

CgeFilter::CgeFilter(std::size_t n, std::size_t f, bool normalize)
    : n_(n), f_(f), normalize_(normalize) {
  REDOPT_REQUIRE(n >= 1, "CGE requires n >= 1");
  REDOPT_REQUIRE(f < n, "CGE requires f < n");
}

std::vector<std::size_t> CgeFilter::surviving_indices(
    const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "cge");
  std::vector<double> norms(n_);
  for (std::size_t i = 0; i < n_; ++i) norms[i] = gradients[i].norm();
  return survivors_from_norms(norms, f_);
}

std::vector<std::size_t> CgeFilter::accepted_inputs_with_cache(
    const std::vector<Vector>& gradients, NormCache& cache) const {
  detail::check_inputs(gradients, n_, "cge");
  return survivors_from_norms(cache.norms(), f_);
}

Vector CgeFilter::apply(const std::vector<Vector>& gradients) const {
  Vector out;
  FilterScratch scratch;
  apply_into(detail::view_of(gradients), out, scratch);
  return out;
}

void CgeFilter::apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const {
  detail::check_inputs(gradients, n_, "cge");
  std::vector<double>& norms = scratch.values;
  norms.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) norms[i] = gradients[i]->norm();
  rank_by_norm(norms, f_, scratch.order);
  out.data().assign(gradients.front()->size(), 0.0);
  for (std::size_t idx : scratch.order) out += *gradients[idx];
  if (normalize_) out /= static_cast<double>(scratch.order.size());
}

Vector CgeFilter::apply_with_cache(const std::vector<Vector>& gradients, NormCache& cache) const {
  const auto survivors = accepted_inputs_with_cache(gradients, cache);
  Vector out(gradients.front().size());
  for (std::size_t idx : survivors) out += gradients[idx];
  if (normalize_) out /= static_cast<double>(survivors.size());
  return out;
}

}  // namespace redopt::filters

#include "filters/mean.h"

#include <numeric>

#include "filters/norm_cache.h"
#include "util/error.h"

namespace redopt::filters {

std::vector<std::size_t> GradientFilter::accepted_inputs(
    const std::vector<Vector>& gradients) const {
  std::vector<std::size_t> all(gradients.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

Vector GradientFilter::apply_with_cache(const std::vector<Vector>& gradients,
                                        NormCache& /*cache*/) const {
  return apply(gradients);
}

std::vector<std::size_t> GradientFilter::accepted_inputs_with_cache(
    const std::vector<Vector>& gradients, NormCache& /*cache*/) const {
  return accepted_inputs(gradients);
}

void GradientFilter::apply_into(GradientView gradients, Vector& out,
                                FilterScratch& scratch) const {
  scratch.inputs.resize(gradients.size());
  for (std::size_t k = 0; k < gradients.size(); ++k) scratch.inputs[k] = *gradients[k];
  scratch.cache.reset(scratch.inputs);
  out = apply_with_cache(scratch.inputs, scratch.cache);
}

namespace detail {

namespace {

/// check_inputs over the gradients at(0), ..., at(count - 1).
template <typename At>
void check_gradients(std::size_t count, At at, std::size_t expected_n, const char* who) {
  REDOPT_REQUIRE(count == expected_n, std::string(who) + ": expected " +
                                          std::to_string(expected_n) + " gradients, got " +
                                          std::to_string(count));
  REDOPT_REQUIRE(count > 0, std::string(who) + ": no gradients");
  const std::size_t d = at(0).size();
  REDOPT_REQUIRE(d >= 1, std::string(who) + ": zero-dimensional gradients");
  for (std::size_t i = 0; i < count; ++i)
    REDOPT_REQUIRE(at(i).size() == d, std::string(who) + ": gradient dimension mismatch");
}

}  // namespace

void check_inputs(const std::vector<Vector>& gradients, std::size_t expected_n, const char* who) {
  check_gradients(
      gradients.size(), [&](std::size_t i) -> const Vector& { return gradients[i]; }, expected_n,
      who);
}

void check_inputs(GradientView gradients, std::size_t expected_n, const char* who) {
  check_gradients(
      gradients.size(), [&](std::size_t i) -> const Vector& { return *gradients[i]; },
      expected_n, who);
}

std::vector<const Vector*> view_of(const std::vector<Vector>& gradients) {
  std::vector<const Vector*> view;
  view.reserve(gradients.size());
  for (const Vector& g : gradients) view.push_back(&g);
  return view;
}

}  // namespace detail

MeanFilter::MeanFilter(std::size_t n) : n_(n) {
  REDOPT_REQUIRE(n >= 1, "mean filter requires n >= 1");
}

Vector MeanFilter::apply(const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "mean");
  return linalg::mean(gradients);
}

SumFilter::SumFilter(std::size_t n) : n_(n) {
  REDOPT_REQUIRE(n >= 1, "sum filter requires n >= 1");
}

Vector SumFilter::apply(const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "sum");
  return linalg::sum(gradients);
}

}  // namespace redopt::filters

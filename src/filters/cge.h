// Comparative Gradient Elimination (CGE) — the paper's headline filter.
//
// The server sorts the n received gradients by Euclidean norm and outputs
// the vector sum of the n - f smallest (eq. 23).  The intuition: a Byzantine
// gradient can only survive elimination by having a norm no larger than some
// honest gradient's, which bounds the damage it can do; Theorem 4 turns this
// into (f, (4 mu f / alpha gamma) eps)-resilience under (2f, eps)-redundancy
// whenever alpha = 1 - (f/n)(1 + 2 mu/gamma) > 0.
#pragma once

#include "filters/gradient_filter.h"

namespace redopt::filters {

class CgeFilter final : public GradientFilter {
 public:
  /// @p n total agents, @p f fault budget (f < n).  If @p normalize is true
  /// the sum is divided by n - f (scale-matched variant for ablations; the
  /// paper's definition is the plain sum).
  CgeFilter(std::size_t n, std::size_t f, bool normalize = false);

  Vector apply(const std::vector<Vector>& gradients) const override;
  void apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const override;
  Vector apply_with_cache(const std::vector<Vector>& gradients, NormCache& cache) const override;
  std::string name() const override { return normalize_ ? "cge_avg" : "cge"; }
  std::size_t expected_inputs() const override { return n_; }

  /// Indices of the n - f gradients that survive elimination, sorted by
  /// ascending norm (ties broken by agent index).  Exposed for tests and
  /// for the elimination-trace diagnostics.
  std::vector<std::size_t> surviving_indices(const std::vector<Vector>& gradients) const;

  /// The CGE survivors — the set the telemetry shim counts.
  std::vector<std::size_t> accepted_inputs(const std::vector<Vector>& gradients) const override {
    return surviving_indices(gradients);
  }
  std::vector<std::size_t> accepted_inputs_with_cache(const std::vector<Vector>& gradients,
                                                      NormCache& cache) const override;

 private:
  std::size_t n_;
  std::size_t f_;
  bool normalize_;
};

}  // namespace redopt::filters

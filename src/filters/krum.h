// Krum and Multi-Krum (Blanchard et al., NeurIPS 2017) — distance-based
// selection filters used as comparison baselines in the filter ablation.
//
// Krum scores each gradient by the sum of squared distances to its
// n - f - 2 nearest other gradients and outputs the gradient with the
// smallest score.  Multi-Krum iteratively selects m gradients by the Krum
// rule and averages them.
#pragma once

#include "filters/gradient_filter.h"

namespace redopt::filters {

/// One Krum selection over the gradients whose @p active flag is set:
/// returns the index minimizing the sum of squared distances to its
/// nearest other active gradients.  Tolerates small pools (below f + 3 the
/// neighbourhood degrades to the single nearest gradient), which Bulyan's
/// iterative selection needs in its final rounds.  Requires at least two
/// active gradients.
std::size_t krum_select(const std::vector<Vector>& gradients, const std::vector<bool>& active,
                        std::size_t f);

/// Same selection, reading squared distances from the caller's flat n x n
/// matrix (see NormCache::pairwise_distances_squared) instead of
/// recomputing them — the O(n^2 d) distance pass is paid once however many
/// selection rounds run over the same gradients.
std::size_t krum_select_cached(const std::vector<Vector>& gradients,
                               const std::vector<bool>& active, std::size_t f,
                               const std::vector<double>& dist2);

/// Runs @p rounds successive Krum selections starting from the full pool,
/// deactivating each pick, and returns the picks in selection order.  Each
/// candidate's ascending-sorted distance array is maintained incrementally
/// across rounds (the selected gradient's distance is erased from every
/// survivor), so round r costs O(n^2) instead of the O(n^2 log n) rebuild —
/// the dominant cost of Bulyan's theta = n - 2f rounds.  Selections are
/// bit-identical to calling krum_select_cached round by round.
std::vector<std::size_t> krum_select_iterative(const std::vector<Vector>& gradients,
                                               std::size_t f, std::size_t rounds,
                                               const std::vector<double>& dist2);

class KrumFilter final : public GradientFilter {
 public:
  /// Requires n >= f + 3 so the neighbourhood size n - f - 2 is positive.
  KrumFilter(std::size_t n, std::size_t f);

  Vector apply(const std::vector<Vector>& gradients) const override;
  void apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const override;
  Vector apply_with_cache(const std::vector<Vector>& gradients, NormCache& cache) const override;
  std::string name() const override { return "krum"; }
  std::size_t expected_inputs() const override { return n_; }

  /// Index selected by the Krum rule (exposed for tests).
  std::size_t select(const std::vector<Vector>& gradients) const;

  /// The single selected gradient.
  std::vector<std::size_t> accepted_inputs(const std::vector<Vector>& gradients) const override {
    return {select(gradients)};
  }
  std::vector<std::size_t> accepted_inputs_with_cache(const std::vector<Vector>& gradients,
                                                      NormCache& cache) const override;

 private:
  std::size_t n_;
  std::size_t f_;
};

class MultiKrumFilter final : public GradientFilter {
 public:
  /// Selects @p m gradients (1 <= m <= n - f - 2 recommended) and averages.
  MultiKrumFilter(std::size_t n, std::size_t f, std::size_t m);

  Vector apply(const std::vector<Vector>& gradients) const override;
  Vector apply_with_cache(const std::vector<Vector>& gradients, NormCache& cache) const override;
  std::string name() const override { return "multikrum"; }
  std::size_t expected_inputs() const override { return n_; }

  /// The m iteratively-selected gradients, in ascending index order.
  std::vector<std::size_t> accepted_inputs(const std::vector<Vector>& gradients) const override;
  std::vector<std::size_t> accepted_inputs_with_cache(const std::vector<Vector>& gradients,
                                                      NormCache& cache) const override;

 private:
  std::size_t n_;
  std::size_t f_;
  std::size_t m_;
};

}  // namespace redopt::filters

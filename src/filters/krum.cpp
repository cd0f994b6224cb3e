#include "filters/krum.h"

#include <algorithm>
#include <limits>

#include "filters/norm_cache.h"
#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::filters {

namespace {

/// Krum score of each still-active gradient: sum of its n_active - f - 2
/// smallest squared distances to other active gradients.  Distances are
/// read from the caller-provided flat n x n matrix @p dist2, so iterative
/// callers (Multi-Krum, Bulyan) pay for the O(n^2 d) distance pass once
/// rather than once per selection round.  A null @p active means every
/// gradient is active; @p dists is the caller's scratch.
std::size_t select_by_score(GradientView gradients, const std::vector<bool>* active, std::size_t f,
                            const std::vector<double>& dist2, std::vector<double>& dists) {
  const std::size_t n = gradients.size();
  REDOPT_REQUIRE(dist2.size() == n * n, "krum selection: distance matrix shape mismatch");
  const auto is_active = [&](std::size_t i) { return active == nullptr || (*active)[i]; };
  std::size_t n_active = 0;
  for (std::size_t i = 0; i < n; ++i) n_active += is_active(i) ? 1 : 0;
  REDOPT_REQUIRE(n_active >= 1, "krum selection requires at least 1 active gradient");
  if (n_active == 1) {
    // Degenerate pool (Bulyan's final selection rounds at f = 0): the only
    // remaining gradient is the selection.
    for (std::size_t i = 0; i < n; ++i) {
      if (is_active(i)) return i;
    }
  }
  // Bulyan's iterative selection legitimately shrinks the pool below
  // f + 3 in its final rounds (pool bottoms out at 2f + 1); degrade the
  // neighbourhood to the single nearest other gradient there.  The
  // standalone KrumFilter still enforces n >= f + 3 at construction.
  const std::size_t neighbourhood = n_active >= f + 3 ? n_active - f - 2 : 1;

  double best_score = std::numeric_limits<double>::infinity();
  std::size_t best = n;  // sentinel
  // Exact score ties are possible (two mutually-nearest gradients with
  // neighbourhood size 1 share the score d(i,j)^2), so ties are broken by
  // the gradients' values, keeping selection independent of input order
  // (permutation invariance).
  auto lex_less = [&](std::size_t a, std::size_t b) {
    return gradients[a]->data() < gradients[b]->data();
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_active(i)) continue;
    dists.clear();
    const double* row = dist2.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || !is_active(j)) continue;
      dists.push_back(row[j]);
    }
    std::nth_element(dists.begin(), dists.begin() + static_cast<std::ptrdiff_t>(neighbourhood - 1),
                     dists.end());
    // The neighbourhood sum runs in nth_element's partition order — the
    // historical single-shot behaviour (deterministic for a given input).
    // krum_select_iterative sums the same values in ascending order; see
    // docs/PERFORMANCE.md for why that last-ulp difference is acceptable.
    const double score = linalg::kernels::sum(dists.data(), neighbourhood);
    if (score < best_score || (score == best_score && best < n && lex_less(i, best))) {
      best_score = score;
      best = i;
    }
  }
  REDOPT_ASSERT(best < n, "krum selected no gradient");
  return best;
}

}  // namespace

std::size_t krum_select_cached(const std::vector<Vector>& gradients,
                               const std::vector<bool>& active, std::size_t f,
                               const std::vector<double>& dist2) {
  std::vector<double> dists;
  return select_by_score(detail::view_of(gradients), &active, f, dist2, dists);
}

std::vector<std::size_t> krum_select_iterative(const std::vector<Vector>& gradients,
                                               std::size_t f, std::size_t rounds,
                                               const std::vector<double>& dist2) {
  const std::size_t n = gradients.size();
  REDOPT_REQUIRE(dist2.size() == n * n, "krum selection: distance matrix shape mismatch");
  REDOPT_REQUIRE(rounds >= 1 && rounds <= n, "krum selection: invalid round count");

  // Per-candidate ascending-sorted distances to the other active gradients.
  // Maintained incrementally: when a gradient is selected, its distance is
  // removed from every survivor's sorted array, which leaves exactly the
  // sorted multiset a from-scratch rebuild over the shrunken pool would
  // produce.  Scores are ascending prefix sums of these arrays, so every
  // round's selection is bit-identical to calling krum_select_cached on the
  // same pool — without the per-round O(a^2 log a) re-collection.
  std::vector<std::vector<double>> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = dist2.data() + i * n;
    sorted[i].reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sorted[i].push_back(row[j]);
    }
    std::sort(sorted[i].begin(), sorted[i].end());
  }

  auto lex_less = [&](std::size_t a, std::size_t b) {
    return gradients[a].data() < gradients[b].data();
  };

  std::vector<bool> active(n, true);
  std::size_t n_active = n;
  std::vector<std::size_t> picks;
  picks.reserve(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    REDOPT_ASSERT(n_active >= 1, "krum iterative selection exhausted the pool");
    const std::size_t neighbourhood = n_active >= f + 3 ? n_active - f - 2 : 1;
    double best_score = std::numeric_limits<double>::infinity();
    std::size_t best = n;  // sentinel
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      if (n_active == 1) {
        best = i;
        break;
      }
      const std::vector<double>& dists = sorted[i];
      const double score = linalg::kernels::sum(dists.data(), neighbourhood);
      if (score < best_score || (score == best_score && best < n && lex_less(i, best))) {
        best_score = score;
        best = i;
      }
    }
    REDOPT_ASSERT(best < n, "krum selected no gradient");
    picks.push_back(best);
    active[best] = false;
    --n_active;
    if (round + 1 == rounds) break;
    // Drop the selected gradient's distance from every survivor.  Equal
    // values may exist; erasing any one copy leaves the same multiset.
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      const double value = dist2[i * n + best];
      auto it = std::lower_bound(sorted[i].begin(), sorted[i].end(), value);
      REDOPT_ASSERT(it != sorted[i].end() && *it == value,
                    "krum iterative selection: stale distance array");
      sorted[i].erase(it);
    }
  }
  return picks;
}

std::size_t krum_select(const std::vector<Vector>& gradients,
                        const std::vector<bool>& active, std::size_t f) {
  NormCache cache(gradients);
  return krum_select_cached(gradients, active, f, cache.pairwise_distances_squared());
}

KrumFilter::KrumFilter(std::size_t n, std::size_t f) : n_(n), f_(f) {
  REDOPT_REQUIRE(n >= f + 3, "Krum requires n >= f + 3");
}

std::size_t KrumFilter::select(const std::vector<Vector>& gradients) const {
  detail::check_inputs(gradients, n_, "krum");
  return krum_select(gradients, std::vector<bool>(n_, true), f_);
}

Vector KrumFilter::apply(const std::vector<Vector>& gradients) const {
  Vector out;
  FilterScratch scratch;
  apply_into(detail::view_of(gradients), out, scratch);
  return out;
}

void KrumFilter::apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const {
  detail::check_inputs(gradients, n_, "krum");
  pairwise_distances_squared(gradients, scratch.values);
  out = *gradients[select_by_score(gradients, nullptr, f_, scratch.values, scratch.neighbours)];
}

Vector KrumFilter::apply_with_cache(const std::vector<Vector>& gradients,
                                    NormCache& cache) const {
  detail::check_inputs(gradients, n_, "krum");
  return gradients[krum_select_cached(gradients, std::vector<bool>(n_, true), f_,
                                      cache.pairwise_distances_squared())];
}

std::vector<std::size_t> KrumFilter::accepted_inputs_with_cache(
    const std::vector<Vector>& gradients, NormCache& cache) const {
  detail::check_inputs(gradients, n_, "krum");
  return {krum_select_cached(gradients, std::vector<bool>(n_, true), f_,
                             cache.pairwise_distances_squared())};
}

MultiKrumFilter::MultiKrumFilter(std::size_t n, std::size_t f, std::size_t m)
    : n_(n), f_(f), m_(m) {
  REDOPT_REQUIRE(m >= 1, "Multi-Krum requires m >= 1");
  // After removing m - 1 gradients a Krum selection must still be possible.
  REDOPT_REQUIRE(n >= f + 2 + m, "Multi-Krum requires n >= f + 2 + m");
}

Vector MultiKrumFilter::apply(const std::vector<Vector>& gradients) const {
  NormCache cache(gradients);
  return apply_with_cache(gradients, cache);
}

Vector MultiKrumFilter::apply_with_cache(const std::vector<Vector>& gradients,
                                         NormCache& cache) const {
  detail::check_inputs(gradients, n_, "multikrum");
  Vector acc(gradients.front().size());
  for (std::size_t pick : accepted_inputs_with_cache(gradients, cache)) acc += gradients[pick];
  return acc / static_cast<double>(m_);
}

std::vector<std::size_t> MultiKrumFilter::accepted_inputs(
    const std::vector<Vector>& gradients) const {
  NormCache cache(gradients);
  return accepted_inputs_with_cache(gradients, cache);
}

std::vector<std::size_t> MultiKrumFilter::accepted_inputs_with_cache(
    const std::vector<Vector>& gradients, NormCache& cache) const {
  detail::check_inputs(gradients, n_, "multikrum");
  std::vector<std::size_t> picks =
      krum_select_iterative(gradients, f_, m_, cache.pairwise_distances_squared());
  std::sort(picks.begin(), picks.end());
  return picks;
}

}  // namespace redopt::filters

#include "filters/norm_cache.h"

#include <algorithm>

#include "util/error.h"

namespace redopt::filters {

namespace {

/// Flat n x n squared distances of the gradients at(0), ..., at(n - 1):
/// each pair once by linalg::distance_squared, mirrored.
template <typename At>
void fill_pairwise(std::size_t n, At at, std::vector<double>& out) {
  out.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 = linalg::distance_squared(at(i), at(j));
      out[i * n + j] = d2;
      out[j * n + i] = d2;
    }
  }
}

/// Column-major d x n copy of the gradients at(0), ..., at(n - 1).
template <typename At>
void fill_columns(std::size_t n, At at, std::vector<double>& out) {
  REDOPT_REQUIRE(n > 0, "gather_columns on empty gradient set");
  const std::size_t d = at(0).size();
  out.resize(n * d);
  // Tile both dimensions so one tile of sources and destinations fits in
  // cache; the naive k-outer loop touches n distinct heap buffers per
  // coordinate, which thrashes at large d.
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < n; i0 += kTile) {
    const std::size_t i1 = std::min(n, i0 + kTile);
    for (std::size_t k0 = 0; k0 < d; k0 += kTile) {
      const std::size_t k1 = std::min(d, k0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* gi = at(i).data().data();
        for (std::size_t k = k0; k < k1; ++k) out[k * n + i] = gi[k];
      }
    }
  }
}

}  // namespace

NormCache::NormCache(const std::vector<Vector>& gradients) : gradients_(&gradients) {}

void NormCache::reset(const std::vector<Vector>& gradients) {
  gradients_ = &gradients;
  norms_ready_ = false;
  dist2_ready_ = false;
}

const std::vector<double>& NormCache::norms() {
  REDOPT_REQUIRE(gradients_ != nullptr, "NormCache used before being bound to gradients");
  if (!norms_ready_) {
    const auto& g = *gradients_;
    norms_.resize(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) norms_[i] = g[i].norm();
    norms_ready_ = true;
  }
  return norms_;
}

const std::vector<double>& NormCache::pairwise_distances_squared() {
  REDOPT_REQUIRE(gradients_ != nullptr, "NormCache used before being bound to gradients");
  if (!dist2_ready_) {
    const auto& g = *gradients_;
    fill_pairwise(g.size(), [&](std::size_t i) -> const Vector& { return g[i]; }, dist2_);
    dist2_ready_ = true;
  }
  return dist2_;
}

void pairwise_distances_squared(GradientView gradients, std::vector<double>& out) {
  fill_pairwise(gradients.size(), [&](std::size_t i) -> const Vector& { return *gradients[i]; },
                out);
}

void gather_columns(const std::vector<Vector>& gradients, std::vector<double>& out) {
  fill_columns(gradients.size(), [&](std::size_t i) -> const Vector& { return gradients[i]; },
               out);
}

void gather_columns(GradientView gradients, std::vector<double>& out) {
  fill_columns(gradients.size(), [&](std::size_t i) -> const Vector& { return *gradients[i]; },
               out);
}

}  // namespace redopt::filters

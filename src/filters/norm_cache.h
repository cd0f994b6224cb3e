// Per-round cache of derived quantities over one gradient multiset.
//
// Several filters need the same derived data — CGE needs the n gradient
// norms, Krum/Multi-Krum/Bulyan need the n x n pairwise squared distances —
// and the telemetry shim (filters/instrumented.h) additionally runs both
// accepted_inputs() and apply() on every round, doubling the work.  A
// NormCache is bound once per aggregation round (by the shim, or by the
// default GradientFilter::apply_into() to the copies in its FilterScratch),
// handed to apply_with_cache() / accepted_inputs_with_cache(), and
// computes each derived quantity lazily, at most once per round.
//
// Determinism: every cached quantity is computed with exactly the loops the
// uncached filters used (norms in ascending agent order via Vector::norm;
// pairwise distances via linalg::distance_squared with the strict kernels),
// so caching never changes results — it only deduplicates work.
//
// Lifetime: the cache borrows the gradient vector it was bound to.  It must
// not outlive the gradients, and reset() must be called whenever the
// gradients change (a FilterScratch reused across rounds keeps its cache's
// buffers, so the cache stops allocating after warm-up).
#pragma once

#include <cstddef>
#include <vector>

#include "filters/gradient_filter.h"
#include "linalg/vector.h"

namespace redopt::filters {

using linalg::Vector;

class NormCache {
 public:
  /// Unbound cache; reset() must be called before any accessor.  Lets a
  /// trainer own one cache as a plain member and rebind it every round.
  NormCache() = default;

  /// Binds the cache to one gradient multiset.  Borrows; does not copy.
  explicit NormCache(const std::vector<Vector>& gradients);

  /// Rebinds to a (possibly new) gradient multiset and invalidates all
  /// cached quantities.  Capacity is kept, so a trainer-owned cache stops
  /// allocating once every buffer has reached its steady-state size.
  void reset(const std::vector<Vector>& gradients);

  /// Number of gradients in the bound multiset (0 when unbound).
  std::size_t size() const { return gradients_ == nullptr ? 0 : gradients_->size(); }

  /// The bound gradients (for filters that mix cached and direct access).
  const std::vector<Vector>& gradients() const { return *gradients_; }

  /// Euclidean norms ||g_i||, ascending agent order.  Computed on first use.
  const std::vector<double>& norms();

  /// Flat n x n matrix of pairwise squared distances ||g_i - g_j||^2
  /// (entry i * n + j; symmetric, zero diagonal).  Computed on first use.
  const std::vector<double>& pairwise_distances_squared();

  // Introspection for tests: whether each quantity has been materialised.
  bool norms_computed() const { return norms_ready_; }
  bool pairwise_computed() const { return dist2_ready_; }

 private:
  const std::vector<Vector>* gradients_ = nullptr;
  std::vector<double> norms_;
  std::vector<double> dist2_;
  bool norms_ready_ = false;
  bool dist2_ready_ = false;
};

/// Working memory of GradientFilter::apply_into(), owned by the caller.
/// A filter resizes the buffers it uses and keeps their capacity, so a
/// caller that reuses one scratch across rounds stops allocating once the
/// sizes settle.
struct FilterScratch {
  std::vector<double> values;      ///< norms (CGE), columns (CWTM), distances (Krum)
  std::vector<double> neighbours;  ///< Krum: one candidate's distances
  std::vector<std::size_t> order;  ///< CGE: the norm ranking
  std::vector<Vector> inputs;      ///< the default apply_into: copies of the inputs
  NormCache cache;                 ///< the default apply_into: bound to inputs
};

/// Gathers the gradients into a column-major d x n buffer (out[k * n + i] =
/// gradients[i][k]) with cache-friendly tiling.  Coordinate-wise filters
/// (CWTM, CWMed, Bulyan stage 2) read columns sequentially afterwards
/// instead of striding across n separate heap buffers per coordinate.
void gather_columns(const std::vector<Vector>& gradients, std::vector<double>& out);
void gather_columns(GradientView gradients, std::vector<double>& out);

/// NormCache::pairwise_distances_squared() of @p gradients, written into
/// @p out (same loops, same bits).
void pairwise_distances_squared(GradientView gradients, std::vector<double>& out);

}  // namespace redopt::filters

// Gradient-filter (robust gradient aggregation) interface.
//
// In the DGD method of Section 4, the server aggregates the n received
// gradients with  GradFilter : R^{d x n} -> R^d  before taking a step.  A
// filter is a pure function of the gradient multiset; all state (n, f,
// hyper-parameters) is fixed at construction, and apply() is const and
// thread-compatible.
//
// Scale conventions follow the paper exactly:
//   * CGE outputs the *sum* of the n - f smallest-norm gradients (eq. 23);
//   * CWTM outputs the coordinate-wise *average* of the surviving
//     n - 2f entries (eq. 24).
// Filters that naturally produce a sum take a `normalize` flag to divide by
// the number of survivors, so ablations can compare on one scale.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/vector.h"

namespace redopt::filters {

using linalg::Vector;

class NormCache;

/// The gradients of one aggregation, read through pointers in input
/// order, so a caller can aggregate payloads where they lie.
using GradientView = std::span<const Vector* const>;

/// Working memory of apply_into(), owned by the caller (defined in
/// filters/norm_cache.h).
struct FilterScratch;

/// Robust aggregation of n agent gradients into one descent direction.
class GradientFilter {
 public:
  virtual ~GradientFilter() = default;

  /// Aggregates the gradients (one per agent, equal dimensions).
  /// The expected count is fixed at construction; passing a different
  /// number of gradients throws PreconditionError.
  virtual Vector apply(const std::vector<Vector>& gradients) const = 0;

  /// Writes apply() of the pointed-to gradients into @p out, bit for bit.
  /// CGE, CWTM and Krum override it, copy no input and allocate nothing
  /// once @p out and @p scratch reach their sizes.  The default copies the
  /// inputs into @p scratch and runs apply_with_cache() on them with the
  /// scratch's NormCache, reusing both buffers from call to call.
  virtual void apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const;

  /// Same as apply(), reading shared per-round quantities (norms, pairwise
  /// distances) from @p cache instead of recomputing them.  The cache must
  /// be bound to @p gradients.  Results are bit-identical to apply(); the
  /// default forwards to apply() for filters with nothing to share.
  virtual Vector apply_with_cache(const std::vector<Vector>& gradients, NormCache& cache) const;

  /// Cached variant of accepted_inputs(); same contract as apply_with_cache.
  virtual std::vector<std::size_t> accepted_inputs_with_cache(const std::vector<Vector>& gradients,
                                                              NormCache& cache) const;

  /// Canonical registry name, e.g. "cge".
  virtual std::string name() const = 0;

  /// Number of gradients the filter expects per call.
  virtual std::size_t expected_inputs() const = 0;

  /// Indices of the inputs that contribute to the output for this call —
  /// the accept/reject decision the telemetry shim records.  Selection
  /// filters override this (CGE: norm survivors; Krum/Bulyan/MDA: the
  /// selected set; CWTM: per-coordinate survivor union; clipping filters:
  /// the unclipped inputs).  Filters where every input keeps positive
  /// influence (mean, sum, medians, geometric median, GMoM) use this
  /// default: all indices, ascending.
  virtual std::vector<std::size_t> accepted_inputs(const std::vector<Vector>& gradients) const;
};

using FilterPtr = std::shared_ptr<const GradientFilter>;

namespace detail {

/// Shared validation for all filters.
void check_inputs(const std::vector<Vector>& gradients, std::size_t expected_n, const char* who);
void check_inputs(GradientView gradients, std::size_t expected_n, const char* who);

/// Pointers to each of @p gradients, in order.
std::vector<const Vector*> view_of(const std::vector<Vector>& gradients);

}  // namespace detail
}  // namespace redopt::filters

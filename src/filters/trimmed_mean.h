// Coordinate-wise trimmed mean (CWTM) and coordinate-wise median (CWMed).
//
// CWTM (eq. 24): per coordinate, drop the f smallest and f largest values
// and average the remaining n - 2f.  Theorem 5 gives (f, D' eps)-resilience
// when the honest gradients are mutually close (Assumption 5's lambda is
// below gamma / (mu sqrt(d))).
//
// CWMed is the f-independent limiting variant (median per coordinate),
// included as a classical robust-aggregation baseline.
#pragma once

#include "filters/gradient_filter.h"

namespace redopt::filters {

class CwtmFilter final : public GradientFilter {
 public:
  /// Requires n > 2f so at least one value survives per coordinate.
  CwtmFilter(std::size_t n, std::size_t f);

  Vector apply(const std::vector<Vector>& gradients) const override;
  void apply_into(GradientView gradients, Vector& out, FilterScratch& scratch) const override;
  std::string name() const override { return "cwtm"; }
  std::size_t expected_inputs() const override { return n_; }

  /// Agents whose value survives trimming in at least one coordinate
  /// (ties broken by agent index, matching a stable per-coordinate sort).
  std::vector<std::size_t> accepted_inputs(const std::vector<Vector>& gradients) const override;

 private:
  std::size_t n_;
  std::size_t f_;
};

class CwMedianFilter final : public GradientFilter {
 public:
  explicit CwMedianFilter(std::size_t n);

  Vector apply(const std::vector<Vector>& gradients) const override;
  std::string name() const override { return "cwmed"; }
  std::size_t expected_inputs() const override { return n_; }

 private:
  std::size_t n_;
};

}  // namespace redopt::filters

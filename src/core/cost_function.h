// The agent cost-function abstraction.
//
// In the paper each agent i holds a local cost Q_i : R^d -> R; all results
// are statements about aggregates of these costs over agent subsets.
// CostFunction is the library's representation of one Q_i.  Analytic
// structure (known Hessian / known minimizer) is optional and used by the
// redundancy machinery to compute argmin sets exactly for quadratic
// families; everything else falls back to the numeric minimizer in argmin.h.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace redopt::core {

using linalg::Matrix;
using linalg::Vector;

/// A differentiable cost function Q : R^d -> R owned by one agent.
class CostFunction {
 public:
  virtual ~CostFunction() = default;

  /// Dimension d of the decision variable.
  virtual std::size_t dimension() const = 0;

  /// Q(x).  Requires x.size() == dimension().
  virtual double value(const Vector& x) const = 0;

  /// The gradient (nabla Q)(x).  Requires x.size() == dimension().
  virtual Vector gradient(const Vector& x) const = 0;

  /// Writes gradient(x) into @p out, bit for bit.  @p scratch is the
  /// caller's working memory; the cost may resize and overwrite it.  A
  /// caller that keeps @p out and @p scratch across calls stops
  /// allocating once both reach their steady sizes.  The default copies
  /// gradient(x) in.
  virtual void gradient_into(const Vector& x, Vector& out, Vector& /*scratch*/) const {
    out = gradient(x);
  }

  /// Hessian at x, if the cost exposes one analytically.
  virtual std::optional<Matrix> hessian(const Vector& /*x*/) const { return std::nullopt; }

  /// Deep copy.
  virtual std::unique_ptr<CostFunction> clone() const = 0;

  /// Short human-readable description for logs and test diagnostics.
  virtual std::string describe() const = 0;
};

/// Shared-ownership handle used throughout the library; cost functions are
/// immutable after construction so sharing is safe.
using CostPtr = std::shared_ptr<const CostFunction>;

}  // namespace redopt::core

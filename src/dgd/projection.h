// Projection onto the compact convex constraint set W.
//
// The DGD method constrains its estimates to a compact convex W (eq. 20/21);
// compactness is what makes the GradFilter output bounded in the theorems.
// Box and ball projections cover the experiments; IdentityProjection (W =
// R^d) is available for fault-free sanity checks where compactness is not
// needed.
#pragma once

#include <memory>
#include <string>

#include "linalg/vector.h"

namespace redopt::dgd {

using linalg::Vector;

/// Projects points onto a closed convex set W.
class ProjectionSet {
 public:
  virtual ~ProjectionSet() = default;

  /// argmin_{y in W} ||x - y||  (unique for convex W).
  virtual Vector project(const Vector& x) const = 0;

  /// Replaces @p x by project(x), bit for bit.  The box and the identity
  /// work in place; the default assigns project(x).
  virtual void project_in_place(Vector& x) const { x = project(x); }

  /// Membership test with absolute tolerance.
  virtual bool contains(const Vector& x, double tol = 1e-12) const = 0;

  virtual std::string name() const = 0;
};

using ProjectionPtr = std::shared_ptr<const ProjectionSet>;

/// W = R^d (no projection).  Not compact; use only where boundedness is
/// otherwise guaranteed.
class IdentityProjection final : public ProjectionSet {
 public:
  Vector project(const Vector& x) const override { return x; }
  void project_in_place(Vector& /*x*/) const override {}
  bool contains(const Vector&, double) const override { return true; }
  std::string name() const override { return "identity"; }
};

/// Axis-aligned box [lo_1, hi_1] x ... x [lo_d, hi_d].
class BoxProjection final : public ProjectionSet {
 public:
  /// Per-coordinate bounds; requires lo[k] <= hi[k] for all k.
  BoxProjection(Vector lo, Vector hi);

  /// Symmetric cube [-half_width, half_width]^d.
  static BoxProjection cube(std::size_t d, double half_width);

  Vector project(const Vector& x) const override;
  void project_in_place(Vector& x) const override;
  bool contains(const Vector& x, double tol) const override;
  std::string name() const override { return "box"; }

 private:
  Vector lo_;
  Vector hi_;
};

/// Euclidean ball of the given center and radius.
class BallProjection final : public ProjectionSet {
 public:
  BallProjection(Vector center, double radius);

  Vector project(const Vector& x) const override;
  bool contains(const Vector& x, double tol) const override;
  std::string name() const override { return "ball"; }

 private:
  Vector center_;
  double radius_;
};

}  // namespace redopt::dgd

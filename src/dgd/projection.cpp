#include "dgd/projection.h"

#include <algorithm>

#include "util/error.h"

namespace redopt::dgd {

BoxProjection::BoxProjection(Vector lo, Vector hi) : lo_(std::move(lo)), hi_(std::move(hi)) {
  REDOPT_REQUIRE(lo_.size() == hi_.size(), "box bounds dimension mismatch");
  REDOPT_REQUIRE(!lo_.empty(), "box must have dimension >= 1");
  for (std::size_t k = 0; k < lo_.size(); ++k)
    REDOPT_REQUIRE(lo_[k] <= hi_[k], "box requires lo <= hi in every coordinate");
}

BoxProjection BoxProjection::cube(std::size_t d, double half_width) {
  REDOPT_REQUIRE(half_width >= 0.0, "cube half-width must be non-negative");
  return BoxProjection(Vector(d, -half_width), Vector(d, half_width));
}

Vector BoxProjection::project(const Vector& x) const {
  Vector out = x;
  project_in_place(out);
  return out;
}

void BoxProjection::project_in_place(Vector& x) const {
  REDOPT_REQUIRE(x.size() == lo_.size(), "box projection dimension mismatch");
  for (std::size_t k = 0; k < x.size(); ++k) x[k] = std::clamp(x[k], lo_[k], hi_[k]);
}

bool BoxProjection::contains(const Vector& x, double tol) const {
  if (x.size() != lo_.size()) return false;
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (x[k] < lo_[k] - tol || x[k] > hi_[k] + tol) return false;
  }
  return true;
}

BallProjection::BallProjection(Vector center, double radius)
    : center_(std::move(center)), radius_(radius) {
  REDOPT_REQUIRE(!center_.empty(), "ball must have dimension >= 1");
  REDOPT_REQUIRE(radius >= 0.0, "ball radius must be non-negative");
}

Vector BallProjection::project(const Vector& x) const {
  REDOPT_REQUIRE(x.size() == center_.size(), "ball projection dimension mismatch");
  const Vector delta = x - center_;
  const double dist = delta.norm();
  if (dist <= radius_) return x;
  return center_ + delta * (radius_ / dist);
}

bool BallProjection::contains(const Vector& x, double tol) const {
  if (x.size() != center_.size()) return false;
  return linalg::distance(x, center_) <= radius_ + tol;
}

}  // namespace redopt::dgd

// Dense real vector for the redopt library.
//
// The calibration note for this reproduction says the paper "needs a linear
// algebra lib"; redopt ships its own small dense one rather than depending on
// Eigen/BLAS.  Vector is a value type over double with the usual arithmetic,
// inner products and norms.  All binary operations validate dimensions.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace redopt::linalg {

/// Dense column vector in R^d with value semantics.
class Vector {
 public:
  /// Empty (zero-dimensional) vector.
  Vector() = default;

  /// Zero vector of the given dimension.
  explicit Vector(std::size_t dim) : data_(dim, 0.0) {}

  /// Vector with every coordinate equal to @p fill.
  Vector(std::size_t dim, double fill) : data_(dim, fill) {}

  /// Construction from a braced list: Vector{1.0, 2.0}.
  Vector(std::initializer_list<double> values) : data_(values) {}

  /// Adopts an existing buffer.
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access; throws PreconditionError when out of range.
  double& at(std::size_t i);
  double at(std::size_t i) const;

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  // In-place arithmetic (dimension-checked).
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  /// Euclidean (L2) norm.
  double norm() const;
  /// Squared Euclidean norm.
  double norm_squared() const;
  /// L1 norm.
  double norm_l1() const;
  /// L-infinity norm.
  double norm_inf() const;

  /// All-zero vector predicate with absolute tolerance.
  bool is_zero(double tol = 0.0) const;

  /// No NaN or infinite coordinate.
  bool is_finite() const;

  /// Human-readable rendering "(a, b, c)" used by examples and benches.
  std::string to_string(int digits = 6) const;

  friend bool operator==(const Vector& a, const Vector& b) { return a.data_ == b.data_; }

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator-(Vector v);  // unary negation
Vector operator*(Vector v, double s);
Vector operator*(double s, Vector v);
Vector operator/(Vector v, double s);

/// Inner product <a, b>.  Dimensions must match.
double dot(const Vector& a, const Vector& b);

/// Euclidean distance ||a - b||.
double distance(const Vector& a, const Vector& b);

/// Squared Euclidean distance ||a - b||^2 (no square root).
double distance_squared(const Vector& a, const Vector& b);

/// y += alpha * x without allocating a temporary.  Dimensions must match.
void axpy(Vector& y, double alpha, const Vector& x);

/// Coordinate-wise minimum / maximum of two vectors.
Vector cwise_min(const Vector& a, const Vector& b);
Vector cwise_max(const Vector& a, const Vector& b);

/// Arithmetic mean of a non-empty set of equally sized vectors.
Vector mean(const std::vector<Vector>& vs);

/// Sum of a non-empty set of equally sized vectors.
Vector sum(const std::vector<Vector>& vs);

std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace redopt::linalg

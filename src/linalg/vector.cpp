#include "linalg/vector.h"

#include "linalg/kernels.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace redopt::linalg {

namespace {
void require_same_dim(const Vector& a, const Vector& b, const char* op) {
  REDOPT_REQUIRE(a.size() == b.size(),
                 std::string("vector dimension mismatch in ") + op + ": " +
                     std::to_string(a.size()) + " vs " + std::to_string(b.size()));
}
}  // namespace

double& Vector::at(std::size_t i) {
  REDOPT_REQUIRE(i < data_.size(), "vector index out of range");
  return data_[i];
}

double Vector::at(std::size_t i) const {
  REDOPT_REQUIRE(i < data_.size(), "vector index out of range");
  return data_[i];
}

Vector& Vector::operator+=(const Vector& rhs) {
  require_same_dim(*this, rhs, "operator+=");
  kernels::add(data_.data(), rhs.data_.data(), data_.size());
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  require_same_dim(*this, rhs, "operator-=");
  kernels::sub(data_.data(), rhs.data_.data(), data_.size());
  return *this;
}

Vector& Vector::operator*=(double s) {
  kernels::scale(data_.data(), s, data_.size());
  return *this;
}

Vector& Vector::operator/=(double s) {
  REDOPT_REQUIRE(s != 0.0, "division of vector by zero scalar");
  for (auto& x : data_) x /= s;
  return *this;
}

double Vector::norm() const { return std::sqrt(norm_squared()); }

double Vector::norm_squared() const {
  return kernels::norm_squared(data_.data(), data_.size());
}

double Vector::norm_l1() const {
  double acc = 0.0;
  for (double x : data_) acc += std::abs(x);
  return acc;
}

double Vector::norm_inf() const {
  double acc = 0.0;
  for (double x : data_) acc = std::max(acc, std::abs(x));
  return acc;
}

bool Vector::is_zero(double tol) const {
  return std::all_of(data_.begin(), data_.end(),
                     [tol](double x) { return std::abs(x) <= tol; });
}

bool Vector::is_finite() const {
  return std::all_of(data_.begin(), data_.end(), [](double x) { return std::isfinite(x); });
}

std::string Vector::to_string(int digits) const {
  std::ostringstream os;
  os.precision(digits);
  os << '(';
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  os << ')';
  return os.str();
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator-(Vector v) {
  for (auto& x : v) x = -x;
  return v;
}

Vector operator*(Vector v, double s) {
  v *= s;
  return v;
}

Vector operator*(double s, Vector v) {
  v *= s;
  return v;
}

Vector operator/(Vector v, double s) {
  v /= s;
  return v;
}

double dot(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "dot");
  return kernels::dot(a.data().data(), b.data().data(), a.size());
}

double distance(const Vector& a, const Vector& b) {
  return std::sqrt(distance_squared(a, b));
}

double distance_squared(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "distance_squared");
  return kernels::distance_squared(a.data().data(), b.data().data(), a.size());
}

void axpy(Vector& y, double alpha, const Vector& x) {
  require_same_dim(y, x, "axpy");
  kernels::axpy(y.data().data(), alpha, x.data().data(), y.size());
}

Vector cwise_min(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "cwise_min");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::min(a[i], b[i]);
  return out;
}

Vector cwise_max(const Vector& a, const Vector& b) {
  require_same_dim(a, b, "cwise_max");
  Vector out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = std::max(a[i], b[i]);
  return out;
}

Vector sum(const std::vector<Vector>& vs) {
  REDOPT_REQUIRE(!vs.empty(), "sum of empty vector set");
  Vector acc(vs.front().size());
  for (const auto& v : vs) acc += v;
  return acc;
}

Vector mean(const std::vector<Vector>& vs) {
  Vector acc = sum(vs);
  acc /= static_cast<double>(vs.size());
  return acc;
}

std::ostream& operator<<(std::ostream& os, const Vector& v) { return os << v.to_string(); }

}  // namespace redopt::linalg

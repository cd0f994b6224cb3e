#include "rng/rng.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace redopt::rng {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : label) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // xoshiro's all-zero state is a fixed point; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway for safety.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  REDOPT_REQUIRE(lo < hi, "uniform(lo, hi) requires lo < hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  REDOPT_REQUIRE(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Polar Box–Muller: deterministic given the uniform stream.
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::gaussian(double mean, double sigma) {
  REDOPT_REQUIRE(sigma >= 0.0, "gaussian sigma must be non-negative");
  return mean + sigma * gaussian();
}

std::vector<double> Rng::gaussian_vector(std::size_t length) {
  std::vector<double> out(length);
  for (auto& x : out) x = gaussian();
  return out;
}

std::vector<double> Rng::unit_sphere(std::size_t d) {
  REDOPT_REQUIRE(d >= 1, "unit_sphere requires d >= 1");
  std::vector<double> v;
  double norm2 = 0.0;
  do {
    v = gaussian_vector(d);
    norm2 = 0.0;
    for (double x : v) norm2 += x * x;
  } while (norm2 == 0.0);
  const double inv = 1.0 / std::sqrt(norm2);
  for (auto& x : v) x *= inv;
  return v;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

std::vector<std::size_t> Rng::subset(std::size_t n, std::size_t k) {
  REDOPT_REQUIRE(k <= n, "subset size k must satisfy k <= n");
  // Floyd's algorithm keeps the draw count at k regardless of n.
  std::vector<std::size_t> chosen;
  chosen.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(j)));
    bool present = false;
    for (std::size_t c : chosen) {
      if (c == t) {
        present = true;
        break;
      }
    }
    chosen.push_back(present ? j : t);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

Rng Rng::fork(std::string_view label) const {
  std::uint64_t mix = seed_ ^ hash_label(label);
  // One extra SplitMix64 round decorrelates labels that differ in few bits.
  return Rng(splitmix64(mix));
}

}  // namespace redopt::rng

// Deterministic, platform-independent random number generation.
//
// The standard library's distributions (std::normal_distribution etc.) are
// implementation-defined, so two builds of the same experiment could produce
// different traces.  redopt therefore ships its own generator (xoshiro256**)
// and its own samplers, guaranteeing bit-identical experiment streams for a
// given seed on every platform.
//
// Streams can be forked by name: `rng.fork("agent-3")` yields an independent
// generator whose sequence depends only on the parent seed and the label,
// so per-agent noise does not depend on the order in which agents draw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace redopt::rng {

/// SplitMix64 step; used for seeding and stream derivation.
std::uint64_t splitmix64(std::uint64_t& state);

/// 64-bit FNV-1a hash of a string label (for named stream forking).
std::uint64_t hash_label(std::string_view label);

/// xoshiro256** generator with deterministic samplers.
class Rng {
 public:
  /// Seeds the generator; all four lanes are derived via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).  Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via the polar Box–Muller method (deterministic).
  double gaussian();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double gaussian(double mean, double sigma);

  /// Vector of iid standard normals of the given length.
  std::vector<double> gaussian_vector(std::size_t length);

  /// Uniformly random point on the unit sphere in R^d (d >= 1).
  std::vector<double> unit_sphere(std::size_t d);

  /// Fisher–Yates shuffle of indices 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

  /// Random subset of size k drawn from {0, ..., n-1}, sorted ascending.
  std::vector<std::size_t> subset(std::size_t n, std::size_t k);

  /// Independent generator derived from this seed and @p label.
  /// Forking does not advance this generator's sequence.
  Rng fork(std::string_view label) const;

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace redopt::rng

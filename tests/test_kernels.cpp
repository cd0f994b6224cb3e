// Tests for the dense kernels, the per-round NormCache, the LRU subset
// cache, and the batched least-squares gradient path.
//
// The kernels underwrite the determinism contract (docs/PERFORMANCE.md):
// every reduction is bit-identical to the naive single-accumulator
// reference loop, so these tests assert EXACT double equality, not
// tolerances.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/batch_gradient.h"
#include "core/least_squares_cost.h"
#include "core/quadratic_cost.h"
#include "core/subset_cache.h"
#include "filters/norm_cache.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "rng/rng.h"
#include "util/error.h"

using namespace redopt;
using linalg::Matrix;
using linalg::Vector;
namespace kernels = linalg::kernels;

namespace {

std::vector<double> values(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  auto v = rng.gaussian_vector(n);
  return v;
}

// The naive strict-order references the library used before the kernels.
double naive_dot(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double naive_norm_squared(const double* a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * a[i];
  return acc;
}

double naive_distance_squared(const double* a, const double* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

TEST(Kernels, DotMatchesNaiveReference) {
  for (std::size_t n : {0u, 1u, 3u, 7u, 64u, 129u}) {
    const auto a = values(n, 10 + n);
    const auto b = values(n, 20 + n);
    EXPECT_EQ(kernels::dot(a.data(), b.data(), n), naive_dot(a.data(), b.data(), n));
  }
}

TEST(Kernels, NormSquaredMatchesNaiveReference) {
  for (std::size_t n : {1u, 5u, 32u, 101u}) {
    const auto a = values(n, 30 + n);
    EXPECT_EQ(kernels::norm_squared(a.data(), n), naive_norm_squared(a.data(), n));
  }
}

TEST(Kernels, DistanceSquaredMatchesNaiveReference) {
  for (std::size_t n : {1u, 5u, 32u, 101u}) {
    const auto a = values(n, 40 + n);
    const auto b = values(n, 50 + n);
    EXPECT_EQ(kernels::distance_squared(a.data(), b.data(), n),
              naive_distance_squared(a.data(), b.data(), n));
  }
}

TEST(Kernels, ElementWiseKernelsAreExactInEveryMode) {
  const std::size_t n = 67;
  const auto x = values(n, 60);
  auto y = values(n, 61);
  auto reference = y;

  kernels::axpy(y.data(), 0.37, x.data(), n);
  for (std::size_t i = 0; i < n; ++i) reference[i] += 0.37 * x[i];
  EXPECT_EQ(y, reference);

  kernels::add(y.data(), x.data(), n);
  for (std::size_t i = 0; i < n; ++i) reference[i] += x[i];
  EXPECT_EQ(y, reference);

  kernels::sub(y.data(), x.data(), n);
  for (std::size_t i = 0; i < n; ++i) reference[i] -= x[i];
  EXPECT_EQ(y, reference);

  kernels::scale(y.data(), -1.25, n);
  for (std::size_t i = 0; i < n; ++i) reference[i] *= -1.25;
  EXPECT_EQ(y, reference);
}

TEST(Kernels, MatvecMatchesRowWiseDots) {
  // Strict in both builds.  The shapes straddle the eight-row interleave
  // (empty, tails, exact multiples); exact zeros and an all -0.0 row
  // catch any reordering or re-seeding of a row's accumulator.  Bit
  // patterns are compared because -0.0 == 0.0.
  for (std::size_t rows : {0u, 1u, 7u, 8u, 9u, 16u, 17u, 65u}) {
    for (std::size_t cols : {0u, 1u, 2u, 63u, 64u, 65u}) {
      auto a = values(rows * cols, 70 + 100 * rows + cols);
      auto x = values(cols, 71 + cols);
      for (std::size_t k = 0; k < a.size(); k += 5) a[k] = 0.0;
      for (std::size_t j = 0; j < cols && rows > 0; ++j) a[j] = -0.0;
      for (double& v : x) v = std::abs(v);
      if (cols > 1) x[1] = 0.0;
      std::vector<double> out(rows, 123.0);
      kernels::matvec(a.data(), rows, cols, x.data(), out.data());
      for (std::size_t i = 0; i < rows; ++i) {
        const double reference = naive_dot(a.data() + i * cols, x.data(), cols);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]), std::bit_cast<std::uint64_t>(reference))
            << rows << "x" << cols << " row " << i;
      }
    }
  }
}

TEST(Kernels, MatvecTransposedMatchesAscendingRowAccumulation) {
  const std::size_t rows = 23;
  // Column counts below, at and above the kernel's eight-column pass:
  // tail only, one pass plus a tail, and whole passes only.
  for (const std::size_t cols : {std::size_t{3}, std::size_t{9}, std::size_t{16}}) {
    auto a = values(rows * cols, 80);
    auto x = values(rows, 81);
    x[4] = 0.0;  // exercise the exact-zero row skip
    std::vector<double> out(cols, 123.0);  // kernel must zero-init
    kernels::matvec_transposed(a.data(), rows, cols, x.data(), out.data());
    std::vector<double> reference(cols, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      if (x[i] == 0.0) continue;
      for (std::size_t j = 0; j < cols; ++j) reference[j] += a[i * cols + j] * x[i];
    }
    EXPECT_EQ(out, reference) << "cols " << cols;  // strict order in both modes
  }
}

TEST(Kernels, GemmAddMatchesNaiveTripleLoop) {
  const std::size_t m = 17;
  const std::size_t k = 11;
  const std::size_t n = 13;
  const auto a = values(m * k, 90);
  const auto b = values(k * n, 91);
  std::vector<double> c(m * n, 0.0);
  kernels::gemm_add(a.data(), b.data(), c.data(), m, k, n);
  std::vector<double> reference(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        if (a[i * k + kk] == 0.0) continue;
        reference[i * n + j] += a[i * k + kk] * b[kk * n + j];
      }
    }
  }
  EXPECT_EQ(c, reference);  // blocked but order-preserving in both modes
}

namespace {

std::vector<Vector> make_gradients(std::size_t n, std::size_t d, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<Vector> gs;
  gs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) gs.push_back(Vector(rng.gaussian_vector(d)));
  return gs;
}

}  // namespace

TEST(NormCache, NormsAndPairwiseAreLazyAndCorrect) {
  const auto gradients = make_gradients(6, 11, 100);
  filters::NormCache cache(gradients);
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_FALSE(cache.norms_computed());
  EXPECT_FALSE(cache.pairwise_computed());

  const auto& norms = cache.norms();
  EXPECT_TRUE(cache.norms_computed());
  ASSERT_EQ(norms.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(norms[i], gradients[i].norm());

  const auto& dist2 = cache.pairwise_distances_squared();
  EXPECT_TRUE(cache.pairwise_computed());
  ASSERT_EQ(dist2.size(), 36u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(dist2[i * 6 + i], 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(dist2[i * 6 + j], dist2[j * 6 + i]);
      EXPECT_EQ(dist2[i * 6 + j], linalg::distance_squared(gradients[i], gradients[j]));
    }
  }
}

TEST(NormCache, ResetInvalidatesAndRebinds) {
  const auto first = make_gradients(4, 5, 101);
  const auto second = make_gradients(3, 5, 102);
  filters::NormCache cache(first);
  (void)cache.norms();
  (void)cache.pairwise_distances_squared();

  cache.reset(second);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.norms_computed());
  EXPECT_FALSE(cache.pairwise_computed());
  const auto& norms = cache.norms();
  ASSERT_EQ(norms.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(norms[i], second[i].norm());
}

TEST(NormCache, UnboundCacheThrows) {
  filters::NormCache cache;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_THROW(cache.norms(), PreconditionError);
  EXPECT_THROW(cache.pairwise_distances_squared(), PreconditionError);
}

TEST(NormCache, GatherColumnsTransposesExactly) {
  const std::size_t n = 7;
  const std::size_t d = 37;  // not a multiple of the tile size
  const auto gradients = make_gradients(n, d, 103);
  std::vector<double> columns;
  filters::gather_columns(gradients, columns);
  ASSERT_EQ(columns.size(), n * d);
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(columns[k * n + i], gradients[i][k]);
  }
}

TEST(SubsetCache, SignaturePacksIndices) {
  EXPECT_EQ(core::SubsetCache::signature({0}), 1u);
  EXPECT_EQ(core::SubsetCache::signature({0, 1, 3}), 0b1011u);
  EXPECT_EQ(core::SubsetCache::signature({63}), 1ull << 63);
  // Order-insensitive: a subset is a set.
  EXPECT_EQ(core::SubsetCache::signature({3, 1, 0}), core::SubsetCache::signature({0, 1, 3}));
  EXPECT_THROW(core::SubsetCache::signature({64}), PreconditionError);
}

TEST(SubsetCache, CountsHitsAndMisses) {
  core::SubsetCache cache(8);
  const auto sig = core::SubsetCache::signature({1, 2});
  EXPECT_EQ(cache.find(sig), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(sig, core::MinimizerSet::singleton(Vector{1.0}));
  const auto* hit = cache.find(sig);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->representative(), Vector{1.0});
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SubsetCache, EvictsLeastRecentlyUsed) {
  core::SubsetCache cache(2);
  const auto sig_a = core::SubsetCache::signature({0});
  const auto sig_b = core::SubsetCache::signature({1});
  const auto sig_c = core::SubsetCache::signature({2});
  cache.insert(sig_a, core::MinimizerSet::singleton(Vector{1.0}));
  cache.insert(sig_b, core::MinimizerSet::singleton(Vector{2.0}));
  ASSERT_NE(cache.find(sig_a), nullptr);  // refresh A: B is now the LRU entry
  cache.insert(sig_c, core::MinimizerSet::singleton(Vector{3.0}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(sig_a), nullptr);
  EXPECT_EQ(cache.find(sig_b), nullptr);  // evicted
  EXPECT_NE(cache.find(sig_c), nullptr);
}

namespace {

std::vector<core::CostPtr> make_ls_costs(std::size_t n, std::size_t d, std::size_t rows,
                                         std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<core::CostPtr> costs;
  costs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Matrix a(rows, d);
    for (std::size_t r = 0; r < rows; ++r) {
      const auto row = rng.gaussian_vector(d);
      for (std::size_t c = 0; c < d; ++c) a(r, c) = row[c];
    }
    costs.push_back(
        std::make_shared<core::LeastSquaresCost>(a, Vector(rng.gaussian_vector(rows))));
  }
  return costs;
}

}  // namespace

TEST(BatchGradient, BitIdenticalToVirtualGradientPath) {
  const std::size_t n = 5;
  const std::size_t d = 7;
  const auto costs = make_ls_costs(n, d, 3, 200);
  auto evaluator = core::BatchGradientEvaluator::try_create(costs);
  ASSERT_NE(evaluator, nullptr);
  EXPECT_EQ(evaluator->num_agents(), n);
  EXPECT_EQ(evaluator->dimension(), d);
  EXPECT_EQ(evaluator->agent_rows(0), 3u);

  const Vector x(values(d, 201));
  std::vector<Vector> batch;
  evaluator->evaluate_all(x, batch);
  ASSERT_EQ(batch.size(), n);
  Vector residual_ws;
  Vector single(d);
  for (std::size_t i = 0; i < n; ++i) {
    const Vector expected = costs[i]->gradient(x);
    EXPECT_EQ(batch[i], expected) << "evaluate_all, agent " << i;
    evaluator->evaluate_agent(i, x, residual_ws, single);
    EXPECT_EQ(single, expected) << "evaluate_agent, agent " << i;
  }
}

TEST(BatchGradient, RejectsNonLeastSquaresPopulations) {
  auto costs = make_ls_costs(3, 2, 2, 202);
  costs.push_back(std::make_shared<core::QuadraticCost>(
      core::QuadraticCost::squared_distance(Vector{1.0, 2.0})));
  EXPECT_EQ(core::BatchGradientEvaluator::try_create(costs), nullptr);
  EXPECT_EQ(core::BatchGradientEvaluator::try_create({}), nullptr);
}

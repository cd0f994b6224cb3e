// Property sweeps pinned directly to the theorems:
//   * Theorem 4's D*eps bound for DGD+CGE across the alpha > 0 grid;
//   * invariance properties of the (2f, eps)-redundancy measure
//     (scale invariance of argmin, translation equivariance);
//   * the gamma <= mu ordering the paper notes.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "attacks/registry.h"
#include "core/quadratic_cost.h"
#include "data/regression.h"
#include "dgd/trainer.h"
#include "filters/registry.h"
#include "redundancy/redundancy.h"
#include "util/error.h"

using namespace redopt;
using linalg::Vector;

// ---------------------------------------------------------------- Theorem 4 grid

namespace {

struct GridPoint {
  std::size_t n;
  std::size_t f;
  std::size_t d;
  std::string attack;
  std::uint64_t seed;
};

std::string grid_name(const testing::TestParamInfo<GridPoint>& info) {
  const auto& p = info.param;
  std::ostringstream name;
  name << 'n' << p.n << "_f" << p.f << "_d" << p.d << '_' << p.attack << "_s" << p.seed;
  return name.str();
}

std::vector<GridPoint> theorem4_grid() {
  std::vector<GridPoint> grid;
  // All (n, f) with alpha = 1 - 3 f / n > 0 at small scale.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {4, 1}, {6, 1}, {7, 2}, {10, 2}, {10, 3}};
  for (auto [n, f] : shapes) {
    for (std::size_t d : {2u, 5u}) {
      for (const char* attack : {"gradient_reverse", "zero", "lie"}) {
        grid.push_back({n, f, d, attack, 1 + n + f + d});
      }
    }
  }
  return grid;
}

}  // namespace

class Theorem4Grid : public testing::TestWithParam<GridPoint> {};

TEST_P(Theorem4Grid, CgeErrorWithinDTimesEpsilon) {
  const auto& p = GetParam();
  rng::Rng rng(p.seed);
  Vector x_star(p.d, 1.0);
  const auto inst = data::make_orthonormal_regression(p.n, p.d, p.f, 0.05, x_star, rng);
  const double eps = redundancy::measure_redundancy(inst.problem.costs, p.f).epsilon;

  // Orthonormal blocks: mu = gamma = 2 exactly.
  const double alpha = core::cge_alpha(p.n, p.f, 2.0, 2.0);
  ASSERT_GT(alpha, 0.0);
  const double bound = 4.0 * 2.0 * static_cast<double>(p.f) / (alpha * 2.0) * eps;

  std::vector<std::size_t> byzantine;
  for (std::size_t b = 0; b < p.f; ++b) byzantine.push_back(b);
  const auto honest = dgd::honest_ids(p.n, byzantine);
  const Vector x_h = data::block_regression_argmin(inst, honest);
  const auto attack = attacks::make_attack(p.attack);

  filters::FilterParams fp;
  fp.n = p.n;
  fp.f = p.f;
  dgd::TrainerConfig cfg;
  cfg.filter = filters::make_filter("cge", fp);
  cfg.schedule = std::make_shared<dgd::HarmonicSchedule>(0.3);
  cfg.projection = std::make_shared<dgd::BoxProjection>(dgd::BoxProjection::cube(p.d, 10.0));
  cfg.iterations = 4000;
  cfg.seed = p.seed;
  cfg.trace_stride = 0;
  const auto result = dgd::train(inst.problem, byzantine, attack.get(), cfg, x_h);
  EXPECT_LE(result.final_distance, bound + 5e-3)
      << "eps=" << eps << " alpha=" << alpha << " bound=" << bound;
}

INSTANTIATE_TEST_SUITE_P(AlphaPositiveRegime, Theorem4Grid, testing::ValuesIn(theorem4_grid()),
                         grid_name);

// ---------------------------------------------------------------- Redundancy invariances

namespace {

std::vector<core::CostPtr> quadratic_family(std::size_t n, std::size_t d, double spread,
                                            std::uint64_t seed, const Vector& shift = {}) {
  rng::Rng rng(seed);
  std::vector<core::CostPtr> costs;
  for (std::size_t i = 0; i < n; ++i) {
    Vector center(d);
    for (auto& c : center) c = rng.gaussian(0.0, spread);
    if (!shift.empty()) center += shift;
    costs.push_back(
        std::make_shared<core::QuadraticCost>(core::QuadraticCost::squared_distance(center)));
  }
  return costs;
}

}  // namespace

class RedundancyInvariance : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RedundancyInvariance, TranslationLeavesEpsilonUnchanged) {
  // Translating every cost by the same shift translates all minimizers,
  // so the Hausdorff distances — and epsilon — are unchanged.
  const auto base = quadratic_family(6, 3, 1.0, GetParam());
  const auto shifted = quadratic_family(6, 3, 1.0, GetParam(), Vector{5.0, -7.0, 11.0});
  const double eps_base = redundancy::measure_redundancy(base, 2).epsilon;
  const double eps_shifted = redundancy::measure_redundancy(shifted, 2).epsilon;
  EXPECT_NEAR(eps_base, eps_shifted, 1e-9);
}

TEST_P(RedundancyInvariance, PositiveCostScalingLeavesEpsilonUnchanged) {
  // Scaling each cost by the same positive constant leaves every argmin
  // set unchanged (the paper's argument for why minimum-point — not
  // value-based — approximation is the right notion).
  const auto base = quadratic_family(7, 2, 0.8, GetParam());
  std::vector<core::CostPtr> scaled;
  for (const auto& cost : base) {
    const auto* quad = dynamic_cast<const core::QuadraticCost*>(cost.get());
    ASSERT_NE(quad, nullptr);
    linalg::Matrix p = quad->p();
    p *= 13.0;
    scaled.push_back(std::make_shared<core::QuadraticCost>(p, quad->q() * 13.0,
                                                           quad->c() * 13.0));
  }
  EXPECT_NEAR(redundancy::measure_redundancy(base, 2).epsilon,
              redundancy::measure_redundancy(scaled, 2).epsilon, 1e-8);
}

TEST_P(RedundancyInvariance, CenterSpreadScalesEpsilonLinearly) {
  // Scaling the centers' spread scales every minimizer linearly, hence
  // epsilon too.
  const auto narrow = quadratic_family(6, 2, 0.5, GetParam());
  const auto wide = quadratic_family(6, 2, 1.5, GetParam());  // same draws, 3x spread
  const double eps_narrow = redundancy::measure_redundancy(narrow, 1).epsilon;
  const double eps_wide = redundancy::measure_redundancy(wide, 1).epsilon;
  EXPECT_NEAR(eps_wide / eps_narrow, 3.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancyInvariance,
                         testing::Values(std::uint64_t{11}, std::uint64_t{22},
                                         std::uint64_t{33}, std::uint64_t{44}));

// ---------------------------------------------------------------- gamma <= mu

TEST(Constants, GammaNeverExceedsMu) {
  // The paper notes gamma <= mu under Assumptions 2 and 3; check it on a
  // batch of random regression instances.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    rng::Rng rng(seed);
    const auto a = data::redundant_matrix(8, 3, 2, rng);
    const auto inst = data::make_regression(a, Vector{1.0, 0.0, -1.0}, 0.05, 2, rng);
    const auto constants = data::regression_constants(inst, inst.problem.all_agents());
    EXPECT_LE(constants.gamma, constants.mu + 1e-9) << "seed " << seed;
  }
}

TEST(Constants, FaultFreeAlphaIsOne) {
  EXPECT_DOUBLE_EQ(core::cge_alpha(10, 0, 5.0, 1.0), 1.0);
}

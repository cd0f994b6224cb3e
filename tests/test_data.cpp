// Tests for the synthetic data generators.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.h"
#include "data/classification.h"
#include "data/mean_estimation.h"
#include "data/regression.h"
#include "redundancy/redundancy.h"
#include "util/error.h"

using namespace redopt;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------- Regression

TEST(RegressionData, PaperMatrixShapeAndRedundancy) {
  const Matrix a = data::paper_matrix();
  EXPECT_EQ(a.rows(), 6u);
  EXPECT_EQ(a.cols(), 2u);
  EXPECT_TRUE(redundancy::regression_rank_condition(a, 1));
}

TEST(RegressionData, RedundantMatrixSatisfiesRankCondition) {
  rng::Rng rng(1);
  for (auto [n, d, f] : {std::tuple<std::size_t, std::size_t, std::size_t>{8, 3, 2},
                         {10, 4, 2},
                         {6, 2, 2}}) {
    const Matrix a = data::redundant_matrix(n, d, f, rng);
    EXPECT_EQ(a.rows(), n);
    EXPECT_EQ(a.cols(), d);
    EXPECT_TRUE(redundancy::regression_rank_condition(a, f));
  }
}

TEST(RegressionData, RedundantMatrixRejectsInfeasibleShapes) {
  rng::Rng rng(2);
  EXPECT_THROW(data::redundant_matrix(5, 2, 2, rng), redopt::PreconditionError);  // n-2f < d
  EXPECT_THROW(data::redundant_matrix(4, 1, 2, rng), redopt::PreconditionError);  // n <= 2f
}

TEST(RegressionData, NoiselessObservationsMatchGroundTruth) {
  rng::Rng rng(3);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  EXPECT_NEAR(linalg::distance(inst.b, linalg::matvec(inst.a, inst.x_star)), 0.0, 1e-15);
  // Every cost is zero at x_star.
  for (const auto& cost : inst.problem.costs) {
    EXPECT_NEAR(cost->value(inst.x_star), 0.0, 1e-15);
  }
}

TEST(RegressionData, NoiseLevelReflectedInObservations) {
  rng::Rng rng(4);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.5, 1, rng);
  const Vector residual = inst.b - linalg::matvec(inst.a, inst.x_star);
  EXPECT_GT(residual.norm(), 1e-3);
  EXPECT_LT(residual.norm_inf(), 5.0);  // ~ sigma * few
}

TEST(RegressionData, ArgminSolvesHonestSystem) {
  rng::Rng rng(5);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const Vector x_h = data::regression_argmin(inst, {1, 2, 3, 4, 5});
  EXPECT_NEAR(linalg::distance(x_h, Vector{1.0, 1.0}), 0.0, 1e-10);
  EXPECT_THROW(data::regression_argmin(inst, {}), redopt::PreconditionError);
}

TEST(RegressionData, ConstantsMatchDirectEigenComputation) {
  rng::Rng rng(6);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const std::vector<std::size_t> honest = {1, 2, 3, 4, 5};
  const auto constants = data::regression_constants(inst, honest);
  // mu = max 2||A_i||^2 over honest rows: all rows are unit norm -> 2.
  EXPECT_NEAR(constants.mu, 2.0, 1e-12);
  EXPECT_GT(constants.gamma, 0.0);
  EXPECT_LE(constants.gamma, constants.mu);  // gamma <= mu always
  // Cross-check gamma against core::strong_convexity_constant.
  const double gamma2 =
      core::strong_convexity_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(constants.gamma, gamma2, 1e-9);
  const double mu2 = core::lipschitz_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(constants.mu, mu2, 1e-9);
}

TEST(RegressionData, CgeAlphaFormula) {
  EXPECT_NEAR(core::cge_alpha(6, 0, 2.0, 1.0), 1.0, 1e-12);
  // alpha = 1 - (1/6)(1 + 2*2/0.5) = 1 - 1.5 = -0.5.
  EXPECT_NEAR(core::cge_alpha(6, 1, 2.0, 0.5), -0.5, 1e-12);
  EXPECT_THROW(core::cge_alpha(0, 0, 1.0, 1.0), redopt::PreconditionError);
  EXPECT_THROW(core::cge_alpha(6, 1, 1.0, 0.0), redopt::PreconditionError);
}

TEST(RegressionData, OrthonormalBlocksAreOrthonormal) {
  rng::Rng rng(20);
  const auto inst = data::make_orthonormal_regression(6, 3, 1, 0.0, Vector{1.0, 2.0, 3.0}, rng);
  EXPECT_EQ(inst.problem.num_agents(), 6u);
  for (std::size_t agent = 0; agent < inst.problem.num_agents(); ++agent) {
    const Matrix gram = inst.block(agent).gram();
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-10);
  }
}

TEST(RegressionData, OrthonormalInstanceHasAlphaPositive) {
  // mu = gamma = 2 exactly, so alpha = 1 - 3 f / n = 0.5 at n = 6, f = 1.
  rng::Rng rng(21);
  const auto inst = data::make_orthonormal_regression(6, 2, 1, 0.0, Vector{1.0, 1.0}, rng);
  const std::vector<std::size_t> honest = {1, 2, 3, 4, 5};
  const double mu = core::lipschitz_constant(inst.problem, honest, Vector(2));
  const double gamma = core::strong_convexity_constant(inst.problem, honest, Vector(2));
  EXPECT_NEAR(mu, 2.0, 1e-9);
  EXPECT_NEAR(gamma, 2.0, 1e-9);
  EXPECT_NEAR(core::cge_alpha(6, 1, mu, gamma), 0.5, 1e-9);
}

TEST(RegressionData, BlockArgminRecoversTruthNoiseless) {
  rng::Rng rng(22);
  const Vector x_star{0.5, -1.5};
  const auto inst = data::make_orthonormal_regression(7, 2, 2, 0.0, x_star, rng);
  const Vector x_h = data::block_regression_argmin(inst, {0, 2, 3, 5, 6});
  EXPECT_NEAR(linalg::distance(x_h, x_star), 0.0, 1e-10);
}

// ------------------------------------ Gram-Schmidt bit-identity contract
//
// make_orthonormal_regression may be restructured for speed only in ways
// that keep every output bit and the RNG stream position.  The reference is
// the original allocating Gram-Schmidt, copied verbatim.

namespace {

struct ReferenceBlocks {
  std::vector<Matrix> blocks;
  std::vector<Vector> observations;
};

ReferenceBlocks reference_orthonormal_regression(std::size_t n, std::size_t d, double noise_sigma,
                                                 const Vector& x_star, rng::Rng& rng) {
  ReferenceBlocks out;
  for (std::size_t i = 0; i < n; ++i) {
    Matrix a(d, d);
    for (std::size_t r = 0; r < d; ++r) {
      Vector row;
      double norm = 0.0;
      do {
        row = Vector(rng.gaussian_vector(d));
        for (std::size_t p = 0; p < r; ++p) {
          const Vector prev = a.row(p);
          row -= prev * linalg::dot(row, prev);
        }
        norm = row.norm();
      } while (norm < 1e-8);
      a.set_row(r, row / norm);
    }
    Vector b = linalg::matvec(a, x_star);
    for (auto& c : b) c += rng.gaussian(0.0, noise_sigma);
    out.blocks.push_back(std::move(a));
    out.observations.push_back(std::move(b));
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  }
  return true;
}

}  // namespace

TEST(RegressionData, OrthonormalRegressionIsBitIdenticalToTheAllocatingGramSchmidt) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{1, 1}, {3, 2}, {5, 7}, {16, 64}};
  for (const auto& [n, d] : shapes) {
    SCOPED_TRACE("n = " + std::to_string(n) + ", d = " + std::to_string(d));
    rng::Rng draw(1000 + 10 * n + d);
    Vector x_star(d);
    for (auto& v : x_star) v = draw.uniform(-3.0, 3.0);
    rng::Rng library_rng = draw.fork("problem");
    rng::Rng reference_rng = library_rng;
    const auto inst =
        data::make_orthonormal_regression(n, d, (n - 1) / 2, 0.25, x_star, library_rng);
    const ReferenceBlocks ref = reference_orthonormal_regression(n, d, 0.25, x_star, reference_rng);
    ASSERT_EQ(inst.problem.num_agents(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(inst.block(i).data(), ref.blocks[i].data())) << "block " << i;
      EXPECT_TRUE(same_bits(inst.observation(i).data(), ref.observations[i].data()))
          << "observation " << i;
    }
    // Both generators must stand at the same stream position, cached
    // Box-Muller half included.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(library_rng.gaussian()),
              std::bit_cast<std::uint64_t>(reference_rng.gaussian()));
    EXPECT_EQ(library_rng.next_u64(), reference_rng.next_u64());
  }
}

// ---------------------------------------------------------------- Classification

TEST(ClassificationData, ShapesAndLabels) {
  rng::Rng rng(7);
  data::ClassificationConfig cfg;
  cfg.n = 6;
  cfg.f = 1;
  cfg.d = 4;
  cfg.samples_per_agent = 20;
  cfg.test_samples = 100;
  const auto inst = data::make_classification(cfg, rng);
  EXPECT_EQ(inst.problem.num_agents(), 6u);
  EXPECT_EQ(inst.problem.dimension(), 4u);
  EXPECT_EQ(inst.test_features.rows(), 100u);
  for (std::size_t i = 0; i < inst.test_labels.size(); ++i) {
    EXPECT_TRUE(inst.test_labels[i] == 1.0 || inst.test_labels[i] == -1.0);
  }
  EXPECT_NEAR(inst.class_direction.norm(), 1.0, 1e-12);
}

TEST(ClassificationData, TrueDirectionClassifiesWell) {
  rng::Rng rng(8);
  data::ClassificationConfig cfg;
  cfg.separation = 3.0;
  const auto inst = data::make_classification(cfg, rng);
  // The generating direction itself should reach high accuracy.
  EXPECT_GT(data::test_accuracy(inst, inst.class_direction), 0.95);
  // A random orthogonal-ish direction should hover near chance.
  Vector junk(cfg.d);
  junk[0] = inst.class_direction[1];
  junk[1] = -inst.class_direction[0];
  EXPECT_LT(data::test_accuracy(inst, junk), 0.8);
}

TEST(ClassificationData, HingeVariantBuildsHingeCosts) {
  rng::Rng rng(9);
  data::ClassificationConfig cfg;
  cfg.loss = "hinge";
  cfg.n = 5;
  cfg.f = 1;
  const auto inst = data::make_classification(cfg, rng);
  EXPECT_NE(inst.problem.costs[0]->describe().find("smoothed_hinge"), std::string::npos);
}

TEST(ClassificationData, ValidatesConfig) {
  rng::Rng rng(10);
  data::ClassificationConfig cfg;
  cfg.loss = "mse";
  EXPECT_THROW(data::make_classification(cfg, rng), redopt::PreconditionError);
  cfg = {};
  cfg.n = 4;
  cfg.f = 2;
  EXPECT_THROW(data::make_classification(cfg, rng), redopt::PreconditionError);
}

TEST(ClassificationData, HeterogeneityShiftsAgentData) {
  rng::Rng rng_a(11), rng_b(11);
  data::ClassificationConfig homo;
  homo.heterogeneity = 0.0;
  data::ClassificationConfig hetero = homo;
  hetero.heterogeneity = 5.0;
  const auto inst_homo = data::make_classification(homo, rng_a);
  const auto inst_hetero = data::make_classification(hetero, rng_b);
  // Heterogeneous agents' local optima differ more: compare local gradient
  // spread at the origin as a cheap proxy.
  auto spread = [](const core::MultiAgentProblem& p) {
    std::vector<Vector> gs;
    for (const auto& c : p.costs) gs.push_back(c->gradient(Vector(p.dimension())));
    const Vector mean = linalg::mean(gs);
    double acc = 0.0;
    for (const auto& g : gs) acc += linalg::distance(g, mean);
    return acc / static_cast<double>(gs.size());
  };
  EXPECT_GT(spread(inst_hetero.problem), spread(inst_homo.problem));
}

// ---------------------------------------------------------------- Mean estimation

TEST(MeanEstimationData, HonestAggregateMinimizesAtSampleMean) {
  rng::Rng rng(12);
  const auto inst = data::make_mean_estimation(Vector{1.0, -1.0}, 0.5, 7, 2, rng);
  EXPECT_EQ(inst.problem.num_agents(), 7u);
  const std::vector<std::size_t> honest = {0, 1, 2, 3, 4};
  const Vector mean = data::honest_sample_mean(inst, honest);
  // The honest aggregate's gradient vanishes at the sample mean.
  const auto agg = inst.problem.aggregate(honest);
  EXPECT_NEAR(agg.gradient(mean).norm(), 0.0, 1e-10);
}

TEST(MeanEstimationData, SamplesConcentrateAroundTrueMean) {
  rng::Rng rng(13);
  const auto inst = data::make_mean_estimation(Vector{3.0}, 0.1, 9, 1, rng);
  const Vector mean = data::honest_sample_mean(inst, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_NEAR(mean[0], 3.0, 0.2);
}

TEST(MeanEstimationData, ValidatesArguments) {
  rng::Rng rng(14);
  EXPECT_THROW(data::make_mean_estimation(Vector{}, 1.0, 5, 1, rng), redopt::PreconditionError);
  EXPECT_THROW(data::make_mean_estimation(Vector{1.0}, -1.0, 5, 1, rng),
               redopt::PreconditionError);
  EXPECT_THROW(data::make_mean_estimation(Vector{1.0}, 1.0, 4, 2, rng),
               redopt::PreconditionError);
}

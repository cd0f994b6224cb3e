#include "attacks/attacks.h"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.h"
#include "util/error.h"

namespace redopt::attacks {

namespace detail {

void check_context(const AttackContext& ctx, bool needs_honest_gradients, const char* who) {
  REDOPT_REQUIRE(ctx.honest_gradient != nullptr,
                 std::string(who) + ": context missing the honest gradient");
  REDOPT_REQUIRE(ctx.estimate != nullptr, std::string(who) + ": context missing the estimate");
  REDOPT_REQUIRE(ctx.rng != nullptr, std::string(who) + ": context missing the rng");
  if (needs_honest_gradients) {
    REDOPT_REQUIRE(ctx.honest_gradients != nullptr && !ctx.honest_gradients->empty(),
                   std::string(who) + ": context missing honest gradients");
  }
}

}  // namespace detail

GradientReverseAttack::GradientReverseAttack(double scale) : scale_(scale) {
  REDOPT_REQUIRE(scale > 0.0, "gradient-reverse scale must be positive");
}

void GradientReverseAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "gradient_reverse");
  out = *ctx.honest_gradient;
  out *= -scale_;
}

RandomGaussianAttack::RandomGaussianAttack(double sigma) : sigma_(sigma) {
  REDOPT_REQUIRE(sigma >= 0.0, "random attack sigma must be non-negative");
}

void RandomGaussianAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "random");
  out.data().resize(ctx.honest_gradient->size());
  for (auto& x : out) x = ctx.rng->gaussian(0.0, sigma_);
}

void ZeroAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "zero");
  out.data().assign(ctx.honest_gradient->size(), 0.0);
}

LargeNormAttack::LargeNormAttack(double magnitude) : magnitude_(magnitude) {
  REDOPT_REQUIRE(magnitude > 0.0, "large-norm magnitude must be positive");
}

void LargeNormAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "large_norm");
  out = Vector(ctx.rng->unit_sphere(ctx.honest_gradient->size()));
  out *= magnitude_;
}

LittleIsEnoughAttack::LittleIsEnoughAttack(double z) : z_(z) {
  REDOPT_REQUIRE(z > 0.0, "LIE z must be positive");
}

void LittleIsEnoughAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, true, "lie");
  const auto& honest = *ctx.honest_gradients;
  const Vector mu = linalg::mean(honest);
  Vector sd(mu.size());
  for (std::size_t k = 0; k < mu.size(); ++k) {
    linalg::kernels::Sum var;
    for (const auto& g : honest) {
      const double diff = g[k] - mu[k];
      var.add(diff * diff);
    }
    sd[k] = std::sqrt(var.value() / static_cast<double>(honest.size()));
  }
  out = mu - sd * z_;
}

InnerProductAttack::InnerProductAttack(double c) : c_(c) {
  REDOPT_REQUIRE(c > 0.0, "IPM factor must be positive");
}

void InnerProductAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, true, "ipm");
  out = linalg::mean(*ctx.honest_gradients);
  out *= -c_;
}

NormCamouflageAttack::NormCamouflageAttack(double aggression) : aggression_(aggression) {
  REDOPT_REQUIRE(aggression > 0.0, "camouflage aggression must be positive");
}

void NormCamouflageAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, true, "camouflage");
  const auto& honest = *ctx.honest_gradients;
  std::vector<double> norms;
  norms.reserve(honest.size());
  for (const auto& g : honest) norms.push_back(g.norm());
  std::sort(norms.begin(), norms.end());
  const double median = norms[norms.size() / 2];
  const Vector mu = linalg::mean(honest);
  const double mu_norm = mu.norm();
  if (mu_norm == 0.0) {  // honest mean is zero: nothing to reverse
    out = Vector(mu.size());
    return;
  }
  out = mu * (-aggression_ * median / mu_norm);
}

OrthogonalDriftAttack::OrthogonalDriftAttack(double aggression) : aggression_(aggression) {
  REDOPT_REQUIRE(aggression > 0.0, "orthogonal-drift aggression must be positive");
}

void OrthogonalDriftAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, true, "orthogonal_drift");
  const auto& honest = *ctx.honest_gradients;
  const Vector mu = linalg::mean(honest);
  const std::size_t d = mu.size();
  if (d < 2) {  // no orthogonal complement in 1-D
    out = Vector(d);
    return;
  }
  linalg::kernels::Sum norm_sum;
  for (const auto& g : honest) norm_sum.add(g.norm());
  const double target = aggression_ * norm_sum.value() / static_cast<double>(honest.size());
  Vector dir(ctx.rng->unit_sphere(d));
  const double mu_sq = linalg::dot(mu, mu);
  if (mu_sq > 0.0) dir = dir - mu * (linalg::dot(dir, mu) / mu_sq);
  const double dir_norm = dir.norm();
  if (dir_norm < 1e-12) {  // draw was (numerically) parallel to the mean
    out = Vector(d);
    return;
  }
  out = dir * (target / dir_norm);
}

MimicAttack::MimicAttack(std::size_t target_rank) : target_rank_(target_rank) {}

void MimicAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, true, "mimic");
  const auto& honest = *ctx.honest_gradients;
  out = honest[target_rank_ % honest.size()];
}

SwitchAttack::SwitchAttack(AttackPtr inner, std::size_t switch_at)
    : inner_(std::move(inner)), switch_at_(switch_at) {
  REDOPT_REQUIRE(inner_ != nullptr, "switch attack needs an inner attack");
}

void SwitchAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "switch");
  if (ctx.iteration < switch_at_) {  // sleeper phase
    out = *ctx.honest_gradient;
    return;
  }
  inner_->craft_into(ctx, out);
}

bool SwitchAttack::responds(const AttackContext& ctx) const {
  if (ctx.iteration < switch_at_) return true;
  return inner_->responds(ctx);
}

DropoutAttack::DropoutAttack(std::size_t drop_after) : drop_after_(drop_after) {}

void DropoutAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "dropout");
  // Behaves honestly while it still replies.
  out = *ctx.honest_gradient;
}

bool DropoutAttack::responds(const AttackContext& ctx) const {
  return ctx.iteration < drop_after_;
}

PoisonedCostAttack::PoisonedCostAttack(double noise) : noise_(noise) {
  REDOPT_REQUIRE(noise >= 0.0, "poisoned-cost noise must be non-negative");
}

void PoisonedCostAttack::craft_into(const AttackContext& ctx, Vector& out) const {
  detail::check_context(ctx, false, "poisoned_cost");
  out = *ctx.honest_gradient;
  for (auto& x : out) x = -x;
  for (auto& x : out) x += ctx.rng->gaussian(0.0, noise_);
}

}  // namespace redopt::attacks

// Concrete Byzantine fault behaviours.
//
// The first two are the paper's evaluation faults; the rest are classical
// attacks from the Byzantine-ML literature used in the filter ablation.
#pragma once

#include "attacks/attack.h"

namespace redopt::attacks {

/// gradient-reverse (paper, Section 5): send -s where s is the gradient the
/// agent would have sent honestly.  Optionally scaled: -scale * s.
class GradientReverseAttack final : public Attack {
 public:
  explicit GradientReverseAttack(double scale = 1.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "gradient_reverse"; }

 private:
  double scale_;
};

/// random (paper, Section 5): send an iid Gaussian vector with mean 0 and
/// isotropic covariance of the given standard deviation (paper uses 200).
class RandomGaussianAttack final : public Attack {
 public:
  explicit RandomGaussianAttack(double sigma = 200.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "random"; }

 private:
  double sigma_;
};

/// Send the zero vector (a "mute" fault; weakest possible behaviour).
class ZeroAttack final : public Attack {
 public:
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "zero"; }
};

/// Send a huge vector along a random direction (norm = magnitude).
/// Defeats plain averaging instantly; trivially filtered by CGE.
class LargeNormAttack final : public Attack {
 public:
  explicit LargeNormAttack(double magnitude = 1e6);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "large_norm"; }

 private:
  double magnitude_;
};

/// "A little is enough" (Baruch et al., 2019): send mean - z * std of the
/// honest gradients, coordinate-wise.  Stays inside the honest spread so
/// distance- and trim-based filters struggle to remove it.
class LittleIsEnoughAttack final : public Attack {
 public:
  explicit LittleIsEnoughAttack(double z = 1.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "lie"; }

 private:
  double z_;
};

/// Inner-product manipulation (Xie et al., 2020): send -c * mean(honest
/// gradients), trying to flip the aggregate's inner product with the true
/// descent direction while keeping a plausible norm.
class InnerProductAttack final : public Attack {
 public:
  explicit InnerProductAttack(double c = 1.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "ipm"; }

 private:
  double c_;
};

/// Mimic attack (Karimireddy et al., 2021 line of work): the faulty agent
/// copies one fixed honest agent's gradient verbatim.  Individually the
/// value is perfectly plausible — it IS an honest gradient — but f copies
/// over-weight that agent's data, skewing the aggregate under
/// heterogeneity.  Defeats norm- and distance-based outlier tests by
/// construction; only the redundancy of the honest data limits its damage.
class MimicAttack final : public Attack {
 public:
  /// Copies the gradient of the honest agent at @p target_rank within the
  /// honest gradient list (wrapped modulo the list size).
  explicit MimicAttack(std::size_t target_rank = 0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "mimic"; }

 private:
  std::size_t target_rank_;
};

/// Time-varying fault: behaves honestly until iteration @p switch_at,
/// then switches to the wrapped attack.  Models sleeper agents that turn
/// malicious mid-run — a regime where any filter relying on *detecting*
/// the faulty identity once-and-for-all would fail, while per-iteration
/// robust aggregation (the paper's approach) is unaffected.
class SwitchAttack final : public Attack {
 public:
  /// @p inner must be non-null; ownership shared.
  SwitchAttack(AttackPtr inner, std::size_t switch_at);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  bool responds(const AttackContext& ctx) const override;
  std::string name() const override { return "switch"; }

 private:
  AttackPtr inner_;
  std::size_t switch_at_;
};

/// Crash/omission fault: behaves honestly until iteration @p drop_after,
/// then stops replying.  In the synchronous model the server detects the
/// missing reply, eliminates the agent and updates (n, f) — the paper's
/// step S1.  (Supported by the in-process trainer; the message-passing
/// protocols treat non-response as a crash and are exercised without it.)
class DropoutAttack final : public Attack {
 public:
  explicit DropoutAttack(std::size_t drop_after = 0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  bool responds(const AttackContext& ctx) const override;
  std::string name() const override { return "dropout"; }

 private:
  std::size_t drop_after_;
};

/// Adaptive norm-camouflage attack: observes the round's honest gradients
/// and sends the *negated honest mean* rescaled so its norm equals the
/// median honest norm (times an aggression factor).  Direction-wise it is
/// the worst vector an adversary can pick (pure anti-descent), but its
/// norm is indistinguishable from an honest reply, so norm-ranking filters
/// such as CGE cannot prefer honest gradients over it on magnitude alone —
/// only the redundancy bound limits its damage.
class NormCamouflageAttack final : public Attack {
 public:
  /// @p aggression multiplies the camouflage norm; 1.0 blends in exactly,
  /// values < 1 hide *below* the honest norms.
  explicit NormCamouflageAttack(double aggression = 1.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "camouflage"; }

 private:
  double aggression_;
};

/// Adaptive orthogonal-drift attack: sends a random direction with the
/// component along the honest mean projected out, scaled to the mean
/// honest norm (times an aggression factor).  Contributes nothing to
/// descent while steering the aggregate sideways — a slow-poison drift
/// that norm tests cannot see and inner-product tests score as neutral.
/// Degenerates to the zero vector in one dimension (no orthogonal
/// complement) or when the random draw aligns with the mean.
class OrthogonalDriftAttack final : public Attack {
 public:
  explicit OrthogonalDriftAttack(double aggression = 1.0);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "orthogonal_drift"; }

 private:
  double aggression_;
};

/// Data-poisoning style fault: the agent behaves like an honest agent whose
/// local cost has been corrupted (e.g. label-flipped data).  The crafted
/// value is the *negated* honest gradient mixed with noise, modelling the
/// gradient of a poisoned mirror cost.
class PoisonedCostAttack final : public Attack {
 public:
  /// @p noise: standard deviation of additive Gaussian noise.
  explicit PoisonedCostAttack(double noise = 0.1);
  void craft_into(const AttackContext& ctx, Vector& out) const override;
  std::string name() const override { return "poisoned_cost"; }

 private:
  double noise_;
};

}  // namespace redopt::attacks

// The distributed gradient-descent (DGD) method with a gradient-filter —
// the server-based algorithm of Section 4.
//
// Each iteration t (steps S1/S2 of the paper):
//   S1  the server broadcasts x^t; every honest agent replies with
//       grad Q_i(x^t); every Byzantine agent replies with whatever its
//       Attack crafts (with omniscient knowledge);
//   S2  the server aggregates the n replies with the configured
//       GradientFilter and updates
//           x^{t+1} = Proj_W( x^t - eta_t * GradFilter(g_1..g_n) ).
//
// This trainer is the in-process fast path; net/p2p.h runs the same
// algorithm over the simulated message-passing substrate (and the test
// suite checks the two produce identical iterates).
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "attacks/attack.h"
#include "core/problem.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "filters/gradient_filter.h"
#include "filters/norm_cache.h"
#include "rng/rng.h"
#include "telemetry/metrics.h"

namespace redopt::dgd {

/// Everything that defines one DGD execution apart from the problem itself.
struct TrainerConfig {
  filters::FilterPtr filter;      ///< required
  SchedulePtr schedule;           ///< required
  ProjectionPtr projection;       ///< required (use IdentityProjection for W = R^d)
  std::size_t iterations = 500;   ///< number of update steps
  linalg::Vector x0;              ///< initial estimate; empty = origin
  std::size_t trace_stride = 1;   ///< record every k-th iterate (0 = no trace)
  /// Keep the traced iterates x^t in Trace::estimates.  Loss/distance
  /// traces cost O(T) doubles, but estimates cost O(T * d) — sweeps over
  /// many configurations should switch this off and keep only the scalars.
  bool trace_estimates = true;
  std::uint64_t seed = 1;         ///< seeds the attack randomness

  /// Rebuilds the gradient-filter after an agent is eliminated (paper step
  /// S1: a missing reply identifies the agent as faulty; the server drops
  /// it and updates n and f).  Required only when the attack can stop
  /// responding (e.g. DropoutAttack); an elimination without a factory
  /// throws PreconditionError.
  std::function<filters::FilterPtr(std::size_t n, std::size_t f)> filter_factory;
};

/// Per-iteration observables of one execution.
struct Trace {
  std::vector<std::size_t> iteration;  ///< recorded iteration indices
  std::vector<double> loss;            ///< honest aggregate loss sum_{i in H} Q_i(x^t)
  std::vector<double> distance;        ///< ||x^t - reference|| (NaN if no reference)
  std::vector<linalg::Vector> estimates;  ///< recorded iterates x^t
};

/// Outcome of one DGD execution.
struct TrainResult {
  linalg::Vector estimate;  ///< final iterate x^T
  Trace trace;              ///< recorded observables (includes t = 0 and t = T)
  double final_loss = 0.0;  ///< honest aggregate loss at the final iterate
  double final_distance = std::numeric_limits<double>::quiet_NaN();  ///< to reference
  /// Agents eliminated for not replying, in elimination order (original ids).
  std::vector<std::size_t> eliminated_agents;
};

/// Step-wise DGD driver, for embedding the algorithm in a caller's own
/// loop (adaptive stopping, live monitoring, interleaving with other
/// work).  Each step() performs one S1 + S2 iteration — identical
/// semantics (and bit-identical iterates) to dgd::train, which is built
/// on this class.
class OnlineTrainer {
 public:
  /// Validates the configuration (same contract as dgd::train) and
  /// prepares the execution; no iteration is run yet.
  OnlineTrainer(const core::MultiAgentProblem& problem, std::vector<std::size_t> byzantine_ids,
                const attacks::Attack* attack, TrainerConfig config);

  /// Executes one iteration; returns the filtered direction that was
  /// applied (before the step-size scaling and projection), valid until
  /// the next step().  A steady-state step allocates nothing with CGE,
  /// CWTM or Krum while telemetry is off.
  const linalg::Vector& step();

  /// Runs @p steps iterations.
  void run(std::size_t steps);

  /// The current estimate x^t.
  const linalg::Vector& estimate() const { return x_; }

  /// Iterations executed so far.
  std::size_t iteration() const { return iteration_; }

  /// Honest aggregate loss at the current estimate.
  double honest_loss() const;

  /// Agents eliminated for not replying (original ids, elimination order).
  const std::vector<std::size_t>& eliminated_agents() const { return eliminated_agents_; }

 private:
  const core::MultiAgentProblem& problem_;
  TrainerConfig config_;
  std::vector<std::size_t> byzantine_ids_;
  const attacks::Attack* attack_;
  std::vector<bool> is_byzantine_;
  std::vector<std::size_t> honest_;
  std::vector<rng::Rng> agent_rngs_;

  linalg::Vector x_;
  std::size_t iteration_ = 0;

  // Elimination state (paper step S1).
  std::vector<bool> active_;
  std::size_t n_active_;
  std::size_t f_active_;
  filters::FilterPtr filter_;
  std::vector<std::size_t> eliminated_agents_;

  // Round buffers reused across step() calls.  Slots are overwritten in
  // place each round, so the steady state allocates nothing.
  std::vector<std::size_t> responders_;
  std::vector<linalg::Vector> honest_gradients_;
  std::vector<linalg::Vector> gradients_;
  std::vector<linalg::Vector> scratch_;  ///< per-agent gradient_into scratch
  linalg::Vector byz_gradient_ws_;       ///< true-gradient scratch (serial loops)
  std::vector<const linalg::Vector*> view_;  ///< the filter's inputs: gradients_
  filters::FilterScratch filter_scratch_;
  linalg::Vector direction_;
  linalg::Vector scaled_step_;  ///< eta_t * direction_
  linalg::Vector previous_;     ///< x^t, for the step-norm metric

  // Telemetry handles (registered at construction — serial context — so
  // step() only performs record operations).
  telemetry::Counter metric_iterations_;
  telemetry::Counter metric_eliminations_;
  telemetry::Histogram metric_direction_norm_;
  telemetry::Histogram metric_step_norm_;
};

/// Runs DGD on @p problem with the given Byzantine agents and fault
/// behaviour.
///
/// @p byzantine_ids  agents that misbehave this execution (sorted or not;
///                   must be distinct, within range, and at most problem.f).
/// @p attack         behaviour of the Byzantine agents; may be null iff
///                   byzantine_ids is empty.
/// @p reference      point against which trace.distance is measured
///                   (typically x_H, the honest aggregate's minimum).
TrainResult train(const core::MultiAgentProblem& problem,
                  const std::vector<std::size_t>& byzantine_ids, const attacks::Attack* attack,
                  const TrainerConfig& config,
                  const std::optional<linalg::Vector>& reference = std::nullopt);

/// The honest complement of @p byzantine_ids in {0..n-1}, ascending.
std::vector<std::size_t> honest_ids(std::size_t n, const std::vector<std::size_t>& byzantine_ids);

}  // namespace redopt::dgd

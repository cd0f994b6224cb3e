#include "dgd/trainer.h"

#include <algorithm>
#include <cmath>

#include "core/aggregate_cost.h"
#include "filters/instrumented.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "telemetry/span.h"
#include "util/error.h"

namespace redopt::dgd {

std::vector<std::size_t> honest_ids(std::size_t n, const std::vector<std::size_t>& byzantine_ids) {
  std::vector<bool> bad(n, false);
  for (std::size_t id : byzantine_ids) {
    REDOPT_REQUIRE(id < n, "byzantine id out of range");
    REDOPT_REQUIRE(!bad[id], "duplicate byzantine id");
    bad[id] = true;
  }
  std::vector<std::size_t> honest;
  honest.reserve(n - byzantine_ids.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!bad[i]) honest.push_back(i);
  }
  return honest;
}

OnlineTrainer::OnlineTrainer(const core::MultiAgentProblem& problem,
                             std::vector<std::size_t> byzantine_ids,
                             const attacks::Attack* attack, TrainerConfig config)
    : problem_(problem),
      config_(std::move(config)),
      byzantine_ids_(std::move(byzantine_ids)),
      attack_(attack) {
  problem_.validate();
  REDOPT_REQUIRE(config_.filter != nullptr, "trainer config needs a gradient filter");
  REDOPT_REQUIRE(config_.schedule != nullptr, "trainer config needs a step schedule");
  REDOPT_REQUIRE(config_.projection != nullptr, "trainer config needs a projection set");
  REDOPT_REQUIRE(byzantine_ids_.size() <= problem_.f,
                 "more byzantine agents than the problem's fault budget f");
  REDOPT_REQUIRE(byzantine_ids_.empty() || attack_ != nullptr,
                 "byzantine agents present but no attack supplied");
  REDOPT_REQUIRE(config_.filter->expected_inputs() == problem_.num_agents(),
                 "filter was constructed for a different number of agents");

  const std::size_t n = problem_.num_agents();
  const std::size_t d = problem_.dimension();
  honest_ = honest_ids(n, byzantine_ids_);
  is_byzantine_.assign(n, false);
  for (std::size_t id : byzantine_ids_) is_byzantine_[id] = true;

  x_ = config_.x0.empty() ? linalg::Vector(d) : config_.x0;
  REDOPT_REQUIRE(x_.size() == d, "x0 dimension mismatch");
  x_ = config_.projection->project(x_);

  // Each Byzantine agent draws from its own named stream so executions are
  // reproducible and independent of iteration order — and so the
  // message-passing implementation (net/server_protocol.h), where each
  // faulty node owns its stream, produces bit-identical runs.
  const rng::Rng root(config_.seed);
  agent_rngs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    agent_rngs_.push_back(root.fork("byzantine-agent-" + std::to_string(i)));
  }

  active_.assign(n, true);
  n_active_ = n;
  f_active_ = problem_.f;
  scratch_.resize(n);
  responders_.reserve(n);
  honest_gradients_.reserve(honest_.size());
  gradients_.reserve(n);
  view_.reserve(n);
  filter_ = config_.filter;
  // The instrumentation shim re-derives each call's accept set, which for
  // selection filters repeats the selection work — only pay for it when
  // telemetry is switched on.
  if (telemetry::enabled()) filter_ = filters::instrument(filter_, "dgd");

  auto& reg = telemetry::registry();
  metric_iterations_ = reg.counter("dgd.iterations");
  metric_eliminations_ = reg.counter("dgd.eliminations");
  const auto norm_layout = telemetry::BucketLayout::exponential(1e-6, 10.0, 12);
  metric_direction_norm_ = reg.histogram("dgd.direction_norm", norm_layout);
  metric_step_norm_ = reg.histogram("dgd.step_norm", norm_layout);
}

double OnlineTrainer::honest_loss() const {
  return core::subset_value(problem_.costs, honest_, x_);
}

const linalg::Vector& OnlineTrainer::step() {
  const std::size_t n = problem_.num_agents();
  const std::size_t d = problem_.dimension();
  const std::size_t t = iteration_;
  // Opened and closed in this serial context; the gradient fan-out below
  // never records into the span log.
  telemetry::ScopedSpan span("dgd.iteration");
  span.attr("t", static_cast<std::uint64_t>(t));

  // S1: honest replies (honest agents always reply in a synchronous
  // fault-free link model).  Each agent's gradient is an independent
  // evaluation written to its own slot, so the fan-out is bit-identical
  // at any runtime::threads() setting.
  responders_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (active_[i] && !is_byzantine_[i]) responders_.push_back(i);
  }
  honest_gradients_.resize(responders_.size());
  runtime::parallel_for(0, responders_.size(), [this](std::size_t j) {
    const std::size_t i = responders_[j];
    problem_.costs[i]->gradient_into(x_, honest_gradients_[j], scratch_[i]);
  });

  // Byzantine replies: first decide who responds at all, then craft.
  bool eliminated_this_round = false;
  std::uint64_t eliminated_round_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active_[i] || !is_byzantine_[i]) continue;
    problem_.costs[i]->gradient_into(x_, byz_gradient_ws_, scratch_[i]);
    attacks::AttackContext ctx;
    ctx.iteration = t;
    ctx.agent_id = i;
    ctx.n = n_active_;
    ctx.f = f_active_;
    ctx.estimate = &x_;
    ctx.honest_gradient = &byz_gradient_ws_;
    ctx.honest_gradients = &honest_gradients_;
    ctx.rng = &agent_rngs_[i];
    if (!attack_->responds(ctx)) {
      // Missing reply in a synchronous system: the agent is provably
      // faulty.  Eliminate it and update (n, f) — the paper's step S1.
      active_[i] = false;
      --n_active_;
      if (f_active_ > 0) --f_active_;
      eliminated_agents_.push_back(i);
      eliminated_this_round = true;
      ++eliminated_round_count;
      telemetry::span_instant("dgd.elimination",
                              {{"agent", telemetry::Value(static_cast<std::uint64_t>(i))},
                               {"t", telemetry::Value(static_cast<std::uint64_t>(t))}});
    }
  }
  if (eliminated_this_round) {
    REDOPT_REQUIRE(config_.filter_factory != nullptr,
                   "agent eliminated but no filter_factory configured to rebuild the "
                   "gradient filter for the reduced (n, f)");
    filter_ = config_.filter_factory(n_active_, f_active_);
    REDOPT_REQUIRE(filter_ != nullptr && filter_->expected_inputs() == n_active_,
                   "filter_factory produced an unusable filter");
    if (telemetry::enabled()) filter_ = filters::instrument(filter_, "dgd");
  }

  // Collect the round's gradients from the still-active agents, in
  // ascending agent-id order (honest replies were already computed).
  // Slots are copy-assigned, so equal-size rounds reuse every buffer.
  gradients_.resize(n_active_);
  std::size_t slot = 0;
  std::size_t honest_index = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active_[i]) continue;
    if (!is_byzantine_[i]) {
      gradients_[slot++] = honest_gradients_[honest_index++];
      continue;
    }
    problem_.costs[i]->gradient_into(x_, byz_gradient_ws_, scratch_[i]);
    attacks::AttackContext ctx;
    ctx.iteration = t;
    ctx.agent_id = i;
    ctx.n = n_active_;
    ctx.f = f_active_;
    ctx.estimate = &x_;
    ctx.honest_gradient = &byz_gradient_ws_;
    ctx.honest_gradients = &honest_gradients_;
    ctx.rng = &agent_rngs_[i];
    attack_->craft_into(ctx, gradients_[slot]);
    REDOPT_REQUIRE(gradients_[slot].size() == d, "attack crafted a wrong-dimension vector");
    ++slot;
  }

  // S2: filter and projected update, x <- Proj(x - eta_t * direction),
  // all in the round buffers.
  view_.clear();
  for (const linalg::Vector& g : gradients_) view_.push_back(&g);
  filter_->apply_into(view_, direction_, filter_scratch_);
  previous_ = x_;
  scaled_step_ = direction_;
  scaled_step_ *= config_.schedule->step(t);
  x_ -= scaled_step_;
  config_.projection->project_in_place(x_);
  ++iteration_;

  metric_iterations_.inc();
  if (eliminated_this_round) {
    metric_eliminations_.inc(eliminated_round_count);
  }
  const double direction_norm = direction_.norm();
  const double step_norm = linalg::distance(x_, previous_);
  metric_direction_norm_.observe(direction_norm);
  metric_step_norm_.observe(step_norm);
  if (telemetry::tracing_enabled()) {
    telemetry::emit(telemetry::Event("dgd.iteration")
                        .with("t", static_cast<std::int64_t>(t))
                        .with("loss", honest_loss())
                        .with("direction_norm", direction_norm)
                        .with("step_norm", step_norm)
                        .with("eliminated", static_cast<std::int64_t>(eliminated_round_count)));
  }
  return direction_;
}

void OnlineTrainer::run(std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) step();
}

TrainResult train(const core::MultiAgentProblem& problem,
                  const std::vector<std::size_t>& byzantine_ids, const attacks::Attack* attack,
                  const TrainerConfig& config,
                  const std::optional<linalg::Vector>& reference) {
  if (reference) {
    REDOPT_REQUIRE(reference->size() == problem.dimension(), "reference point dimension mismatch");
  }
  OnlineTrainer trainer(problem, byzantine_ids, attack, config);

  telemetry::ScopedSpan train_span("dgd.train");
  train_span.attr("iterations", static_cast<std::uint64_t>(config.iterations))
      .attr("n", static_cast<std::uint64_t>(problem.num_agents()))
      .attr("f", static_cast<std::uint64_t>(problem.f));

  TrainResult result;
  auto record = [&](std::size_t t) {
    if (config.trace_stride == 0) return;
    if (t % config.trace_stride != 0 && t != config.iterations) return;
    result.trace.iteration.push_back(t);
    result.trace.loss.push_back(trainer.honest_loss());
    result.trace.distance.push_back(reference
                                        ? linalg::distance(trainer.estimate(), *reference)
                                        : std::numeric_limits<double>::quiet_NaN());
    if (config.trace_estimates) result.trace.estimates.push_back(trainer.estimate());
  };

  record(0);
  for (std::size_t t = 0; t < config.iterations; ++t) {
    trainer.step();
    record(t + 1);
  }

  result.estimate = trainer.estimate();
  result.final_loss = trainer.honest_loss();
  if (reference) result.final_distance = linalg::distance(trainer.estimate(), *reference);
  result.eliminated_agents = trainer.eliminated_agents();
  return result;
}

}  // namespace redopt::dgd

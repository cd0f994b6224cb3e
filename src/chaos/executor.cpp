#include "chaos/executor.h"

#include <utility>

#include "attacks/registry.h"
#include "chaos/round.h"
#include "core/exact_algorithm.h"
#include "core/quadratic_cost.h"
#include "data/mean_estimation.h"
#include "data/regression.h"
#include "rng/rng.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "util/error.h"

namespace redopt::chaos {

std::unique_ptr<attacks::Attack> make_scenario_attack(const std::string& name, double param) {
  attacks::AttackParams p;
  if (name == "gradient_reverse") p.scale = param;
  if (name == "random") p.sigma = param;
  if (name == "large_norm") p.magnitude = param;
  if (name == "lie") p.z = param;
  if (name == "ipm") p.c = param;
  if (name == "camouflage" || name == "orthogonal_drift") p.aggression = param;
  if (name == "poisoned_cost") p.noise = param;
  if (name == "mimic") p.mimic_target = static_cast<std::size_t>(param);
  return attacks::make_attack(name, p);
}

double scenario_schedule_coefficient(const std::string& filter, std::size_t n, std::size_t f) {
  if (filter == "cge" || filter == "sum") return 1.0 / (2.0 * static_cast<double>(n - f));
  return 0.5;
}

MaterializedScenario materialize_scenario(const Scenario& s) {
  rng::Rng problem_rng = rng::Rng(s.seed).fork("problem");

  std::vector<bool> faulty(s.n, false);
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind != FaultSpec::Kind::kStraggler) faulty[spec.agent] = true;
  }
  std::vector<std::size_t> never_faulty;
  for (std::size_t i = 0; i < s.n; ++i) {
    if (!faulty[i]) never_faulty.push_back(i);
  }
  REDOPT_REQUIRE(!never_faulty.empty(), "scenario: every agent is faulty");

  // Elastic scenarios anchor the reference on the agents that are both
  // never faulty and still live in the final round — the cohort whose
  // aggregate the trainer can actually serve once churn settles.  An
  // empty intersection falls back to the never-faulty set.
  std::vector<std::size_t> reference_agents;
  for (std::size_t i : never_faulty) {
    if (s.member_at(i, s.rounds - 1)) reference_agents.push_back(i);
  }
  if (reference_agents.empty()) reference_agents = never_faulty;

  MaterializedScenario out;
  if (s.problem == "mean") {
    linalg::Vector mu(s.d);
    for (auto& v : mu) v = problem_rng.uniform(-3.0, 3.0);
    auto instance = data::make_mean_estimation(mu, s.noise_sigma, s.n, s.f, problem_rng);
    out.reference = data::honest_sample_mean(instance, reference_agents);
    out.problem = std::move(instance.problem);
  } else if (s.problem == "block_regression") {
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    auto instance =
        data::make_orthonormal_regression(s.n, s.d, s.f, s.noise_sigma, x_star, problem_rng);
    out.reference = data::block_regression_argmin(instance, reference_agents);
    out.problem = std::move(instance.problem);
  } else if (s.problem == "streaming_regression") {
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    out.problem.f = s.f;
    for (std::size_t i = 0; i < s.n; ++i) {
      auto cost = std::make_shared<data::StreamingLeastSquaresCost>(
          s.d, x_star, s.noise_sigma, problem_rng.fork("stream-agent-" + std::to_string(i)));
      out.streams.push_back(cost);
      out.problem.costs.push_back(cost);
    }
    out.problem.validate();
    // Reference: the honest aggregate argmin over the FINAL dataset —
    // clone each reference agent's stream (rng state included) and absorb
    // its entire arrival schedule, exactly as its replica will.
    std::vector<std::shared_ptr<const data::StreamingLeastSquaresCost>> final_costs;
    for (std::size_t i : reference_agents) {
      auto final_cost = std::make_shared<data::StreamingLeastSquaresCost>(*out.streams[i]);
      for (const StreamEvent& event : s.stream) {
        if (event.agent == i) final_cost->absorb(event.rows);
      }
      final_costs.push_back(std::move(final_cost));
    }
    out.reference = data::streaming_argmin(final_costs);
  } else {
    REDOPT_REQUIRE(s.problem == "regression", "scenario: unknown problem family: " + s.problem);
    linalg::Vector x_star(s.d);
    for (auto& v : x_star) v = problem_rng.uniform(-3.0, 3.0);
    const auto matrix = data::redundant_matrix(s.n, s.d, s.f, problem_rng);
    auto instance = data::make_regression(matrix, x_star, s.noise_sigma, s.f, problem_rng);
    try {
      out.reference = data::regression_argmin(instance, reference_agents);
    } catch (const PreconditionError&) {
      // Over-budget scenarios can leave fewer than n - 2f honest rows, so
      // the honest argmin need not be unique; anchor on the planted
      // solution instead (identical to x_H whenever noise_sigma == 0).
      out.reference = x_star;
    }
    out.problem = std::move(instance.problem);
  }
  return out;
}

ScenarioResult run_scenario(const Scenario& s, const ExecutorOptions& options) {
  s.validate();
  REDOPT_REQUIRE(!s.elastic(),
                 "scenario carries membership/stream events; run it through "
                 "elastic::run_elastic (chaos-replay routes there automatically)");

  // Telemetry handles first: registration must happen in a serial context.
  auto& reg = telemetry::registry();
  const auto metric_scenarios = reg.counter("chaos.scenarios");
  const auto metric_rounds = reg.counter("chaos.rounds");
  const auto metric_byzantine = reg.counter("chaos.byzantine_replies");
  const auto metric_crashed = reg.counter("chaos.crashed_absences");
  const auto metric_stale = reg.counter("chaos.stale_replies");
  const auto metric_dropped = reg.counter("chaos.dropped_replies");
  const auto metric_delayed = reg.counter("chaos.delayed_replies");
  const auto metric_duplicated = reg.counter("chaos.duplicated_replies");

  telemetry::ScopedSpan scenario_span("chaos.scenario");
  scenario_span.attr("n", static_cast<std::uint64_t>(s.n))
      .attr("f", static_cast<std::uint64_t>(s.f))
      .attr("rounds", static_cast<std::uint64_t>(s.rounds));

  const MaterializedScenario built = materialize_scenario(s);
  KernelOptions kernel_options;
  kernel_options.filter_factory = options.filter_factory;
  RoundKernel kernel(s, built, kernel_options);
  RoundState state = initial_round_state(s, built);

  while (!state.finished(s.rounds)) {
    // The span opens and closes in this serial context; the parallel
    // fan-outs inside the round never touch the span log.
    const std::size_t t = state.next_round;
    telemetry::ScopedSpan round_span("chaos.round");
    round_span.attr("t", static_cast<std::uint64_t>(t));
    kernel.step(state);
    metric_rounds.inc();

    auto note = [&](const char* name, std::size_t agent) {
      telemetry::span_instant(name, {{"agent", telemetry::Value(static_cast<std::uint64_t>(agent))},
                                     {"t", telemetry::Value(static_cast<std::uint64_t>(t))}});
    };
    const std::vector<RoundFate>& fates = kernel.fates();
    for (std::size_t i = 0; i < s.n; ++i) {
      if (fates[i].emits) continue;
      metric_crashed.inc();
      note("chaos.crashed", i);
    }
    for (std::size_t i = 0; i < s.n; ++i) {
      const RoundFate& fate = fates[i];
      if (!fate.emits) continue;
      if (fate.stale) metric_stale.inc();
      if (fate.byzantine) metric_byzantine.inc();
      if (fate.dropped) {
        metric_dropped.inc();
        note("chaos.dropped", i);
        continue;
      }
      if (fate.duplicated) {
        metric_duplicated.inc();
        note("chaos.duplicated", i);
      }
      if (fate.delay > 0) {
        metric_delayed.inc();
        note("chaos.delayed", i);
      }
    }
  }

  metric_scenarios.inc();
  return scenario_result(state, built);
}

double exact_algorithm_distance(const Scenario& s) {
  s.validate();
  REDOPT_REQUIRE(s.problem == "mean" || s.problem == "block_regression",
                 "exact-algorithm check supports mean / block_regression scenarios");
  REDOPT_REQUIRE(s.n <= 12, "exact-algorithm check enumerates subsets; keep n <= 12");

  const MaterializedScenario built = materialize_scenario(s);
  const rng::Rng root(s.seed);

  // Every faulty agent (Byzantine or crashed) submits an adversarially
  // displaced quadratic in place of its true cost.
  std::vector<core::CostPtr> received = built.problem.costs;
  for (const FaultSpec& spec : s.faults) {
    if (spec.kind == FaultSpec::Kind::kStraggler) continue;
    rng::Rng agent_rng = root.fork("byzantine-agent-" + std::to_string(spec.agent));
    linalg::Vector center(s.d);
    for (auto& v : center) v = agent_rng.uniform(-8.0, 8.0);
    received[spec.agent] =
        std::make_shared<core::QuadraticCost>(core::QuadraticCost::squared_distance(center));
  }

  const auto outcome = core::run_exact_algorithm(received, s.f);
  return linalg::distance(outcome.output, built.reference);
}

}  // namespace redopt::chaos

// Deterministic scenario execution.
//
// run_scenario() materializes a Scenario into a concrete adversarial DGD
// execution: it generates the problem instance from the scenario seed,
// steps the round kernel (chaos/round.h) under the scenario's fault
// schedule and channel model to the last round, and reports the
// trajectory observables Properties asserts on.  The execution is
// bit-identical for every REDOPT_THREADS value (honest gradient fan-out
// uses runtime::parallel_for with per-slot writes; every random draw
// comes from a per-(agent, round) named fork of the scenario seed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "attacks/attack.h"
#include "chaos/scenario.h"
#include "core/problem.h"
#include "data/streaming.h"
#include "filters/gradient_filter.h"
#include "linalg/vector.h"

namespace redopt::chaos {

/// The scenario's problem instance and honest reference, both derived
/// purely from the scenario (instance data from fork("problem"), the
/// reference from the agents no fault spec ever touches as Byzantine or
/// crashed, intersected with the final round's live membership).  Public
/// so transport sessions replay the exact instance the in-process
/// executor runs.
struct MaterializedScenario {
  core::MultiAgentProblem problem;
  linalg::Vector reference;
  /// "streaming_regression" only: mutable typed handles to the per-agent
  /// incremental costs (aliasing problem.costs).  The originals stay at
  /// their initial one-cycle state; agent replicas copy them (carrying
  /// the stream rng) and absorb privately, so sharing stays safe.
  std::vector<std::shared_ptr<data::StreamingLeastSquaresCost>> streams;
};

MaterializedScenario materialize_scenario(const Scenario& scenario);

/// Maps a scenario's scalar attack knob onto the registry parameter the
/// named attack actually reads.
std::unique_ptr<attacks::Attack> make_scenario_attack(const std::string& name, double param);

/// Filters that output on the paper's *sum* scale take a coefficient that
/// shrinks with the survivor count; average-scale filters use the fixed
/// coefficient matched to the mu = gamma = 2 instance families.
double scenario_schedule_coefficient(const std::string& filter, std::size_t n, std::size_t f);

/// Observables of one scenario execution.
struct ScenarioResult {
  linalg::Vector estimate;   ///< final iterate
  linalg::Vector reference;  ///< argmin of the never-faulty agents' aggregate
  double initial_distance = 0.0;  ///< ||x^0 - reference||
  double final_distance = 0.0;    ///< ||x^T - reference||
  double max_distance = 0.0;      ///< max over recorded rounds
  bool nonfinite = false;         ///< any NaN/Inf coordinate seen
  std::size_t nonfinite_round = 0;  ///< first offending round (when nonfinite)

  // Fault-injection counters (what the schedule actually did).
  std::uint64_t byzantine_replies = 0;  ///< attack-crafted replies sent
  std::uint64_t crashed_absences = 0;   ///< agent-rounds spent crashed
  std::uint64_t stale_replies = 0;      ///< straggler replies (stale estimate)
  std::uint64_t dropped_replies = 0;
  std::uint64_t delayed_replies = 0;
  std::uint64_t duplicated_replies = 0;
  std::uint64_t superseded_replies = 0;  ///< arrivals replaced by a fresher one
  std::uint64_t filter_rebuilds = 0;  ///< rounds aggregated with a reduced (n, f)
};

/// Builds the gradient filter @p name for (n, f); throws PreconditionError
/// when the filter cannot run at that shape.
using FilterFactory =
    std::function<filters::FilterPtr(const std::string& name, std::size_t n, std::size_t f)>;

/// Execution knobs that are not part of the scenario itself.
struct ExecutorOptions {
  /// Overrides gradient-filter construction (test hook: the broken-filter
  /// self-test injects a sign-flipped CGE here).  Default: filters registry.
  FilterFactory filter_factory;
};

/// Runs the scenario (validating it first).  Deterministic in the
/// scenario alone: same scenario, same result, any thread count.
ScenarioResult run_scenario(const Scenario& scenario, const ExecutorOptions& options = {});

/// Runs the constructive exact algorithm on the scenario's instance, with
/// every Byzantine agent submitting an adversarially displaced cost, and
/// returns the distance from the algorithm's output to the honest
/// reference.  Requires a "mean" or "block_regression" scenario with
/// small n (the algorithm enumerates subsets).
double exact_algorithm_distance(const Scenario& scenario);

}  // namespace redopt::chaos

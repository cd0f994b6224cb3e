// The slice runner: resumable, deterministic execution of one job.
//
// A job runs the same round kernel as chaos::run_scenario
// (chaos/round.h), a slice at a time.  Every fault draw is a per-(agent,
// round) named fork of the scenario seed, so the complete resumable
// state is the small JobCheckpoint blob: the spec plus the kernel's
// RoundState.  Stop after any round, reload the checkpoint in a fresh
// process, continue — the trajectory is bit-identical to the
// uninterrupted run and to chaos::run_scenario on every scenario
// (AllDrivers in tests/test_chaos.cpp pins both).
//
// The caller keeps one chaos::RoundKernel per job across slices (the
// scheduler does), so a slice rebuilds no filter, attack or round buffer;
// each agent evaluates through its own cost, in place.
#pragma once

#include <cstddef>

#include "chaos/executor.h"
#include "chaos/round.h"
#include "serving/checkpoint.h"

namespace redopt::serving {

/// The round-0 state of a job (chaos::initial_round_state).
JobCheckpoint make_initial_checkpoint(const JobSpec& spec,
                                      const chaos::MaterializedScenario& built);

/// Runs up to @p max_rounds rounds from @p ck through @p kernel (built
/// for ck.spec.scenario), mutating ck in place.  Returns the number of
/// rounds actually run (0 when already finished).  Caller checks
/// ck.finished() for completion.
std::size_t run_job_slice(JobCheckpoint& ck, std::size_t max_rounds, chaos::RoundKernel& kernel);

/// The final job manifest: spec, rounds, result block (distances,
/// estimate, fault counters) and a telemetry section built by shipping
/// a per-job telemetry island through the serialize -> parse -> render
/// pipeline (telemetry/ship.h).  Wall-clock lives under the "nd"
/// member only, so telemetry::stable_json_projection() of the manifest
/// is byte-identical across thread counts, processes, and kill/resume
/// boundaries.  Requires ck.finished().
std::string job_manifest_json(const JobCheckpoint& ck, const chaos::MaterializedScenario& built,
                              double wall_seconds);

}  // namespace redopt::serving

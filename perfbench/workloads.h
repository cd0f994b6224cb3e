// The benchmark's workloads, generated from --seed.
//
// Every workload carries both halves of the system's input: a job stream
// for redoptd and a pair of sessions (fixed membership, then the same
// scenario with churn) for the in-process transport path.  Which half a
// workload times end to end is its primary path; the traced run measures
// the other half too, on the same workload's inputs, so every per-layer
// metric exists on every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "serving/job.h"

namespace perfbench {

enum class Primary { kServing, kSession };

struct Workload {
  std::string name;
  Primary primary = Primary::kServing;
  /// Distinct job scenarios; job k runs job_pool[k % size] under its own id.
  std::vector<redopt::chaos::Scenario> job_pool;
  /// The timed serving phase submits at least this many jobs (so a p99
  /// has at least ten samples beyond it).
  std::size_t min_jobs = 0;
  /// Jobs of the fixed-size phases (work-count replay, serving probe).
  std::size_t fixed_jobs = 0;
  /// [0] fixed membership, [1] the same scenario with membership churn.
  std::vector<redopt::chaos::Scenario> sessions;
};

/// Throws redopt::PreconditionError for an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Job k of the workload's stream.
redopt::serving::JobSpec job_spec(const Workload& workload, std::size_t k);

}  // namespace perfbench

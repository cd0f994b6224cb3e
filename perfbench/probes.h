// In-process layer measurements: each times calls into one module's
// public functions from the benchmark's own code, so the per-layer
// numbers need no spans inside the program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "transport/transport.h"
#include "workloads.h"

namespace perfbench {

/// The workload's first `fixed_jobs` jobs replayed through an in-process
/// serving::Scheduler with the daemon's window (6 live jobs) and its
/// persistence calls: JobCheckpoint::to_json + atomic_write_file after
/// every slice, job_manifest_json + stable_json_projection at completion.
struct ReplayStats {
  std::vector<double> admit_ms, slice_us, ckpt_serialize_us, ckpt_write_us, manifest_us;
  std::vector<double> materialize_ms, restack_ms;
  double slice_total_us = 0.0;
  double ckpt_total_us = 0.0;  ///< serialize + write
  // Exact work counts.
  std::uint64_t jobs = 0, slices = 0, ckpt_bytes = 0, restacks = 0;
};

/// Writes its state files under @p state_dir (created, then removed).
ReplayStats replay_serving(const Workload& workload, const std::string& state_dir);

/// One session of @p workload.sessions[index] over the in-process
/// transport on a binary tree: index 0 through run_scenario_transport,
/// index 1 (churn) through run_elastic_transport.
struct SessionRun {
  std::vector<redopt::linalg::Vector> estimates;
  redopt::transport::TransportStats transport;
  std::uint64_t filter_rebuilds = 0;
  std::size_t rounds = 0;
};
SessionRun run_session(const Workload& workload, std::size_t index);

/// True when both traces hold the same doubles bit for bit.
bool same_trace(const std::vector<redopt::linalg::Vector>& a,
                const std::vector<redopt::linalg::Vector>& b);

/// Microsecond samples of single-layer calls.
struct LayerProbes {
  std::vector<double> executor_round_us;  ///< chaos::run_scenario time / rounds
  std::vector<double> gradient_us;        ///< one job's agents, one round
  std::vector<double> filter_cge_us, filter_cwtm_us, filter_krum_us;
  std::vector<double> codec_us;           ///< encode_frame + decode_frame, d = 64
};
LayerProbes probe_layers(const Workload& workload);

}  // namespace perfbench

// Transport sessions: end-to-end executions of the paper's server-based
// DGD over a Transport backend.
//
// Two entry points:
//
//   run_scenario_transport — executes a chaos::Scenario round loop with
//     the agents behind a Transport (in-process or multi-process socket
//     backend, any reduction topology).  Mirrors chaos::run_scenario's
//     aggregation semantics (freshest-reply dedup, the chaos::FilterCache
//     (n, f) fallback, harmonic schedule, box projection) with the fault
//     schedule evaluated inside AgentReplica from the pure per-(agent,
//     round) chaos::round_fate(), so the two backends produce
//     byte-identical estimate traces (the pinned cross-backend suite in
//     tests/test_transport.cpp) and match the executor bit for bit
//     (AllDrivers in tests/test_chaos.cpp).
//
//   run_dgd — the message-passing dgd trainer over a Transport, same
//     contract as net::run_server_protocol (and hence bit-identical to
//     dgd::train in the fault-free synchronous regime).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "dgd/trainer.h"
#include "telemetry/ship.h"
#include "transport/attribution.h"
#include "transport/socket_transport.h"
#include "transport/transport.h"

namespace redopt::transport {

enum class BackendKind { kInproc, kSocket };

/// The valid --backend spellings, in display order.
const std::vector<std::string>& backend_names();

std::string to_string(BackendKind backend);

/// Strict parse; the error message lists the valid values.
BackendKind backend_from_string(const std::string& name);

/// How a session moves its frames.
struct SessionOptions {
  BackendKind backend = BackendKind::kInproc;
  Topology topology = Topology::kStar;
  SocketOptions socket;  ///< socket-backend knobs (timeouts, test hooks)
};

/// Builds a backend for @p n agents running @p agent_fn (and shipping
/// @p telemetry_fn's islands, when set).  The socket backend forks its
/// agent processes immediately, so both callbacks must be ready before
/// the call.
std::unique_ptr<Transport> make_transport(const SessionOptions& options, std::size_t n,
                                          AgentFn agent_fn, TelemetryFn telemetry_fn = {});

/// Outcome of a scenario session.
struct ScenarioSession {
  chaos::ScenarioResult result;           ///< same observables as chaos::run_scenario
  std::vector<linalg::Vector> estimates;  ///< the full estimate trace x^0 .. x^T
  TransportStats transport;               ///< traffic of the execution

  /// Every live agent's shipped telemetry island, ascending by agent id
  /// (an agent whose socket link died is absent).
  std::vector<telemetry::AgentSnapshot> agents;
  /// The reconciled fault-attribution report (attribution.h).
  AttributionReport attribution;
};

/// The unified telemetry manifest of a finished session: the process-wide
/// registry snapshot plus every shipped agent island, one deterministic
/// JSON document (byte-identical across backends and thread counts after
/// telemetry::stable_json_projection).
std::string session_manifest_json(const ScenarioSession& session);

/// Chrome trace-event JSON (Perfetto-loadable): the coordinator's global
/// span log as pid 0 plus one track per shipped agent as pid agent+1.
std::string session_trace_json(const ScenarioSession& session);

ScenarioSession run_scenario_transport(const chaos::Scenario& scenario,
                                       const SessionOptions& options = {});

/// Outcome of a dgd execution over a transport.
struct DgdTransportResult {
  dgd::TrainResult train;  ///< same observables as dgd::train
  TransportStats stats;    ///< traffic of the execution
};

/// Same contract as net::run_server_protocol: fault-free (or
/// always-responding-attack) executions are bit-identical to dgd::train
/// with the same config and seed, on either backend and any topology.
DgdTransportResult run_dgd(const core::MultiAgentProblem& problem,
                           const std::vector<std::size_t>& byzantine_ids,
                           const attacks::Attack* attack, const dgd::TrainerConfig& config,
                           const SessionOptions& options = {},
                           const std::optional<linalg::Vector>& reference = std::nullopt);

}  // namespace redopt::transport

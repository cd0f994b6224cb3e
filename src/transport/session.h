// Transport sessions: end-to-end executions of the paper's server-based
// DGD over a Transport backend.
//
// One coordinator round loop, run_session(), serves every scenario
// session.  A round is the same whether the agent set is fixed or
// churning: every live member's AgentReplica (agent_replica.h) emits its
// reply under the pure per-(agent, round) chaos::round_fate(); the
// coordinator replays the chaos::MembershipSchedule and the fates for
// accounting and attribution, keeps the freshest reply per agent, filters
// the replies through the chaos::FilterCache at (m_t, f_t) and takes the
// projected harmonic step.  A fixed scenario is the one-epoch schedule
// (m_t = n, f_t = f every round).  Three entry points step this loop:
//
//   run_scenario_transport — fixed-membership scenarios behind a
//     Transport (in-process or multi-process socket backend, any
//     reduction topology).  Both backends produce byte-identical estimate
//     traces (the pinned cross-backend suite in tests/test_transport.cpp)
//     and match the in-process executor bit for bit (AllDrivers in
//     tests/test_chaos.cpp).
//
//   elastic::run_elastic_transport — churn and streaming scenarios behind
//     a Transport (elastic/session.h).
//
//   elastic::run_elastic — the same loop with a direct in-process fan-out
//     instead of a Transport: the transport-free reference the
//     cross-backend tests compare against.
//
// Separately, run_dgd is the message-passing dgd trainer over a
// Transport, same contract as net::run_server_protocol (and hence
// bit-identical to dgd::train in the fault-free synchronous regime).
#pragma once

#include <cstdint>
#include <functional>
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
  TransportStats transport;               ///< traffic of the execution (zero without a transport)

  // Membership observables, replayed coordinator-side from the
  // membership schedule (a fixed scenario books n live agents per round
  // and nothing else).
  std::uint64_t joins = 0;                ///< membership flips into the live set
  std::uint64_t leaves = 0;               ///< membership flips out of the live set
  std::uint64_t member_agent_rounds = 0;  ///< agent-rounds spent live
  std::uint64_t absent_agent_rounds = 0;  ///< agent-rounds spent departed
  std::uint64_t stream_rows = 0;          ///< rows absorbed across all agents
  std::uint64_t f_rederivations = 0;      ///< rounds run with derived f_t < f
  std::uint64_t rounds_below_redundancy = 0;  ///< rounds without the 2f headroom

  /// Every live agent's shipped telemetry island, ascending by agent id
  /// (an agent whose socket link died is absent).
  std::vector<telemetry::AgentSnapshot> agents;
  /// The reconciled fault-attribution report (attribution.h); empty
  /// without a transport.
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

/// The entry points' hooks into the coordinator loop.
struct SessionLoop {
  /// Overrides gradient-filter construction (test hook, see
  /// chaos::FilterCache).  Default: filters registry.
  chaos::FilterFactory filter_factory;
  /// Called after every round's step with the round and its estimate.
  std::function<void(std::size_t round, const linalg::Vector& estimate)> after_round;
};

/// The coordinator round loop (see the header comment).  @p scenario must
/// be validated.  With @p options the agents run behind the Transport it
/// describes and @p session gets its traffic stats and the reconciled
/// attribution report; with nullptr they run as a direct in-process
/// fan-out in ascending agent order, with neither.  Elastic scenarios
/// record elastic.scenario / elastic.round spans and the elastic.*
/// membership counters, the others session.scenario / session.round.
void run_session(const chaos::Scenario& scenario, const SessionOptions* options,
                 const SessionLoop& loop, ScenarioSession& session);

/// Fixed-membership scenarios only (elastic ones throw).
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

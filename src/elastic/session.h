// Elastic sessions: end-to-end executions of churn + streaming scenarios.
//
// Two entry points with one coordinator core:
//
//   run_elastic — the in-process oracle.  Runs n ElasticReplicas behind a
//     canonical-order frame gather (sequential fan-out: every replica
//     island keeps a single registry shard, so histogram sums merge in
//     one deterministic order) and drives the membership-aware round loop:
//     filter (m_t, f_t) re-derivation from the live member count, the
//     session layer's f-decrement fallback below that, freshest-reply
//     dedup, harmonic schedule, box projection, and one published
//     estimate snapshot per round on the serving path.
//
//   run_elastic_transport — the same replicas behind a Transport backend
//     (inproc or socket, any topology).  The protocol state is all in
//     the replicas and the pure per-(agent, round) chaos::round_fate()
//     schedule, so both backends — and run_elastic itself — produce
//     byte-identical estimate traces, fault counters and (projected)
//     telemetry manifests; tests/test_elastic.cpp pins exactly that.
//
// The coordinator books chaos.* counters with executor semantics plus
// elastic.* membership observables, and wraps every round in an
// elastic.round span under one elastic.scenario span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "elastic/serving.h"
#include "filters/gradient_filter.h"
#include "linalg/vector.h"
#include "telemetry/ship.h"
#include "transport/session.h"

namespace redopt::elastic {

/// Execution knobs that are not part of the scenario itself.
struct ElasticOptions {
  /// Overrides gradient-filter construction (test hook, mirroring
  /// chaos::ExecutorOptions).  Default: filters registry.
  chaos::FilterFactory filter_factory;

  /// The coordinator serves (and records) one deterministic snapshot
  /// query every this many rounds; 0 disables the query trace.
  std::size_t query_stride = 1;

  /// Optional external service to publish every round's snapshot into —
  /// the hand-off point for concurrent readers on other threads.  The
  /// session always maintains its own internal service as well.
  EstimateService* service = nullptr;
};

/// Observables of one elastic execution.
struct ElasticSession {
  chaos::ScenarioResult result;           ///< the executor's observables
  std::vector<linalg::Vector> estimates;  ///< full estimate trace x^0 .. x^T

  // Membership / streaming observables (coordinator-side replay).
  std::uint64_t joins = 0;                ///< membership flips into the live set
  std::uint64_t leaves = 0;               ///< membership flips out of the live set
  std::uint64_t member_agent_rounds = 0;  ///< agent-rounds spent live
  std::uint64_t absent_agent_rounds = 0;  ///< agent-rounds spent departed
  std::uint64_t stream_rows = 0;          ///< rows absorbed across all agents
  std::uint64_t f_rederivations = 0;      ///< rounds run with derived f_t < f
  std::uint64_t rounds_below_redundancy = 0;  ///< rounds without the 2f headroom

  // The serving-path query trace (deterministic coordinator queries).
  std::vector<std::size_t> query_rounds;
  std::vector<double> query_distances;  ///< ||snapshot - reference|| per query

  transport::TransportStats transport;  ///< transport path only (zero inproc-oracle)
  std::vector<telemetry::AgentSnapshot> agents;  ///< shipped replica islands
};

/// Runs the scenario in-process (validates it first; requires elastic()
/// or a streaming problem).  Deterministic in the scenario alone: same
/// scenario, same session, any thread count.
ElasticSession run_elastic(const chaos::Scenario& scenario, const ElasticOptions& options = {});

/// Same execution behind a Transport backend.
ElasticSession run_elastic_transport(const chaos::Scenario& scenario,
                                     const transport::SessionOptions& session_options,
                                     const ElasticOptions& options = {});

/// The unified telemetry manifest of a finished elastic session —
/// registry snapshot (minus net.*, which only a net:: protocol run in the
/// same process registers) plus every shipped island; byte-identical
/// across backends and thread counts after telemetry::stable_json_projection.
std::string elastic_manifest_json(const ElasticSession& session);

/// Chrome trace-event JSON (Perfetto-loadable): the coordinator's global
/// span log as pid 0 plus one track per shipped replica as pid agent+1.
std::string elastic_trace_json(const ElasticSession& session);

/// Bitwise equality of everything deterministic: trajectory, fault and
/// membership counters, the query trace.  Transport stats are excluded
/// (bytes_on_wire varies with topology, retries with timing).
bool bit_identical(const ElasticSession& a, const ElasticSession& b);

}  // namespace redopt::elastic

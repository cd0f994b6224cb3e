// Elastic sessions: end-to-end executions of churn + streaming scenarios.
//
// Both entry points step the one coordinator round loop of
// transport/session.h (transport::run_session), which records the elastic
// span vocabulary (elastic.scenario / elastic.round) and membership
// counters on scenarios with membership or stream events; this layer adds
// the serving path: one published estimate snapshot per round and the
// deterministic coordinator query trace.
//
//   run_elastic — the in-process reference: the replicas run as a direct
//     fan-out with no Transport, so the session carries no transport
//     stats and no attribution report.
//
//   run_elastic_transport — the same replicas behind a Transport backend
//     (inproc or socket, any topology), with a reconciled attribution
//     report.  All protocol state lives in the replicas and the pure
//     per-(agent, round) chaos::round_fate() schedule, so both backends —
//     and run_elastic itself — produce byte-identical estimate traces,
//     fault counters and (projected) telemetry manifests;
//     tests/test_elastic.cpp pins exactly that.
//
// transport::session_manifest_json / session_trace_json render either
// kind of session.
#pragma once

#include <vector>

#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "elastic/serving.h"
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

/// Observables of one elastic execution: the scenario session's
/// (membership observables included) plus the serving-path query trace.
struct ElasticSession : transport::ScenarioSession {
  std::vector<std::size_t> query_rounds;
  std::vector<double> query_distances;  ///< ||snapshot - reference|| per query
};

/// Runs the scenario in-process (validates it first).  Deterministic in
/// the scenario alone: same scenario, same session, any thread count.
ElasticSession run_elastic(const chaos::Scenario& scenario, const ElasticOptions& options = {});

/// Same execution behind a Transport backend.
ElasticSession run_elastic_transport(const chaos::Scenario& scenario,
                                     const transport::SessionOptions& session_options,
                                     const ElasticOptions& options = {});

/// Bitwise equality of everything deterministic: trajectory, fault and
/// membership counters, the query trace.  Transport stats are excluded
/// (bytes_on_wire varies with topology, retries with timing).
bool bit_identical(const ElasticSession& a, const ElasticSession& b);

}  // namespace redopt::elastic

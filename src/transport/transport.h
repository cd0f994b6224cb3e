// Transport: moves gradient frames between the coordinator and the n
// agents of a round-based distributed optimization, over a pluggable
// reduction topology.
//
// The interface is deliberately dumb: exchange(round, estimate) ships
// the estimate down the topology, runs every agent's emission callback,
// and gathers whatever gradient frames survive back at the root, in a
// canonical (agent, emitted) order.  All *protocol* behaviour — crash
// windows, Byzantine attacks, stragglers, channel drop/duplicate/delay —
// lives in the AgentFn callback (see agent_replica.h), which is shared
// verbatim by both backends.  That split is what makes the cross-backend
// contract testable: the in-process backend (inproc_transport.h) is the
// oracle, the socket backend (socket_transport.h, fork + socketpair)
// must match it frame for frame.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/vector.h"
#include "telemetry/metrics.h"
#include "transport/topology.h"
#include "util/frame.h"

namespace redopt::transport {

/// Computes one agent's outgoing frames for a round.  Runs in-process on
/// the inproc backend and inside agent processes on the socket backend,
/// so it must be deterministic in (agent, round, estimate) plus its own
/// per-agent state — never in cross-agent shared state.
using AgentFn = std::function<std::vector<util::Frame>(std::size_t agent, std::size_t round,
                                                       const linalg::Vector& estimate)>;

/// Serializes one agent's telemetry island (telemetry/ship.h) at
/// collection time.  Runs agent-side: in-process on the inproc backend,
/// inside the forked agent process on the socket backend — so, like
/// AgentFn, it must be deterministic in the agent's own state.
using TelemetryFn = std::function<std::string(std::size_t agent)>;

/// One shipped telemetry blob, tagged by the agent that produced it.
struct AgentBlob {
  std::uint32_t agent = 0;
  std::string blob;
};

/// Traffic observables of one transport.  Everything except the two
/// kUnstable-flagged counters is a pure function of the execution, equal
/// across backends and thread counts.
struct TransportStats {
  std::uint64_t exchanges = 0;         ///< rounds driven through exchange()
  std::uint64_t frames_delivered = 0;  ///< gradient frames gathered at the root
  std::uint64_t bytes_on_wire = 0;     ///< protocol cost model (see below)
  std::uint64_t reduce_rounds = 0;     ///< accumulated gather depth (max topology depth / exchange)
  std::uint64_t messages_retried = 0;  ///< socket reads retried (timing-dependent; kUnstable)
  std::uint64_t agent_deaths = 0;      ///< dead agent links detected (kUnstable)
};

class Transport {
 public:
  Transport(Topology topology, std::size_t n);
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Ships @p estimate down the topology, gathers the agents' gradient
  /// frames back at the root, canonically ordered by (agent, emitted).
  virtual std::vector<util::Frame> exchange(std::size_t round, const linalg::Vector& estimate) = 0;

  virtual std::string name() const = 0;

  /// Gathers every live agent's serialized telemetry island, ascending
  /// by agent id.  Call at most once, after the last exchange; backends
  /// without a TelemetryFn return nothing.  On the socket backend this
  /// runs a dedicated kTelemetry collection sweep over the topology, and
  /// agents whose link died are simply absent from the result.
  virtual std::vector<AgentBlob> collect_telemetry() { return {}; }

  Topology topology() const { return topology_; }
  std::size_t num_agents() const { return n_; }
  const TransportStats& stats() const { return stats_; }

 protected:
  /// Canonicalizes @p frames and books the exchange into the stats and
  /// telemetry.  bytes_on_wire follows a backend-independent cost model:
  /// one estimate frame per tree edge going down, plus each delivered
  /// gradient frame's wire size times the edges it traversed (its hops
  /// field).  Flow-control frames (round-done, shutdown) are socket
  /// bookkeeping and deliberately excluded, so both backends account the
  /// same bytes for the same execution.
  void finish_exchange(std::vector<util::Frame>& frames, std::size_t estimate_dim);

  void note_retry();
  void note_death();

 private:
  Topology topology_;
  std::size_t n_;
  TransportStats stats_;
  telemetry::Counter metric_exchanges_;
  telemetry::Counter metric_delivered_;
  telemetry::Counter metric_bytes_;
  telemetry::Counter metric_reduce_rounds_;
  telemetry::Counter metric_retried_;
  telemetry::Counter metric_deaths_;
};

}  // namespace redopt::transport

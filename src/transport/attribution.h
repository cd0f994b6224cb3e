// Fault-attribution reporting: reconciles what a scenario session
// *observed* (frames at the coordinator, transport byte counters) with
// what the fault schedule *says happened* (the pure fate() replay) and
// with what the agents themselves *shipped* (their replica.* telemetry
// islands, see telemetry/ship.h).
//
// The report answers "which agent / which link is responsible for the
// traffic and the missing replies" with per-agent and per-link tables
// whose totals equal the TransportStats of the execution exactly — not
// approximately: bytes_on_wire follows the same backend-independent cost
// model finish_exchange() books (one estimate frame per tree edge down,
// each delivered gradient frame's wire size times its hops up), so any
// disagreement is a bug, and ok() says so.
//
// Everything here is a pure function of coordinator-side observations
// plus the scenario, so the report is byte-identical across backends and
// thread counts for the same execution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/round.h"
#include "telemetry/ship.h"
#include "transport/topology.h"
#include "transport/transport.h"
#include "util/frame.h"

namespace redopt::transport {

/// One agent's reconciled ledger.
struct AgentAttribution {
  std::uint32_t agent = 0;

  // Observed at the coordinator.
  std::uint64_t frames_delivered = 0;  ///< gradient frames that arrived
  std::uint64_t bytes_up = 0;          ///< wire size x hops, summed over its frames
  std::uint64_t superseded = 0;        ///< arrivals replaced by a fresher reply

  // Replayed from the fault schedule (pure fate() per member round).
  std::uint64_t rounds = 0;  ///< rounds the agent was a live member
  std::uint64_t byzantine = 0;
  std::uint64_t crashed = 0;
  std::uint64_t stale = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t expected_frames = 0;  ///< deliveries the schedule predicts (all links live)

  // Shipped by the agent's telemetry island (absent if its link died).
  bool shipped = false;
  std::uint64_t shipped_frames_emitted = 0;
  /// Every shipped replica.* fault counter equals the replayed value.
  bool counters_match = false;
};

/// One topology edge's traffic ledger.  parent == kCoordinatorNode for
/// root links.
struct LinkAttribution {
  std::size_t parent = 0;
  std::size_t child = 0;
  std::uint64_t frames_up = 0;  ///< gradient frames that crossed this edge
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;  ///< estimate broadcasts (exchanges x wire(d))
};

/// The reconciled report.  ok() is the acceptance gate: per-agent and
/// per-link totals equal the TransportStats exactly, the replayed fates
/// equal the session's fault counters, every shipped island agrees with
/// its replay, and with no link death every agent delivered exactly the
/// frames its schedule predicts.
struct AttributionReport {
  std::vector<AgentAttribution> agents;  ///< ascending by agent id
  std::vector<LinkAttribution> links;    ///< ascending by child id
  std::uint64_t exchanges = 0;
  /// The reduction tree's modeled point-to-point message count: one
  /// estimate delivery per agent per exchange plus one delivery per
  /// gradient-frame hop.
  std::uint64_t network_messages = 0;
  TransportStats stats;

  /// Per-agent and per-link frame totals == stats, and every frame's
  /// hops equals its emitter's topology depth.
  bool frames_reconcile = false;
  bool bytes_reconcile = false;   ///< per-agent + per-link byte totals == stats
  bool fates_reconcile = false;   ///< replayed fate totals == ScenarioResult counters
  bool agents_reconcile = false;  ///< every shipped island matches its replay

  /// Every flag above, and each agent's delivered frames equal to the
  /// schedule's prediction while no link died (a dead link loses
  /// predicted frames legitimately).
  bool ok() const {
    if (!(frames_reconcile && bytes_reconcile && fates_reconcile && agents_reconcile)) {
      return false;
    }
    if (stats.agent_deaths != 0) return true;
    for (const AgentAttribution& a : agents) {
      if (a.expected_frames != a.frames_delivered) return false;
    }
    return true;
  }

  /// Human-readable tables (fixed-width, deterministic).
  std::string to_text() const;
  /// Deterministic JSON document (util::json_parse-able).
  std::string to_json() const;
};

/// Accumulates coordinator-side observations round by round, then
/// reconciles them in build().  Feed every exchange's canonical frame
/// vector, every live agent's replayed fate, and every superseded arrival
/// — exactly what the session loop (session.h) already computes.
class AttributionBuilder {
 public:
  AttributionBuilder(Topology topology, std::size_t n, std::size_t estimate_dim);

  /// Books one exchange's delivered frames (post-canonicalization).
  void on_exchange(const std::vector<util::Frame>& frames);
  /// Books agent @p agent's replayed fate in round @p round (live
  /// members only: a departed agent has no fate that round).
  void on_fate(std::size_t agent, std::size_t round, const chaos::RoundFate& fate);
  /// Books one superseded arrival from @p agent.
  void on_superseded(std::uint32_t agent);

  AttributionReport build(const chaos::ScenarioResult& result, const TransportStats& stats,
                          const std::vector<telemetry::AgentSnapshot>& shipped) const;

 private:
  Topology topology_;
  std::size_t n_;
  std::size_t estimate_dim_;
  std::uint64_t exchanges_ = 0;
  std::uint64_t hops_total_ = 0;
  bool full_paths_ = true;  ///< every booked frame's hops == depth_of(its agent)
  std::vector<AgentAttribution> agents_;
  std::vector<LinkAttribution> links_;  ///< links_[child] is child's parent edge
  /// Due rounds of delayed replies, per agent — a delayed reply counts
  /// as expected only when its due round was actually exchanged.
  std::map<std::size_t, std::vector<std::uint64_t>> delayed_due_;
};

}  // namespace redopt::transport

// Per-agent emission engine for elastic (churn + streaming) scenarios.
//
// ElasticReplica is transport::AgentReplica's elastic sibling: the agent
// program both transport backends run for scenarios carrying membership
// or stream events.  Per round it (1) folds the round's stream arrivals
// into its private copy of the world's incremental costs, (2) flushes
// channel-delayed frames (in-flight data outlives a departure), and
// (3) emits the round's reply only while it is a live member — under the
// same chaos::round_fate() and per-(agent, round) chaos::attack_rng() as
// the fixed-membership replica, so a churn-free elastic scenario and its
// plain twin behave identically.
//
// Why a private world copy: streaming costs MUTATE as rows arrive.  The
// inproc backend runs n replicas in one process and the socket backend
// runs fork copies, so each replica clones every agent's streaming cost
// (the clone carries the stream rng) and absorbs the full arrival
// schedule locally.  Byzantine omniscience then recomputes honest
// replies from post-arrival state bit-identically in every process, the
// same trick AgentReplica plays for static instances.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "attacks/attack.h"
#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "core/problem.h"
#include "data/streaming.h"
#include "linalg/vector.h"
#include "telemetry/ship.h"
#include "util/frame.h"

namespace redopt::elastic {

class ElasticReplica {
 public:
  /// @p scenario must outlive the replica; @p built is copied from (its
  /// streaming costs are cloned, its shared static costs aliased), so it
  /// only needs to live through construction.
  ElasticReplica(const chaos::Scenario& scenario, const chaos::MaterializedScenario& built,
                 std::size_t agent);

  /// The frames this agent puts on the wire in @p round.  Must be called
  /// once per round, rounds ascending from 0 (stream arrivals fold in
  /// cursor-order).
  std::vector<util::Frame> on_round(std::size_t round, const linalg::Vector& estimate);

  std::size_t agent() const { return agent_; }

  /// The replica's private telemetry island: the replica.* counters of
  /// the fixed-membership engine plus elastic.* membership/stream
  /// counters, and an elastic.round span per call.
  const telemetry::AgentTelemetry& telemetry() const { return *telemetry_; }

 private:
  linalg::Vector honest_payload(std::size_t who, std::size_t round) const;

  const chaos::Scenario& scenario_;
  std::size_t agent_;
  std::vector<core::CostPtr> costs_;  ///< private world view (clones for streams)
  std::vector<std::shared_ptr<data::StreamingLeastSquaresCost>> streams_;
  std::size_t max_staleness_ = 0;
  std::unique_ptr<attacks::Attack> attack_;
  std::deque<linalg::Vector> history_;  ///< history_[s] is the estimate of round - s
  std::map<std::size_t, std::vector<util::Frame>> delayed_;
  std::size_t stream_cursor_ = 0;  ///< next unabsorbed scenario stream event
  bool prev_member_ = false;       ///< membership of the previous round
  bool has_prev_ = false;

  std::unique_ptr<telemetry::AgentTelemetry> telemetry_;
  telemetry::Counter m_rounds_;
  telemetry::Counter m_frames_emitted_;
  telemetry::Counter m_member_rounds_;
  telemetry::Counter m_absent_rounds_;
  telemetry::Counter m_joins_;
  telemetry::Counter m_leaves_;
  telemetry::Counter m_stream_rows_;
  telemetry::Counter m_byzantine_;
  telemetry::Counter m_crashed_;
  telemetry::Counter m_stale_;
  telemetry::Counter m_dropped_;
  telemetry::Counter m_delayed_;
  telemetry::Counter m_duplicated_;
  telemetry::Histogram m_gradient_norm_;
};

}  // namespace redopt::elastic

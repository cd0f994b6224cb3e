// Deterministic per-agent emission engine for chaos scenarios.
//
// An AgentReplica is the one "agent program" every session runs, fixed
// membership or churning: given the round's broadcast estimate it
// computes the frames this agent puts on the wire.  Per round it
// (1) folds the round's stream arrivals into its private clones of the
// streaming costs, (2) flushes channel-delayed frames (in-flight data
// outlives a departure), and (3) emits the round's reply only while it is
// a live member, under its own chaos::round_fate() (crash windows,
// Byzantine attacks, straggler staleness, and the channel's drop /
// duplicate / delay).  Its attack draws from chaos::attack_rng(), the
// same per-(agent, round) fork the round kernel uses.  All state is
// per-agent: estimate history, the delayed-frame buffer and the cost
// clones.  The inproc backend runs n replicas in one process; the socket
// backend runs each replica inside its own forked agent process — and
// because nothing here reads shared mutable state or unshared
// randomness, both executions emit bit-identical frames.
//
// Byzantine omniscience survives the process split the same way: an
// attacking replica *recomputes* the live honest agents' gradients
// locally from its (fork-copied) problem instance instead of observing
// them over the network — deterministic, and exactly the adversary model
// the in-process round kernel implements.  Streaming costs MUTATE as rows
// arrive, so every replica clones every agent's streaming cost (the
// clone carries the stream rng) and absorbs the full arrival schedule:
// the recomputation then sees the same post-arrival world in every
// process.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "attacks/attack.h"
#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "core/cost_function.h"
#include "core/problem.h"
#include "data/streaming.h"
#include "linalg/vector.h"
#include "telemetry/ship.h"
#include "util/frame.h"

namespace redopt::transport {

class AgentReplica {
 public:
  /// @p scenario and @p built must outlive the replica (the session owns
  /// both; fork() gives agent processes their own copies).  Streaming
  /// costs are cloned here; static costs are shared.
  AgentReplica(const chaos::Scenario& scenario, const chaos::MaterializedScenario& built,
               std::size_t agent);

  /// The frames this agent sends during round @p round: previously
  /// delayed frames falling due first, then — while the agent is a live
  /// member — the round's own emission after fault-spec and channel
  /// treatment (possibly nothing, possibly an extra duplicate).  Must be
  /// called once per round, rounds ascending from 0 (stream arrivals fold
  /// in cursor order).
  std::vector<util::Frame> on_round(std::size_t round, const linalg::Vector& estimate);

  std::size_t agent() const { return agent_; }

  /// This replica's private telemetry island (see telemetry/ship.h):
  /// replica.* counters mirroring chaos::round_fate() of every member
  /// round exactly (the coordinator replays the same fates for
  /// accounting), a gradient-norm histogram, and a replica.round span per
  /// on_round call.  Elastic scenarios add elastic.* membership and
  /// stream counters.  Recorded unconditionally — the global telemetry
  /// switch is fork-inherited state, so gating on it would let the
  /// backends diverge.
  const telemetry::AgentTelemetry& telemetry() const { return *telemetry_; }

 private:
  const core::CostFunction& cost(std::size_t who) const;

  /// Gradient agent @p who would submit this round (staleness-adjusted);
  /// used for the own payload and for Byzantine recomputation of the
  /// honest agents' replies.
  linalg::Vector honest_payload(std::size_t who, std::size_t round) const;

  const chaos::Scenario& scenario_;
  const core::MultiAgentProblem& problem_;
  std::size_t agent_;
  /// Private clones of every agent's streaming cost; empty unless the
  /// problem streams.
  std::vector<std::shared_ptr<data::StreamingLeastSquaresCost>> streams_;
  std::size_t stream_cursor_ = 0;  ///< next unabsorbed scenario stream event
  bool was_member_ = true;         ///< membership of the previous round
  std::size_t max_staleness_ = 0;  ///< scenario-wide, so history depth matches the kernel
  std::unique_ptr<attacks::Attack> attack_;
  std::deque<linalg::Vector> history_;  ///< history_[s] is the estimate of round - s
  std::map<std::size_t, std::vector<util::Frame>> delayed_;

  // Telemetry island + pre-registered handles (unique_ptr keeps the
  // replica movable; the registry itself is pinned).  The elastic.*
  // handles stay unregistered, and so inert, on fixed-membership
  // scenarios.
  std::unique_ptr<telemetry::AgentTelemetry> telemetry_;
  telemetry::Counter m_rounds_;
  telemetry::Counter m_frames_emitted_;
  telemetry::Counter m_byzantine_;
  telemetry::Counter m_crashed_;
  telemetry::Counter m_stale_;
  telemetry::Counter m_dropped_;
  telemetry::Counter m_delayed_;
  telemetry::Counter m_duplicated_;
  telemetry::Histogram m_gradient_norm_;
  telemetry::Counter m_absent_rounds_;
  telemetry::Counter m_joins_;
  telemetry::Counter m_leaves_;
  telemetry::Counter m_stream_rows_;
};

}  // namespace redopt::transport

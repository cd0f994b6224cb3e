// One scenario round, shared by every driver of a chaos scenario.
//
// The fault schedule is a pure function of (seed, agent, round):
// round_fate() says whether an agent emits, attacks or straggles and what
// the channel does to its reply, and attack_rng() is the only randomness
// an attack may draw in that round.  No stream crosses a round boundary,
// so every driver sees one schedule: the executor and the serving runner
// step RoundKernel in one process (serving stops after any round and
// resumes from the serialized RoundState), the transport replicas draw
// their own fates agent-side, and the coordinators replay them for
// accounting.
//
// RoundKernel::step() is the fixed-membership round itself: emission ->
// attack -> channel -> freshest-reply dedup -> filter -> projected step.
// chaos::run_scenario runs it to the end; serving keeps one kernel per job
// and runs it a slice at a time.  Every agent evaluates through its own
// cost (CostFunction::gradient_into), and the kernel owns every round
// buffer, so a steady-state step allocates nothing with CGE, CWTM or Krum.
// It records no telemetry: each driver wraps it in its own spans and
// books its own counters from fates().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.h"
#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "filters/gradient_filter.h"
#include "filters/norm_cache.h"
#include "linalg/vector.h"
#include "rng/rng.h"

namespace redopt::chaos {

/// What the channel does to one emitted reply.
struct ChannelDecision {
  bool drop = false;       ///< reply never arrives
  bool duplicate = false;  ///< one extra on-time copy arrives
  std::size_t delay = 0;   ///< extra rounds before the original arrives
};

/// The channel decision for agent @p agent's reply emitted in round
/// @p round, drawn from that reply's own fork of @p seed
/// ("transport-channel-a<agent>-r<round>").  A zeroed ChannelFaults
/// consumes no randomness and always returns the identity decision.
ChannelDecision channel_decision(const ChannelFaults& faults, std::uint64_t seed,
                                 std::size_t agent, std::size_t round);

/// What the fault schedule does to one agent in one round.
struct RoundFate {
  bool emits = true;       ///< false during a crash window
  bool byzantine = false;  ///< reply is attack-crafted
  bool stale = false;      ///< straggler reply computed on an old estimate
  bool dropped = false;
  bool duplicated = false;
  std::size_t delay = 0;  ///< rounds the original reply is late
};

/// Agent @p agent's fate in round @p round: its fault window, then
/// channel_decision() for its reply.  A straggler only counts as stale
/// from round 1 on, once an older estimate exists.
RoundFate round_fate(const Scenario& scenario, std::size_t agent, std::size_t round);

/// The randomness agent @p agent's attack draws in round @p round: the
/// "attack-<agent>-<round>" fork of @p seed.
rng::Rng attack_rng(std::uint64_t seed, std::size_t agent, std::size_t round);

/// Round-local gradient filters cached by (reply count, fault budget).
/// A round with fewer replies than its filter needs falls back to the
/// largest budget the filter accepts, and to the plain average when even
/// f = 0 fails (krum with too few replies), so every round aggregates.
class FilterCache {
 public:
  /// @p factory overrides registry construction (a test hook).
  explicit FilterCache(std::string name, FilterFactory factory = {});

  /// The filter for @p replies inputs, built for the largest budget
  /// f' <= min(f_cap, replies - 1) it accepts; @p f_used receives f'.
  const filters::FilterPtr& get(std::size_t replies, std::size_t f_cap, std::size_t* f_used);

 private:
  std::string name_;
  FilterFactory factory_;
  std::map<std::pair<std::size_t, std::size_t>, filters::FilterPtr> cache_;
};

/// One reply the channel holds past its emission round.
struct PendingReply {
  std::size_t agent = 0;
  std::size_t emitted = 0;     ///< round the payload was computed in
  std::size_t deliver_at = 0;  ///< round it reaches the coordinator
  linalg::Vector payload;
};

/// Fault and channel counters accumulated over the rounds run so far.
struct RoundCounters {
  std::uint64_t byzantine_replies = 0;
  std::uint64_t crashed_absences = 0;
  std::uint64_t stale_replies = 0;
  std::uint64_t dropped_replies = 0;
  std::uint64_t delayed_replies = 0;
  std::uint64_t duplicated_replies = 0;
  std::uint64_t superseded_replies = 0;  ///< arrivals replaced by a fresher one
  std::uint64_t filter_rebuilds = 0;     ///< rounds aggregated with a reduced (n, f)

  friend bool operator==(const RoundCounters& a, const RoundCounters& b) = default;
};

/// Everything that carries from one round to the next.
struct RoundState {
  std::size_t next_round = 0;  ///< rounds completed so far
  linalg::Vector x;            ///< current iterate x^{next_round}

  /// Straggler window, newest first: history[s] is x^{next_round - s},
  /// at most Scenario::max_staleness() + 1 entries.
  std::deque<linalg::Vector> history;

  /// Channel-delayed replies not yet delivered, by delivery round, then
  /// emission order.
  std::vector<PendingReply> pending;

  RoundCounters counters;

  double initial_distance = 0.0;  ///< ||x^0 - reference||
  double max_distance = 0.0;      ///< max over completed rounds
  bool nonfinite = false;         ///< a NaN/Inf coordinate ended the run
  std::size_t nonfinite_round = 0;

  /// True once round @p rounds is reached or a non-finite iterate ended
  /// the run.
  bool finished(std::size_t rounds) const { return nonfinite || next_round >= rounds; }
};

/// Round 0: x0 from the scenario seed's "x0" fork, projected into the box.
RoundState initial_round_state(const Scenario& scenario, const MaterializedScenario& built);

/// The executor's observables of @p state.
ScenarioResult scenario_result(const RoundState& state, const MaterializedScenario& built);

/// Execution knobs of a kernel that are not part of the scenario.
struct KernelOptions {
  FilterFactory filter_factory;  ///< see FilterCache
};

/// The fixed-membership scenario round.  Honest gradients fan out over
/// runtime::parallel_for with per-agent slot writes, so a step is
/// bit-identical at every thread count.
class RoundKernel {
 public:
  /// @p scenario and @p built must outlive the kernel.
  RoundKernel(const Scenario& scenario, const MaterializedScenario& built,
              KernelOptions options = {});

  /// Runs round state.next_round.  Requires !state.finished(rounds).
  /// Carries nothing of its own from one step to the next but warm
  /// buffers and filters, so consecutive steps may come from different
  /// RoundStates of the same scenario (a reloaded checkpoint).
  void step(RoundState& state);

  /// The fates of the round the last step() ran, one per agent.
  const std::vector<RoundFate>& fates() const { return fates_; }

  const Scenario& scenario() const { return scenario_; }

 private:
  /// One reply reaching the coordinator this round; the payload lives in
  /// payloads_ (on time) or due_ (delivered late).
  struct Arrival {
    std::size_t agent = 0;
    std::size_t emitted = 0;
    const linalg::Vector* payload = nullptr;
  };

  const Scenario& scenario_;
  const MaterializedScenario& built_;
  /// Set for agents Byzantine at any round: the adversary never observes them.
  std::vector<std::unique_ptr<attacks::Attack>> attack_of_;
  FilterCache filters_;
  dgd::HarmonicSchedule schedule_;
  dgd::BoxProjection projection_;
  std::size_t max_staleness_;

  // Round buffers, kept across steps.
  std::vector<RoundFate> fates_;
  std::vector<linalg::Vector> payloads_;  ///< agent i's reply this round
  std::vector<linalg::Vector> scratch_;   ///< agent i's gradient_into scratch
  linalg::Vector true_gradient_;          ///< a Byzantine agent's honest reply
  /// The adversary's view: the observed agents' payloads, moved in for
  /// the attacks and moved back after.
  std::vector<linalg::Vector> observed_;
  std::vector<PendingReply> due_;  ///< delayed replies delivered this round
  /// Buffers of delivered replies, reused by later delayed replies.  The
  /// pool grows only when more replies are in flight than ever before, so
  /// it follows the channel's load, not max_delay.
  std::vector<linalg::Vector> spare_payloads_;
  std::vector<Arrival> arrivals_;
  std::vector<std::size_t> freshest_;
  std::vector<const linalg::Vector*> received_;
  linalg::Vector direction_;
  filters::FilterScratch filter_scratch_;
};

}  // namespace redopt::chaos

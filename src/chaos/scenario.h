// Declarative chaos scenarios: seedable, composable fault schedules.
//
// A Scenario is a complete, serializable description of one adversarial
// execution: the problem instance family, the gradient filter, and a set
// of per-agent fault windows (Byzantine behaviour, crash/recover,
// straggling) layered with channel faults (drop / duplicate / delay).
// Everything downstream of the scenario — instance data, initial
// estimate, attack randomness, channel draws — derives deterministically
// from its seed, so a scenario IS its execution: serialize it to JSON,
// replay it anywhere (tools/chaos-replay), get the same trajectory bit
// for bit.
//
// guaranteed() carves out the regime where the paper's theorems promise
// exact convergence; chaos::Properties asserts convergence there and only
// graceful degradation (bounded, finite) everywhere else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace redopt::chaos {

/// One agent's fault behaviour over a window of rounds.  At most one spec
/// per agent: an agent is Byzantine, crashed, or straggling — composing
/// those on a single agent is modelled by the Byzantine spec alone, since
/// a Byzantine agent subsumes every other misbehaviour.
struct FaultSpec {
  enum class Kind {
    kByzantine,  ///< crafts attack replies during the window, honest outside
    kCrash,      ///< silent during the window (no reply), honest outside
    kStraggler,  ///< honest but replies with the gradient at x^{t - staleness}
  };

  Kind kind = Kind::kByzantine;
  std::size_t agent = 0;
  std::size_t from = 0;   ///< first faulty round
  std::size_t until = 0;  ///< first healthy round again; 0 = faulty to the end
  std::string attack = "gradient_reverse";  ///< Byzantine only: attack registry name
  double attack_param = 1.0;  ///< the attack's scalar knob (scale / z / c / aggression)
  std::size_t staleness = 1;  ///< straggler only: fixed lag s >= 1

  /// Whether round @p t lies in [from, until) (until == 0: open-ended).
  bool in_window(std::size_t t) const { return t >= from && (until == 0 || t < until); }
};

/// Channel fault model applied to every reply, mirroring net::LinkFaults.
struct ChannelFaults {
  double drop_probability = 0.0;       ///< in [0, 1]
  double duplicate_probability = 0.0;  ///< in [0, 1]; extra on-time copy
  std::size_t max_delay = 0;           ///< extra rounds, uniform in [0, max_delay]
};

/// One elastic-membership transition.  An agent whose FIRST event is a
/// kJoin starts the run absent; one whose first event is a kLeave starts
/// present.  Events for one agent must alternate kinds on strictly
/// increasing rounds, so membership at round t is the initial state
/// folded through every event with round <= t.
struct MembershipEvent {
  enum class Kind {
    kJoin,   ///< agent (re)enters the live set at the start of this round
    kLeave,  ///< agent departs at the start of this round
  };

  Kind kind = Kind::kLeave;
  std::size_t agent = 0;
  std::size_t round = 1;  ///< in [1, rounds); round 0 membership is implicit
};

/// One streaming data arrival: `rows` fresh observations land at agent
/// `agent` at the start of round `round` and fold into its incremental
/// cost (rank-1 sufficient-statistic updates).  Only meaningful for the
/// "streaming_regression" problem family.
struct StreamEvent {
  std::size_t agent = 0;
  std::size_t round = 1;  ///< in [1, rounds)
  std::size_t rows = 1;   ///< observations arriving this round, >= 1
};

/// A fully specified chaos execution.
struct Scenario {
  std::string name;        ///< free-form label (shows up in failure reports)
  std::uint64_t seed = 1;  ///< root of every random stream in the execution
  std::string problem = "mean";  ///< "mean" | "regression" | "block_regression" | "streaming_regression"
  std::string filter = "cge";    ///< gradient-filter registry name
  std::size_t n = 6;
  std::size_t f = 1;
  std::size_t d = 2;
  std::size_t rounds = 60;
  double noise_sigma = 0.0;  ///< observation noise of the generated instance
  std::vector<FaultSpec> faults;
  ChannelFaults channel;
  std::vector<MembershipEvent> membership;  ///< sorted by (round, agent)
  std::vector<StreamEvent> stream;          ///< sorted by (round, agent)

  /// Structural validation: n > 2f, f >= 1, agents in range and distinct
  /// across specs, windows well-formed, attack names known, probabilities
  /// in [0, 1], regression needs n - 2f >= d; membership/stream events
  /// canonically sorted, in [1, rounds), alternating kinds per agent, at
  /// least one live member every round; stream events only on the
  /// "streaming_regression" family.  Throws PreconditionError.
  void validate() const;

  /// True when the scenario carries membership or stream events; elastic
  /// scenarios run through elastic::run_elastic / run_elastic_transport,
  /// not the fixed-membership executors.
  bool elastic() const { return !membership.empty() || !stream.empty(); }

  /// Membership at round 0, before any event fires.
  bool initially_member(std::size_t agent) const;

  /// Membership of `agent` during round `round` (events at round t fire
  /// before round t's exchange).
  bool member_at(std::size_t agent, std::size_t round) const;

  /// Live agents during `round`, ascending; and their count.
  std::vector<std::size_t> members_at(std::size_t round) const;
  std::size_t member_count_at(std::size_t round) const;

  /// The fault budget the coordinator can actually defend at `round`:
  /// the largest f' <= f with member_count_at(round) > 2 f'.  Shrinking
  /// membership forces f down (the filter is rebuilt with the derived
  /// budget); full membership keeps the declared f.
  std::size_t derived_f_at(std::size_t round) const;

  /// Whether round `round` retains the guaranteed-regime redundancy
  /// headroom: the derived budget still equals f and the live member
  /// count exceeds 3f plus the crash-spec agents alive that round.
  bool redundant_at(std::size_t round) const;

  /// redundant_at over every round of the schedule.
  bool redundant_throughout() const;

  /// The fault spec naming @p agent, or nullptr for a healthy agent.
  const FaultSpec* fault_of(std::size_t agent) const;

  /// The largest straggler staleness (0 without stragglers): estimate
  /// histories keep this many past iterates.
  std::size_t max_staleness() const;

  /// Agents with a Byzantine / crash spec, ascending.
  std::vector<std::size_t> byzantine_agents() const;
  std::vector<std::size_t> crash_agents() const;

  /// Distinct agents that are Byzantine or crash at some point (stragglers
  /// stay honest and do not count).
  std::size_t faulty_agent_count() const;

  /// Whether the execution stays within the paper's fault budget f.
  bool within_budget() const { return faulty_agent_count() <= f; }

  /// True when this scenario sits in the regime where exact convergence to
  /// the honest argmin is guaranteed (and asserted by Properties):
  /// noiseless mean / block-regression instances, a paper filter (cge /
  /// cwtm), faults within budget, enough redundancy headroom for the
  /// crash absences (n > 3f + #crash agents), and only mild asynchrony
  /// (bounded delay / staleness, no drops).  Elastic scenarios must also
  /// keep redundant_at() true through every round of churn — a dip below
  /// the 2f-redundancy headroom demotes the run to graceful degradation.
  /// Everything outside this regime is held to graceful degradation only.
  bool guaranteed() const;

  /// Canonical JSON form (deterministic member order; round-trips through
  /// scenario_from_json bit-exactly).
  std::string to_json() const;
};

/// Parses a scenario serialized by to_json().  Unknown members are
/// rejected.  Throws PreconditionError on malformed input.
Scenario scenario_from_json(const std::string& text);

/// Attack names a Byzantine FaultSpec may use (the registry minus the
/// reply-schedule attacks dropout/switch, whose behaviour FaultSpec
/// windows express directly).
const std::vector<std::string>& scenario_attack_names();

}  // namespace redopt::chaos

// Membership schedules: who is live when, and with what budget.
//
// A chaos::Scenario with membership events describes agents joining and
// leaving mid-run.  chaos::Scenario::member_at answers point queries by
// folding the event list; MembershipSchedule precomputes the fold into
// membership *epochs* (the piecewise-constant segments between events) so
// the per-round coordinator loop gets O(log epochs) lookups, a stable
// members vector to iterate, and the derived fault budget f_t — the
// largest f' <= f the live member count can still defend (m_t > 2 f').
// When churn shrinks m_t past the declared budget the coordinator
// rebuilds its gradient filter with f_t, the same degrade-don't-die
// policy as the round kernel's (n, f) fallback chain.
//
// A fixed-membership scenario is the one-epoch schedule: every agent
// live every round, f_t = f, no joins or leaves.  That is what lets one
// coordinator loop (transport/session.h) run both kinds of scenario.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/scenario.h"

namespace redopt::chaos {

class MembershipSchedule {
 public:
  /// Precomputes the epochs of @p scenario (validated by the caller).
  explicit MembershipSchedule(const Scenario& scenario);

  std::size_t rounds() const { return rounds_; }

  bool member(std::size_t agent, std::size_t round) const;

  /// Live agents during @p round, ascending (stable reference into the
  /// precomputed epoch).
  const std::vector<std::size_t>& members(std::size_t round) const;
  std::size_t count(std::size_t round) const;

  /// The defensible fault budget at @p round (see header comment).
  std::size_t derived_f(std::size_t round) const;

  /// Scenario::redundant_at, precomputed.
  bool redundant(std::size_t round) const;

  /// Agents whose membership flips at exactly @p round (relative to the
  /// previous round; both are 0 for round 0 and for event-free rounds).
  std::size_t joins_at(std::size_t round) const;
  std::size_t leaves_at(std::size_t round) const;

 private:
  struct Epoch {
    std::size_t start = 0;                ///< first round of the epoch
    std::vector<std::size_t> members;     ///< live agents, ascending
    std::vector<char> is_member;          ///< indexed by agent
    std::size_t derived_f = 0;
    bool redundant = false;
    std::size_t joins = 0;   ///< flips into the live set at `start`
    std::size_t leaves = 0;  ///< flips out of the live set at `start`
  };

  const Epoch& epoch_at(std::size_t round) const;

  std::size_t rounds_ = 0;
  std::vector<Epoch> epochs_;  ///< ascending by start; epochs_[0].start == 0
};

}  // namespace redopt::chaos

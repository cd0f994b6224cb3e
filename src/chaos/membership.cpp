#include "chaos/membership.h"

#include <utility>

#include "util/error.h"

namespace redopt::chaos {

MembershipSchedule::MembershipSchedule(const Scenario& s) : rounds_(s.rounds) {
  std::vector<char> is_member(s.n, 0);
  for (std::size_t i = 0; i < s.n; ++i) is_member[i] = s.initially_member(i) ? 1 : 0;

  auto push_epoch = [&](std::size_t start, std::size_t joins, std::size_t leaves) {
    Epoch e;
    e.start = start;
    e.is_member = is_member;
    for (std::size_t i = 0; i < s.n; ++i) {
      if (is_member[i]) e.members.push_back(i);
    }
    const std::size_t m = e.members.size();
    e.derived_f = m > 2 * s.f ? s.f : (m == 0 ? 0 : (m - 1) / 2);
    std::size_t live_crashes = 0;
    for (const FaultSpec& spec : s.faults) {
      if (spec.kind == FaultSpec::Kind::kCrash && is_member[spec.agent]) ++live_crashes;
    }
    e.redundant = e.derived_f == s.f && m > 3 * s.f + live_crashes;
    e.joins = joins;
    e.leaves = leaves;
    epochs_.push_back(std::move(e));
  };

  push_epoch(0, 0, 0);
  std::size_t k = 0;
  while (k < s.membership.size()) {
    const std::size_t round = s.membership[k].round;
    std::size_t joins = 0;
    std::size_t leaves = 0;
    while (k < s.membership.size() && s.membership[k].round == round) {
      const MembershipEvent& event = s.membership[k];
      const char next = event.kind == MembershipEvent::Kind::kJoin ? 1 : 0;
      if (next && !is_member[event.agent]) ++joins;
      if (!next && is_member[event.agent]) ++leaves;
      is_member[event.agent] = next;
      ++k;
    }
    push_epoch(round, joins, leaves);
  }
}

const MembershipSchedule::Epoch& MembershipSchedule::epoch_at(std::size_t round) const {
  // Last epoch whose start is <= round.
  std::size_t lo = 0;
  std::size_t hi = epochs_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (epochs_[mid].start <= round) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return epochs_[lo];
}

bool MembershipSchedule::member(std::size_t agent, std::size_t round) const {
  const Epoch& e = epoch_at(round);
  REDOPT_REQUIRE(agent < e.is_member.size(), "membership schedule: agent out of range");
  return e.is_member[agent] != 0;
}

const std::vector<std::size_t>& MembershipSchedule::members(std::size_t round) const {
  return epoch_at(round).members;
}

std::size_t MembershipSchedule::count(std::size_t round) const {
  return epoch_at(round).members.size();
}

std::size_t MembershipSchedule::derived_f(std::size_t round) const {
  return epoch_at(round).derived_f;
}

bool MembershipSchedule::redundant(std::size_t round) const {
  return epoch_at(round).redundant;
}

std::size_t MembershipSchedule::joins_at(std::size_t round) const {
  const Epoch& e = epoch_at(round);
  return e.start == round ? e.joins : 0;
}

std::size_t MembershipSchedule::leaves_at(std::size_t round) const {
  const Epoch& e = epoch_at(round);
  return e.start == round ? e.leaves : 0;
}

}  // namespace redopt::chaos

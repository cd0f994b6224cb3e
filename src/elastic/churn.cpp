#include "elastic/churn.h"

#include <algorithm>
#include <string>

#include "rng/rng.h"

namespace redopt::elastic {

namespace {

chaos::Scenario churn_base(const char* name, std::uint64_t seed) {
  chaos::Scenario s;
  s.name = name;
  s.seed = seed;
  s.problem = "block_regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 1;
  s.d = 2;
  s.rounds = 60;
  return s;
}

chaos::MembershipEvent event(chaos::MembershipEvent::Kind kind, std::size_t agent,
                             std::size_t round) {
  chaos::MembershipEvent e;
  e.kind = kind;
  e.agent = agent;
  e.round = round;
  return e;
}

void sort_membership(std::vector<chaos::MembershipEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const chaos::MembershipEvent& a, const chaos::MembershipEvent& b) {
              return a.round != b.round ? a.round < b.round : a.agent < b.agent;
            });
}

/// The seeded churn events of one profile over the n = 8, f = 1 base
/// shape.  Jitters come from @p rng in a fixed draw order; the windows
/// are disjoint, so the live count trajectory is profile-determined
/// (join-heavy: 5,6,7,8,7,8; leave-heavy: 8,7,6,5,4,5) and never dips
/// below the m > 3f redundancy headroom.
std::vector<chaos::MembershipEvent> churn_events(ChurnProfile profile, rng::Rng& rng) {
  using Kind = chaos::MembershipEvent::Kind;
  auto jitter = [&rng] { return static_cast<std::size_t>(rng.uniform_int(0, 3)); };
  std::vector<chaos::MembershipEvent> events;
  if (profile == ChurnProfile::kJoinHeavy) {
    // Agents 5..7 start absent and stagger in; agent 4 cycles out and back.
    events.push_back(event(Kind::kJoin, 5, 5 + jitter()));
    events.push_back(event(Kind::kJoin, 6, 11 + jitter()));
    events.push_back(event(Kind::kJoin, 7, 18 + jitter()));
    events.push_back(event(Kind::kLeave, 4, 30 + jitter()));
    events.push_back(event(Kind::kJoin, 4, 40 + jitter()));
  } else {
    // Agents 2..5 stagger out mid-run; agent 2 returns late.
    events.push_back(event(Kind::kLeave, 2, 15 + jitter()));
    events.push_back(event(Kind::kLeave, 3, 22 + jitter()));
    events.push_back(event(Kind::kLeave, 4, 29 + jitter()));
    events.push_back(event(Kind::kLeave, 5, 36 + jitter()));
    events.push_back(event(Kind::kJoin, 2, 46 + jitter()));
  }
  sort_membership(events);
  return events;
}

}  // namespace

chaos::Scenario make_churn_scenario(ChurnProfile profile, std::uint64_t seed) {
  chaos::Scenario s = churn_base(
      profile == ChurnProfile::kJoinHeavy ? "churn-join-heavy" : "churn-leave-heavy", seed);
  rng::Rng rng = rng::Rng(seed).fork("churn");
  s.membership = churn_events(profile, rng);
  s.validate();
  return s;
}

chaos::Scenario make_redundancy_dip_scenario(std::uint64_t seed) {
  using Kind = chaos::MembershipEvent::Kind;
  chaos::Scenario s = churn_base("churn-redundancy-dip", seed);
  // A mass leave at round 20 shrinks the live set to agents {0, 1} — the
  // derived budget collapses to f' = 0 — until everyone rejoins at round
  // 32 and the guaranteed-regime headroom returns for the rest of the run.
  for (std::size_t agent = 2; agent < s.n; ++agent) {
    s.membership.push_back(event(Kind::kLeave, agent, 20));
  }
  for (std::size_t agent = 2; agent < s.n; ++agent) {
    s.membership.push_back(event(Kind::kJoin, agent, 32));
  }
  sort_membership(s.membership);
  s.validate();
  return s;
}

chaos::Scenario make_streaming_churn_scenario(ChurnProfile profile, std::uint64_t seed) {
  chaos::Scenario s = churn_base(
      profile == ChurnProfile::kJoinHeavy ? "stream-churn-join-heavy" : "stream-churn-leave-heavy",
      seed);
  s.problem = "streaming_regression";
  rng::Rng rng = rng::Rng(seed).fork("churn");
  s.membership = churn_events(profile, rng);
  // Fresh observations land at every agent every 6 rounds, phases spread
  // by agent id, 1..3 rows per arrival.  Arrivals fire whether or not the
  // agent is currently a member — data keeps accumulating while an agent
  // sits out, exactly the rejoin-with-more-data case.
  std::vector<chaos::StreamEvent> stream;
  for (std::size_t agent = 0; agent < s.n; ++agent) {
    for (std::size_t round = 3 + (agent % 3); round + 1 < s.rounds; round += 6) {
      chaos::StreamEvent e;
      e.agent = agent;
      e.round = round;
      e.rows = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
      stream.push_back(e);
    }
  }
  std::sort(stream.begin(), stream.end(),
            [](const chaos::StreamEvent& a, const chaos::StreamEvent& b) {
              return a.round != b.round ? a.round < b.round : a.agent < b.agent;
            });
  s.stream = std::move(stream);
  s.validate();
  return s;
}

}  // namespace redopt::elastic

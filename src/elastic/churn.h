// Seeded churn scenarios: the membership schedules the tests, goldens
// and benches share.  Join-heavy / leave-heavy profiles stay inside the
// guaranteed regime, a redundancy-dip schedule deliberately breaks it
// mid-run, and a streaming variant layers data arrivals on top of the
// churn.  chaos::MembershipSchedule (chaos/membership.h) folds any of
// them into per-round epochs for the coordinator.
#pragma once

#include <cstdint>

#include "chaos/scenario.h"

namespace redopt::elastic {

/// The two churn shapes the integration tests and goldens pin.
enum class ChurnProfile {
  kJoinHeavy,   ///< agents start absent and stagger in (plus one rejoin cycle)
  kLeaveHeavy,  ///< agents stagger out mid-run (one returns late)
};

/// A seeded churn scenario inside the guaranteed regime: n = 8, f = 1,
/// d = 2, 60 rounds of noiseless block_regression under cge, with
/// join/leave rounds jittered from fork("churn") of @p seed.  Every round
/// keeps the 2f-redundancy headroom (redundant_throughout()), so
/// chaos::check_properties asserts the Theorem-3 bound.
chaos::Scenario make_churn_scenario(ChurnProfile profile, std::uint64_t seed);

/// A churn scenario that deliberately dips BELOW the redundancy headroom:
/// a mass leave shrinks the live set to 2 agents mid-run (forcing the
/// derived budget to f' = 0), then the leavers rejoin and the run
/// recovers.  guaranteed() is false; the property checker holds it to
/// graceful degradation only.
chaos::Scenario make_redundancy_dip_scenario(std::uint64_t seed);

/// Streaming + churn: the streaming_regression family with per-agent
/// row arrivals every few rounds layered under a join-heavy or
/// leave-heavy membership schedule.  Stays in the guaranteed regime.
chaos::Scenario make_streaming_churn_scenario(ChurnProfile profile, std::uint64_t seed);

}  // namespace redopt::elastic

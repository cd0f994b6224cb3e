// Behavioral integration tests for the elastic session layer: streaming
// least-squares + membership churn + the concurrent serving path.
//
// Every guarantee here is asserted end to end over multi-round runs —
// convergence bounds under seeded churn, exact membership accounting,
// f re-derivation when the live set shrinks, degradation-then-recovery
// through a redundancy dip, and bit-identity of whole sessions across
// the in-process oracle, both transport backends, and thread counts.
// No existence checks: a counter is compared against an independent fold
// of the schedule, a manifest against another backend's bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chaos/executor.h"
#include "chaos/generator.h"
#include "chaos/membership.h"
#include "chaos/properties.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"
#include "elastic/churn.h"
#include "elastic/serving.h"
#include "elastic/session.h"
#include "filters/gradient_filter.h"
#include "filters/registry.h"
#include "linalg/vector.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "transport/session.h"
#include "util/error.h"

using namespace redopt;
using linalg::Vector;

namespace {

constexpr std::uint64_t kSeed = 11;

void reset_telemetry() {
  telemetry::registry().reset();
  telemetry::span_log().clear();
  telemetry::set_enabled(true);
}

std::string stable_manifest(const elastic::ElasticSession& session) {
  return telemetry::stable_json_projection(transport::session_manifest_json(session));
}

std::string stable_trace(const elastic::ElasticSession& session) {
  return telemetry::stable_json_projection(transport::session_trace_json(session));
}

/// Independent fold of the membership schedule the counters must match.
struct ScheduleFold {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t member_agent_rounds = 0;
  std::uint64_t absent_agent_rounds = 0;
  std::uint64_t f_rederivation_rounds = 0;
  std::uint64_t rounds_below_redundancy = 0;
};

ScheduleFold fold_schedule(const chaos::Scenario& s) {
  ScheduleFold fold;
  for (std::size_t t = 0; t < s.rounds; ++t) {
    for (std::size_t agent = 0; agent < s.n; ++agent) {
      const bool now = s.member_at(agent, t);
      if (now) {
        ++fold.member_agent_rounds;
      } else {
        ++fold.absent_agent_rounds;
      }
      if (t > 0) {
        const bool before = s.member_at(agent, t - 1);
        if (now && !before) ++fold.joins;
        if (!now && before) ++fold.leaves;
      }
    }
    if (s.derived_f_at(t) < s.f) ++fold.f_rederivation_rounds;
    if (!s.redundant_at(t)) ++fold.rounds_below_redundancy;
  }
  return fold;
}

std::uint64_t total_stream_rows(const chaos::Scenario& s) {
  std::uint64_t rows = 0;
  for (const chaos::StreamEvent& e : s.stream) rows += e.rows;
  return rows;
}

chaos::MembershipEvent membership_event(chaos::MembershipEvent::Kind kind, std::size_t agent,
                                        std::size_t round) {
  chaos::MembershipEvent e;
  e.kind = kind;
  e.agent = agent;
  e.round = round;
  return e;
}

/// A CGE whose output is negated: every step ascends.  Injected through
/// ElasticOptions::filter_factory to prove the churn property checker
/// actually fires on a behavioral regression, not just on crashes.
class SignFlippedFilter final : public filters::GradientFilter {
 public:
  explicit SignFlippedFilter(filters::FilterPtr inner) : inner_(std::move(inner)) {}

  Vector apply(const std::vector<Vector>& gradients) const override {
    return -inner_->apply(gradients);
  }
  std::string name() const override { return "sign_flipped"; }
  std::size_t expected_inputs() const override { return inner_->expected_inputs(); }

 private:
  filters::FilterPtr inner_;
};

elastic::ElasticOptions sign_flipped_options() {
  elastic::ElasticOptions options;
  options.filter_factory = [](const std::string& name, std::size_t n,
                              std::size_t f) -> filters::FilterPtr {
    filters::FilterParams fp;
    fp.n = n;
    fp.f = f;
    return std::make_shared<SignFlippedFilter>(filters::FilterPtr(filters::make_filter(name, fp)));
  };
  return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Membership schedules and scenario plumbing.
// ---------------------------------------------------------------------------

TEST(ElasticMembership, ScheduleMatchesScenarioPointQueriesEverywhere) {
  for (const chaos::Scenario& s :
       {elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed),
        elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed),
        elastic::make_redundancy_dip_scenario(kSeed)}) {
    const chaos::MembershipSchedule schedule(s);
    ASSERT_EQ(schedule.rounds(), s.rounds);
    for (std::size_t t = 0; t < s.rounds; ++t) {
      ASSERT_EQ(schedule.members(t), s.members_at(t)) << s.name << " round " << t;
      ASSERT_EQ(schedule.count(t), s.member_count_at(t)) << s.name << " round " << t;
      ASSERT_EQ(schedule.derived_f(t), s.derived_f_at(t)) << s.name << " round " << t;
      ASSERT_EQ(schedule.redundant(t), s.redundant_at(t)) << s.name << " round " << t;
      for (std::size_t agent = 0; agent < s.n; ++agent) {
        ASSERT_EQ(schedule.member(agent, t), s.member_at(agent, t))
            << s.name << " agent " << agent << " round " << t;
      }
    }
    // joins_at/leaves_at summed over all rounds reproduce the flip fold.
    const ScheduleFold fold = fold_schedule(s);
    std::uint64_t joins = 0;
    std::uint64_t leaves = 0;
    for (std::size_t t = 0; t < s.rounds; ++t) {
      joins += schedule.joins_at(t);
      leaves += schedule.leaves_at(t);
    }
    EXPECT_EQ(joins, fold.joins) << s.name;
    EXPECT_EQ(leaves, fold.leaves) << s.name;
  }
}

TEST(ElasticScenarioIo, ChurnAndStreamEventsRoundTripByteExactly) {
  for (const chaos::Scenario& s :
       {elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed),
        elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed),
        elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed),
        elastic::make_redundancy_dip_scenario(kSeed)}) {
    const std::string json = s.to_json();
    const chaos::Scenario parsed = chaos::scenario_from_json(json);
    EXPECT_EQ(parsed.to_json(), json) << s.name;
    EXPECT_EQ(parsed.membership.size(), s.membership.size());
    EXPECT_EQ(parsed.stream.size(), s.stream.size());
  }
  // Event-free scenarios keep the historical serialized form: no
  // membership/stream members at all, so old goldens stay byte-stable.
  chaos::Scenario plain;
  plain.name = "plain";
  const std::string json = plain.to_json();
  EXPECT_EQ(json.find("membership"), std::string::npos);
  EXPECT_EQ(json.find("stream"), std::string::npos);
}

TEST(ElasticScenarioIo, ValidationRejectsMalformedEventSchedules) {
  using Kind = chaos::MembershipEvent::Kind;
  const chaos::Scenario base = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 1);

  {  // unsorted (round, agent) order
    chaos::Scenario s = base;
    std::swap(s.membership.front(), s.membership.back());
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // non-alternating kinds for one agent
    chaos::Scenario s = base;
    s.membership = {membership_event(Kind::kLeave, 2, 10), membership_event(Kind::kLeave, 2, 20)};
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // round 0 is implicit initial membership, not an event round
    chaos::Scenario s = base;
    s.membership = {membership_event(Kind::kLeave, 2, 0)};
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // event at/after the final round
    chaos::Scenario s = base;
    s.membership = {membership_event(Kind::kLeave, 2, s.rounds)};
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // the live set must never empty out
    chaos::Scenario s = base;
    s.membership.clear();
    for (std::size_t agent = 0; agent < s.n; ++agent) {
      s.membership.push_back(membership_event(Kind::kLeave, agent, 10));
    }
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // stream events only belong to the streaming family
    chaos::Scenario s = base;
    chaos::StreamEvent e;
    e.agent = 0;
    e.round = 5;
    e.rows = 2;
    s.stream = {e};
    EXPECT_THROW(s.validate(), PreconditionError);
  }
  {  // zero-row arrivals are meaningless
    chaos::Scenario s = elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 1);
    ASSERT_FALSE(s.stream.empty());
    s.stream.front().rows = 0;
    EXPECT_THROW(s.validate(), PreconditionError);
  }
}

// ---------------------------------------------------------------------------
// Convergence and accounting under churn.
// ---------------------------------------------------------------------------

namespace {

/// Runs one churn profile end to end and asserts the full behavioral
/// contract: guaranteed-regime convergence plus counters that reproduce
/// an independent fold of the membership schedule.
void expect_churn_contract(const chaos::Scenario& scenario) {
  ASSERT_TRUE(scenario.guaranteed()) << scenario.name;
  ASSERT_TRUE(scenario.redundant_throughout()) << scenario.name;

  const elastic::ElasticSession session = elastic::run_elastic(scenario);
  const chaos::PropertyReport report = chaos::check_properties(scenario, session.result);
  EXPECT_TRUE(report.ok) << scenario.name << ": " << report.summary();
  EXPECT_LT(session.result.final_distance, session.result.initial_distance) << scenario.name;

  const ScheduleFold fold = fold_schedule(scenario);
  EXPECT_EQ(session.joins, fold.joins) << scenario.name;
  EXPECT_EQ(session.leaves, fold.leaves) << scenario.name;
  EXPECT_EQ(session.member_agent_rounds, fold.member_agent_rounds) << scenario.name;
  EXPECT_EQ(session.absent_agent_rounds, fold.absent_agent_rounds) << scenario.name;
  EXPECT_EQ(session.member_agent_rounds + session.absent_agent_rounds,
            static_cast<std::uint64_t>(scenario.n) * scenario.rounds)
      << scenario.name;
  EXPECT_EQ(session.f_rederivations, fold.f_rederivation_rounds) << scenario.name;
  EXPECT_EQ(session.rounds_below_redundancy, fold.rounds_below_redundancy) << scenario.name;
  EXPECT_EQ(session.estimates.size(), scenario.rounds + 1) << scenario.name;
}

}  // namespace

TEST(ElasticChurn, JoinHeavyScheduleConvergesAndAccountsExactly) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  // Join-heavy really is join-heavy: agents start absent, so there must
  // be absences before the first join and more joins than leaves.
  const ScheduleFold fold = fold_schedule(s);
  ASSERT_GT(fold.joins, fold.leaves);
  ASSERT_GT(fold.absent_agent_rounds, 0u);
  expect_churn_contract(s);
}

TEST(ElasticChurn, LeaveHeavyScheduleConvergesAndAccountsExactly) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);
  const ScheduleFold fold = fold_schedule(s);
  ASSERT_GT(fold.leaves, fold.joins);
  expect_churn_contract(s);
}

TEST(ElasticChurn, RedundancyDipRederivesFDegradesThenRecovers) {
  // A Byzantine agent rides among the two dip survivors: while the live
  // set is {0, 1} the derived budget is f' = 0, the filter cannot defend,
  // and the attacker visibly drags the estimate away.  (large_norm, not a
  // gradient-shaped attack: with 2f-redundancy every honest gradient is
  // exactly zero at the reference, so gradient-scaling attacks go quiet
  // once the run converges.)  After the mass rejoin the budget returns to
  // f = 1 and CGE clips the attacker out again.
  chaos::Scenario s = elastic::make_redundancy_dip_scenario(kSeed);
  chaos::FaultSpec fault;
  fault.kind = chaos::FaultSpec::Kind::kByzantine;
  fault.agent = 1;
  fault.attack = "large_norm";
  fault.attack_param = 50.0;
  s.faults = {fault};
  // The harmonic schedule's steps are tiny by round 32; give the
  // post-rejoin run enough rounds to actually claw the excursion back.
  s.rounds = 240;
  s.validate();
  ASSERT_FALSE(s.guaranteed());
  ASSERT_FALSE(s.redundant_throughout());

  const elastic::ElasticSession session = elastic::run_elastic(s);

  // The dip forces the coordinator off the declared budget: some rounds
  // run with derived f_t < f (filter rebuilt), some without redundancy.
  const ScheduleFold fold = fold_schedule(s);
  ASSERT_GT(fold.f_rederivation_rounds, 0u);
  EXPECT_EQ(session.f_rederivations, fold.f_rederivation_rounds);
  EXPECT_EQ(session.rounds_below_redundancy, fold.rounds_below_redundancy);
  EXPECT_GT(session.rounds_below_redundancy, 0u);
  EXPECT_GT(session.result.filter_rebuilds, 0u);

  // Graceful degradation through the dip, then recovery after the mass
  // rejoin: the undefended attacker drags the estimate well away from
  // where it sat entering the dip, the escape bound still holds, and the
  // final distance claws back under the worst in-dip excursion.
  const chaos::PropertyReport report = chaos::check_properties(s, session.result);
  EXPECT_TRUE(report.ok) << report.summary();
  const double before_dip = (session.estimates.at(19) - session.result.reference).norm();
  double worst_in_dip = 0.0;
  for (std::size_t t = 20; t <= 32; ++t) {
    worst_in_dip =
        std::max(worst_in_dip, (session.estimates.at(t) - session.result.reference).norm());
  }
  EXPECT_GT(worst_in_dip, 10.0 * before_dip + 0.1);
  EXPECT_LT(session.result.final_distance, 0.5 * worst_in_dip);
  EXPECT_FALSE(session.result.nonfinite);
}

TEST(ElasticChurn, ByzantineFaultsComposeWithMembershipChurn) {
  chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 3);
  chaos::FaultSpec fault;
  fault.kind = chaos::FaultSpec::Kind::kByzantine;
  fault.agent = 0;  // member for life — faulty the whole run
  fault.attack = "gradient_reverse";
  s.faults = {fault};
  s.validate();
  ASSERT_TRUE(s.guaranteed());

  const elastic::ElasticSession session = elastic::run_elastic(s);
  const chaos::PropertyReport report = chaos::check_properties(s, session.result);
  EXPECT_TRUE(report.ok) << report.summary();
  // The attacker sent a reply every round (it never leaves), and the
  // filter still converged through the churn.
  EXPECT_EQ(session.result.byzantine_replies, static_cast<std::uint64_t>(s.rounds));
  EXPECT_LT(session.result.final_distance, session.result.initial_distance);
}

TEST(ElasticChurn, BrokenFilterIsCaughtByTheChurnPropertyChecker) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);
  ASSERT_TRUE(s.guaranteed());
  const elastic::ElasticSession session = elastic::run_elastic(s, sign_flipped_options());
  const chaos::PropertyReport report = chaos::check_properties(s, session.result);
  // Ascending every round cannot meet the guaranteed-regime bound: the
  // checker must flag the run, proving the bound is a live assertion.
  EXPECT_FALSE(report.ok);
}

// ---------------------------------------------------------------------------
// Streaming least-squares under churn.
// ---------------------------------------------------------------------------

TEST(ElasticStreaming, EveryArrivalIsAbsorbedAndTheRunConverges) {
  for (const elastic::ChurnProfile profile :
       {elastic::ChurnProfile::kJoinHeavy, elastic::ChurnProfile::kLeaveHeavy}) {
    const chaos::Scenario s = elastic::make_streaming_churn_scenario(profile, kSeed);
    ASSERT_FALSE(s.stream.empty());
    ASSERT_TRUE(s.guaranteed()) << s.name;

    const elastic::ElasticSession session = elastic::run_elastic(s);
    EXPECT_EQ(session.stream_rows, total_stream_rows(s)) << s.name;
    const chaos::PropertyReport report = chaos::check_properties(s, session.result);
    EXPECT_TRUE(report.ok) << s.name << ": " << report.summary();
    EXPECT_LT(session.result.final_distance, session.result.initial_distance) << s.name;
  }
}

TEST(ElasticStreaming, RerunsAreBitIdentical) {
  const chaos::Scenario s =
      elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  const elastic::ElasticSession a = elastic::run_elastic(s);
  const elastic::ElasticSession b = elastic::run_elastic(s);
  EXPECT_TRUE(elastic::bit_identical(a, b));
}

// ---------------------------------------------------------------------------
// The serving path.
// ---------------------------------------------------------------------------

TEST(ElasticServing, EstimateServicePublishesMonotoneValidSnapshots) {
  elastic::EstimateService service;
  EXPECT_FALSE(service.query().valid);
  EXPECT_EQ(service.queries_served(), 1u);

  service.publish(0, Vector{1.0, 2.0});
  const elastic::EstimateService::Snapshot first = service.query();
  EXPECT_TRUE(first.valid);
  EXPECT_EQ(first.version, 1u);
  EXPECT_EQ(first.round, 0u);

  service.publish(1, Vector{3.0, 4.0});
  const elastic::EstimateService::Snapshot second = service.query();
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(second.round, 1u);
  EXPECT_DOUBLE_EQ(second.estimate[0], 3.0);
  EXPECT_EQ(service.queries_served(), 3u);
}

TEST(ElasticServing, QueryTraceFollowsTheStrideAndTracksConvergence) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  elastic::EstimateService service;
  elastic::ElasticOptions options;
  options.query_stride = 7;
  options.service = &service;

  const elastic::ElasticSession session = elastic::run_elastic(s, options);

  std::vector<std::size_t> expected_rounds;
  for (std::size_t t = 0; t < s.rounds; t += 7) expected_rounds.push_back(t);
  EXPECT_EQ(session.query_rounds, expected_rounds);
  ASSERT_EQ(session.query_distances.size(), expected_rounds.size());
  // The serving path observes the optimization happening: the last
  // queried snapshot is far closer to the reference than the first.
  EXPECT_LT(session.query_distances.back(), 0.5 * session.query_distances.front());

  // The external service saw every round's publish, ending on the final
  // round's estimate bit for bit.
  const elastic::EstimateService::Snapshot last = service.query();
  EXPECT_TRUE(last.valid);
  EXPECT_EQ(last.version, static_cast<std::uint64_t>(s.rounds));
  EXPECT_EQ(last.round, s.rounds - 1);
  ASSERT_EQ(last.estimate.size(), session.estimates.back().size());
  for (std::size_t k = 0; k < last.estimate.size(); ++k) {
    EXPECT_EQ(last.estimate[k], session.estimates.back()[k]);
  }

  // query_stride = 0 disables the coordinator's query trace entirely.
  elastic::ElasticOptions disabled;
  disabled.query_stride = 0;
  const elastic::ElasticSession quiet = elastic::run_elastic(s, disabled);
  EXPECT_TRUE(quiet.query_rounds.empty());
  EXPECT_TRUE(quiet.query_distances.empty());
}

TEST(ElasticServing, ConcurrentReadersNeverTearAndNeverPerturbTheRun) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);
  const elastic::ElasticSession baseline = elastic::run_elastic(s);

  elastic::EstimateService service;
  elastic::ElasticOptions options;
  options.service = &service;

  std::atomic<bool> done{false};
  std::atomic<bool> torn{false};
  std::atomic<bool> regressed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      // do-while: every reader performs at least one query even if the
      // (fast) run finishes before this thread is first scheduled.
      do {
        const elastic::EstimateService::Snapshot snap = service.query();
        if (snap.version < last_version) regressed.store(true);
        last_version = snap.version;
        if (snap.valid) {
          // A torn read would surface as a wrong-dimension or non-finite
          // vector; published snapshots are immutable copies.
          if (snap.estimate.size() != s.d) torn.store(true);
          for (std::size_t k = 0; k < snap.estimate.size(); ++k) {
            if (!std::isfinite(snap.estimate[k])) torn.store(true);
          }
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }

  const elastic::ElasticSession under_load = elastic::run_elastic(s, options);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  EXPECT_FALSE(regressed.load());
  EXPECT_GT(service.queries_served(), 0u);
  // Concurrent read load changed nothing about the run itself.
  EXPECT_TRUE(elastic::bit_identical(baseline, under_load));
  EXPECT_EQ(service.query().version, static_cast<std::uint64_t>(s.rounds));
}

// ---------------------------------------------------------------------------
// Cross-path, cross-backend, cross-thread bit-identity.
// ---------------------------------------------------------------------------

TEST(ElasticCrossBackend, ChurnFreeElasticRunMatchesTheFixedMembershipSession) {
  // The anchor: with no membership or stream events the elastic
  // coordinator must reproduce the fixed-membership transport session's
  // trajectory exactly — same filter chain, same schedule, same rng.
  chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  s.membership.clear();
  s.name = "churn-free-anchor";
  s.validate();
  ASSERT_FALSE(s.elastic());

  const elastic::ElasticSession session = elastic::run_elastic(s);
  const transport::ScenarioSession fixed = transport::run_scenario_transport(s, {});
  EXPECT_TRUE(chaos::bit_identical(session.result, fixed.result));
  EXPECT_EQ(session.joins, 0u);
  EXPECT_EQ(session.absent_agent_rounds, 0u);
  EXPECT_EQ(session.member_agent_rounds, static_cast<std::uint64_t>(s.n) * s.rounds);
}

TEST(ElasticCrossBackend, OracleMatchesInprocTransportOnEveryTopology) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);
  const elastic::ElasticSession oracle = elastic::run_elastic(s);
  for (const transport::Topology topology :
       {transport::Topology::kStar, transport::Topology::kChain, transport::Topology::kTree}) {
    transport::SessionOptions options;
    options.backend = transport::BackendKind::kInproc;
    options.topology = topology;
    const elastic::ElasticSession session = elastic::run_elastic_transport(s, options);
    EXPECT_TRUE(elastic::bit_identical(oracle, session))
        << "topology " << static_cast<int>(topology);
  }
}

TEST(ElasticCrossBackend, SocketBackendIsBitIdenticalOnChurnAndStreaming) {
  for (const chaos::Scenario& s :
       {elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed),
        elastic::make_redundancy_dip_scenario(kSeed),
        elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed)}) {
    transport::SessionOptions inproc;
    inproc.backend = transport::BackendKind::kInproc;
    transport::SessionOptions socket;
    socket.backend = transport::BackendKind::kSocket;
    socket.topology = transport::Topology::kTree;

    const elastic::ElasticSession a = elastic::run_elastic_transport(s, inproc);
    const elastic::ElasticSession b = elastic::run_elastic_transport(s, socket);
    EXPECT_TRUE(elastic::bit_identical(a, b)) << s.name;
    // Estimate traces agree to the bit, round by round.
    ASSERT_EQ(a.estimates.size(), b.estimates.size()) << s.name;
    for (std::size_t t = 0; t < a.estimates.size(); ++t) {
      ASSERT_EQ(a.estimates[t].size(), b.estimates[t].size());
      for (std::size_t k = 0; k < a.estimates[t].size(); ++k) {
        const double xa = a.estimates[t][k];
        const double xb = b.estimates[t][k];
        ASSERT_EQ(std::memcmp(&xa, &xb, sizeof(double)), 0)
            << s.name << " round " << t << " coord " << k;
      }
    }
  }
}

TEST(ElasticCrossBackend, ThreadCountDoesNotChangeTheSession) {
  const std::size_t restore = runtime::threads();
  const chaos::Scenario streaming =
      elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  const chaos::Scenario churn = elastic::make_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);

  for (const chaos::Scenario& s : {streaming, churn}) {
    runtime::set_threads(1);
    const elastic::ElasticSession one = elastic::run_elastic(s);
    runtime::set_threads(2);
    const elastic::ElasticSession two = elastic::run_elastic(s);
    runtime::set_threads(8);
    const elastic::ElasticSession eight = elastic::run_elastic(s);
    EXPECT_TRUE(elastic::bit_identical(one, two)) << s.name;
    EXPECT_TRUE(elastic::bit_identical(one, eight)) << s.name;
  }
  runtime::set_threads(restore);
}

TEST(ElasticCrossBackend, StableManifestsAndTracesMatchAcrossBackends) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);

  reset_telemetry();
  transport::SessionOptions inproc;
  const elastic::ElasticSession a = elastic::run_elastic_transport(s, inproc);
  const std::string manifest_a = stable_manifest(a);
  const std::string trace_a = stable_trace(a);

  reset_telemetry();
  transport::SessionOptions socket;
  socket.backend = transport::BackendKind::kSocket;
  const elastic::ElasticSession b = elastic::run_elastic_transport(s, socket);
  const std::string manifest_b = stable_manifest(b);
  const std::string trace_b = stable_trace(b);

  EXPECT_EQ(manifest_a, manifest_b);
  EXPECT_EQ(trace_a, trace_b);
  // The manifest carries the membership observables with the same values
  // the session reports — counters and manifest never drift apart.
  EXPECT_NE(manifest_a.find("\"elastic.joins\""), std::string::npos);
  EXPECT_NE(manifest_a.find("\"elastic.member_agent_rounds\""), std::string::npos);

  telemetry::set_enabled(false);
}

TEST(ElasticCrossBackend, StableManifestsMatchAcrossThreadCounts) {
  const std::size_t restore = runtime::threads();
  const chaos::Scenario s =
      elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kLeaveHeavy, kSeed);

  std::string first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    runtime::set_threads(threads);
    reset_telemetry();
    const elastic::ElasticSession session = elastic::run_elastic(s);
    const std::string manifest = stable_manifest(session);
    if (first.empty()) {
      first = manifest;
    } else {
      EXPECT_EQ(manifest, first) << "threads=" << threads;
    }
  }
  runtime::set_threads(restore);
  telemetry::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Fixed-membership paths refuse elastic scenarios.
// ---------------------------------------------------------------------------

TEST(ElasticRouting, FixedMembershipPathsRejectElasticScenarios) {
  const chaos::Scenario s = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  EXPECT_THROW(chaos::run_scenario(s), PreconditionError);
  EXPECT_THROW(transport::run_scenario_transport(s, {}), PreconditionError);
}

// ---------------------------------------------------------------------------
// Shrinker and generator integration.
// ---------------------------------------------------------------------------

TEST(ElasticShrink, ShrinkerThinsChurnWhileKeepingTheFailureAlive) {
  // "Failure" here: the run spends agent-rounds absent.  The shrinker
  // must keep at least one membership window alive while dropping the
  // rest of the schedule — and everything it emits must validate.
  chaos::Scenario failing = elastic::make_redundancy_dip_scenario(kSeed);
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 1;
  straggler.staleness = 2;
  failing.faults = {straggler};
  failing.validate();

  const chaos::ScenarioPredicate still_absent = [](const chaos::Scenario& c) {
    if (!c.elastic()) return false;
    return elastic::run_elastic(c).absent_agent_rounds > 0;
  };
  ASSERT_TRUE(still_absent(failing));

  const chaos::ShrinkOutcome outcome = chaos::shrink(failing, still_absent);
  EXPECT_NO_THROW(outcome.scenario.validate());
  EXPECT_TRUE(still_absent(outcome.scenario));
  EXPECT_GT(outcome.improvements, 0u);
  // The straggler is irrelevant to absences; a competent shrink drops it.
  EXPECT_TRUE(outcome.scenario.faults.empty());
  EXPECT_LE(outcome.scenario.membership.size(), failing.membership.size());
  EXPECT_LE(outcome.scenario.rounds, failing.rounds);
}

TEST(ElasticShrink, ShrinkerThinsTheStreamWhileKeepingArrivalsAlive) {
  const chaos::Scenario failing =
      elastic::make_streaming_churn_scenario(elastic::ChurnProfile::kJoinHeavy, kSeed);
  const chaos::ScenarioPredicate still_streams = [](const chaos::Scenario& c) {
    return !c.stream.empty() && elastic::run_elastic(c).stream_rows > 0;
  };
  ASSERT_TRUE(still_streams(failing));

  const chaos::ShrinkOutcome outcome = chaos::shrink(failing, still_streams);
  EXPECT_NO_THROW(outcome.scenario.validate());
  EXPECT_TRUE(still_streams(outcome.scenario));
  EXPECT_LT(total_stream_rows(outcome.scenario), total_stream_rows(failing));
  // Round reduction must clamp event windows rather than leave dangling
  // out-of-range rounds behind.
  for (const chaos::StreamEvent& e : outcome.scenario.stream) {
    EXPECT_LT(e.round, outcome.scenario.rounds);
  }
  for (const chaos::MembershipEvent& e : outcome.scenario.membership) {
    EXPECT_LT(e.round, outcome.scenario.rounds);
  }
}

TEST(ElasticGenerator, DefaultSpecSequencesAreByteStableAndChurnIsOptIn) {
  // The elastic knob must consume zero rng draws at its default — the
  // pinned scenario sequences of the chaos suite depend on it.
  chaos::GeneratorSpec defaults;
  chaos::GeneratorSpec explicit_zero;
  explicit_zero.elastic_probability = 0.0;
  chaos::Generator a(defaults, 99);
  chaos::Generator b(explicit_zero, 99);
  for (int k = 0; k < 10; ++k) {
    const chaos::Scenario sa = a.next();
    const chaos::Scenario sb = b.next();
    EXPECT_EQ(sa.to_json(), sb.to_json());
    EXPECT_FALSE(sa.elastic());
  }

  chaos::GeneratorSpec churny;
  churny.elastic_probability = 1.0;
  chaos::Generator g(churny, 99);
  std::size_t elastic_draws = 0;
  for (int k = 0; k < 12; ++k) {
    const chaos::Scenario s = g.next();  // next() validates before returning
    if (!s.elastic()) continue;  // small n / short rounds draws skip churn
    ++elastic_draws;
    EXPECT_NE(s.name.find("-elastic"), std::string::npos);
    // Generated churn must actually execute: the run completes, stays
    // finite, and honors whichever regime the scenario landed in.
    const elastic::ElasticSession session = elastic::run_elastic(s);
    EXPECT_FALSE(session.result.nonfinite) << s.name;
    const chaos::PropertyReport report = chaos::check_properties(s, session.result);
    EXPECT_TRUE(report.ok) << s.name << ": " << report.summary();
  }
  EXPECT_GT(elastic_draws, 0u);
}

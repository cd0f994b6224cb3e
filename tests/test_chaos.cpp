// Property-based chaos suite: generated fault-injection scenarios must
// satisfy the paper's convergence guarantees (Theorem 3 regime) or degrade
// gracefully, bit-identically at any thread count.  A failing scenario is
// shrunk to a minimal JSON reproducer replayable with tools/chaos-replay.
//
// The all-drivers contract lives here too: every generated scenario runs
// through the executor, the serving slice runner, the in-process
// transport session and the churn-free elastic session, and all four
// must agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/executor.h"
#include "chaos/generator.h"
#include "chaos/properties.h"
#include "chaos/round.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"
#include "elastic/churn.h"
#include "elastic/session.h"
#include "filters/gradient_filter.h"
#include "filters/registry.h"
#include "runtime/runtime.h"
#include "serving/checkpoint.h"
#include "serving/job.h"
#include "serving/runner.h"
#include "transport/session.h"
#include "util/error.h"
#include "util/json.h"

using namespace redopt;
using linalg::Vector;

namespace {

constexpr std::uint64_t kMasterSeed = 42;
constexpr std::size_t kScenarioCount = 220;  // the gate requires >= 200

/// Shrinks a failing scenario and renders the reproducer for the failure
/// message, so the fix loop is: save the JSON, `chaos-replay --scenario`.
std::string reproducer_for(const chaos::Scenario& failing,
                           const chaos::ScenarioPredicate& still_fails) {
  const chaos::ShrinkOutcome outcome = chaos::shrink(failing, still_fails);
  return outcome.scenario.to_json();
}

chaos::FaultSpec fault(chaos::FaultSpec::Kind kind, std::size_t agent, std::size_t from,
                       std::size_t until) {
  chaos::FaultSpec spec;
  spec.kind = kind;
  spec.agent = agent;
  spec.from = from;
  spec.until = until;
  return spec;
}

}  // namespace

TEST(ChaosSuite, GeneratedScenariosSatisfyProperties) {
  chaos::Generator generator(chaos::GeneratorSpec{}, kMasterSeed);
  std::size_t guaranteed = 0;
  std::size_t degraded = 0;
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    const chaos::Scenario scenario = generator.next();
    (scenario.guaranteed() ? guaranteed : degraded) += 1;
    const chaos::ScenarioResult result = chaos::run_scenario(scenario);
    const chaos::PropertyReport report = chaos::check_properties(scenario, result);
    if (!report.ok) {
      const auto still_fails = [](const chaos::Scenario& c) {
        return !chaos::check_properties(c, chaos::run_scenario(c)).ok;
      };
      ADD_FAILURE() << scenario.name << ": " << report.summary()
                    << "\nreproducer: " << reproducer_for(scenario, still_fails);
    }
  }
  // The generator must exercise both regimes, not collapse into one.
  EXPECT_GE(guaranteed, 100u);
  EXPECT_GE(degraded, 60u);
  EXPECT_EQ(guaranteed + degraded, kScenarioCount);
}

TEST(ChaosSuite, TrajectoriesAreBitIdenticalAcrossThreadCounts) {
  const std::size_t restore = runtime::threads();
  chaos::Generator generator(chaos::GeneratorSpec{}, kMasterSeed);
  for (std::size_t k = 0; k < kScenarioCount; ++k) {
    const chaos::Scenario scenario = generator.next();
    if (k % 8 != 0) continue;
    const chaos::ScenarioResult base = chaos::run_scenario(scenario);
    const chaos::ScenarioResult rerun = chaos::run_scenario(scenario);
    EXPECT_TRUE(chaos::bit_identical(base, rerun)) << scenario.name << ": rerun diverged";
    if (k % 16 == 0) {
      runtime::set_threads(2);
      const chaos::ScenarioResult threaded = chaos::run_scenario(scenario);
      runtime::set_threads(restore);
      EXPECT_TRUE(chaos::bit_identical(base, threaded))
          << scenario.name << ": thread count changed the trajectory";
    }
  }
}

TEST(ChaosSuite, ScenarioJsonRoundTrips) {
  chaos::Generator generator(chaos::GeneratorSpec{}, kMasterSeed);
  for (std::size_t k = 0; k < 32; ++k) {
    const chaos::Scenario scenario = generator.next();
    const std::string json = scenario.to_json();
    const chaos::Scenario parsed = chaos::scenario_from_json(json);
    EXPECT_EQ(parsed.to_json(), json);
  }
}

TEST(ChaosSuite, MalformedScenarioJsonThrowsTypedErrors) {
  EXPECT_THROW(chaos::scenario_from_json("{"), PreconditionError);
  EXPECT_THROW(chaos::scenario_from_json(""), PreconditionError);
  EXPECT_THROW(chaos::scenario_from_json("[1,2,3]"), PreconditionError);
  chaos::Scenario base;
  const std::string json = base.to_json();
  // Unknown members and trailing garbage are rejected, not ignored.
  EXPECT_THROW(chaos::scenario_from_json(json + "x"), PreconditionError);
  std::string with_unknown = json;
  with_unknown.insert(1, "\"bogus\":1,");
  EXPECT_THROW(chaos::scenario_from_json(with_unknown), PreconditionError);
}

namespace {

/// Deliberately sign-flipped CGE: keeps the n - f LARGEST-norm gradients
/// instead of the smallest.  The suite must catch this and shrink the
/// failure to a small reproducer — the acceptance test for the whole
/// chaos pipeline.
class BrokenCge : public filters::GradientFilter {
 public:
  BrokenCge(std::size_t n, std::size_t f) : n_(n), f_(f) {
    REDOPT_REQUIRE(n_ > 2 * f_, "broken cge needs n > 2f");
  }

  Vector apply(const std::vector<Vector>& gradients) const override {
    filters::detail::check_inputs(gradients, n_, "broken_cge");
    std::vector<double> norms(n_);
    for (std::size_t i = 0; i < n_; ++i) norms[i] = gradients[i].norm();
    std::vector<std::size_t> order(n_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (norms[a] != norms[b]) return norms[a] > norms[b];  // flipped
      return a < b;
    });
    Vector out(gradients[0].size());
    for (std::size_t k = 0; k < n_ - f_; ++k) out += gradients[order[k]];
    return out;
  }

  std::string name() const override { return "broken_cge"; }
  std::size_t expected_inputs() const override { return n_; }

 private:
  std::size_t n_;
  std::size_t f_;
};

chaos::ExecutorOptions broken_cge_options() {
  chaos::ExecutorOptions options;
  options.filter_factory = [](const std::string& name, std::size_t n,
                              std::size_t f) -> filters::FilterPtr {
    if (name == "cge") return std::make_shared<BrokenCge>(n, f);
    filters::FilterParams fp;
    fp.n = n;
    fp.f = f;
    return filters::FilterPtr(filters::make_filter(name, fp));
  };
  return options;
}

}  // namespace

TEST(ChaosSuite, BrokenFilterIsCaughtAndShrunkToSmallReproducer) {
  const chaos::ExecutorOptions broken = broken_cge_options();
  // "No meaningful progress" — deliberately looser than the guaranteed-
  // regime bound so it stays meaningful at reproducer round counts.
  const auto fails_under_broken = [&broken](const chaos::Scenario& c) {
    const chaos::ScenarioResult r = chaos::run_scenario(c, broken);
    if (r.nonfinite) return true;
    return r.final_distance > std::max(0.5 * r.initial_distance, 0.08);
  };

  chaos::GeneratorSpec spec;
  spec.max_n = 10;
  spec.max_f = 2;
  spec.filters = {"cge"};
  spec.problems = {"mean", "block_regression"};
  spec.violate_probability = 0.0;  // guaranteed regime only
  chaos::Generator generator(spec, kMasterSeed);

  bool found = false;
  chaos::Scenario failing;
  for (std::size_t k = 0; k < 80 && !found; ++k) {
    const chaos::Scenario candidate = generator.next();
    if (!fails_under_broken(candidate)) continue;
    // Only count failures the *correct* filter survives: the defect must
    // be attributable to the filter, not to the scenario itself.
    const chaos::ScenarioResult honest = chaos::run_scenario(candidate);
    if (!chaos::check_properties(candidate, honest).ok) continue;
    failing = candidate;
    found = true;
  }
  ASSERT_TRUE(found) << "no generated scenario exposed the sign-flipped CGE";

  const chaos::ShrinkOutcome outcome = chaos::shrink(failing, fails_under_broken);
  EXPECT_GT(outcome.improvements, 0u);
  EXPECT_LE(outcome.scenario.n, 8u) << outcome.scenario.to_json();
  EXPECT_LE(outcome.scenario.rounds, 20u) << outcome.scenario.to_json();

  // The reproducer replays from its JSON form and still fails.
  const chaos::Scenario replayed = chaos::scenario_from_json(outcome.scenario.to_json());
  EXPECT_EQ(replayed.to_json(), outcome.scenario.to_json());
  EXPECT_TRUE(fails_under_broken(replayed));
}

TEST(ChaosSuite, ExactAlgorithmRecoversHonestArgminUnderRedundancy) {
  chaos::Scenario scenario;
  scenario.name = "exact-check";
  scenario.seed = 9;
  scenario.problem = "mean";
  scenario.n = 6;
  scenario.f = 1;
  scenario.d = 3;
  scenario.noise_sigma = 0.0;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 2;
  scenario.faults.push_back(byz);
  EXPECT_LE(chaos::exact_algorithm_distance(scenario), 1e-6);

  chaos::Scenario block = scenario;
  block.problem = "block_regression";
  EXPECT_LE(chaos::exact_algorithm_distance(block), 1e-6);
}

TEST(ChaosSuite, GeneratorIsDeterministicPerSeed) {
  chaos::Generator a(chaos::GeneratorSpec{}, 7);
  chaos::Generator b(chaos::GeneratorSpec{}, 7);
  chaos::Generator c(chaos::GeneratorSpec{}, 8);
  bool seeds_differ = false;
  for (std::size_t k = 0; k < 25; ++k) {
    const std::string left = a.next().to_json();
    EXPECT_EQ(left, b.next().to_json());
    if (left != c.next().to_json()) seeds_differ = true;
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(ChaosSuite, ShrinkerMinimizesAStructuralFailure) {
  chaos::Scenario big;
  big.name = "structural";
  big.seed = 3;
  big.n = 12;
  big.f = 3;
  big.d = 4;
  big.rounds = 110;
  big.channel.drop_probability = 0.1;
  big.channel.duplicate_probability = 0.1;
  big.channel.max_delay = 3;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 0;
  byz.attack = "large_norm";
  byz.attack_param = 1e4;
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultSpec::Kind::kCrash;
  crash.agent = 1;
  crash.from = 10;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 2;
  straggler.staleness = 6;
  big.faults = {byz, crash, straggler};
  big.validate();

  // Structural predicate (no execution): the failure needs only the
  // large_norm attacker, so everything else should shrink away.
  const auto has_large_norm = [](const chaos::Scenario& c) {
    return std::any_of(c.faults.begin(), c.faults.end(), [](const chaos::FaultSpec& s) {
      return s.kind == chaos::FaultSpec::Kind::kByzantine && s.attack == "large_norm";
    });
  };
  const chaos::ShrinkOutcome outcome = chaos::shrink(big, has_large_norm);
  EXPECT_TRUE(has_large_norm(outcome.scenario));
  EXPECT_GT(outcome.improvements, 0u);
  EXPECT_EQ(outcome.scenario.faults.size(), 1u);
  EXPECT_LE(outcome.scenario.rounds, 5u);
  EXPECT_LT(outcome.scenario.n, big.n);
  EXPECT_EQ(outcome.scenario.channel.drop_probability, 0.0);
  EXPECT_EQ(outcome.scenario.channel.max_delay, 0u);
}

TEST(ChaosSuite, ShrinkerRejectsPassingInput) {
  chaos::Scenario base;
  const auto never_fails = [](const chaos::Scenario&) { return false; };
  EXPECT_THROW(chaos::shrink(base, never_fails), PreconditionError);
}

TEST(ChaosSuite, PropertiesFlagNonFiniteTrajectories) {
  chaos::Scenario scenario;
  chaos::ScenarioResult result;
  result.reference = Vector(scenario.d);
  result.nonfinite = true;
  result.final_distance = std::numeric_limits<double>::infinity();
  const chaos::PropertyReport report = chaos::check_properties(scenario, result);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.summary().find("finite"), std::string::npos);
}

TEST(ChaosSuite, ExecutorCountsEveryFaultChannel) {
  chaos::Scenario scenario;
  scenario.name = "counters";
  scenario.seed = 11;
  scenario.problem = "mean";
  scenario.filter = "cge";
  scenario.n = 8;
  scenario.f = 2;
  scenario.d = 2;
  scenario.rounds = 80;
  scenario.channel.drop_probability = 0.2;
  scenario.channel.duplicate_probability = 0.2;
  scenario.channel.max_delay = 2;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 0;
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultSpec::Kind::kCrash;
  crash.agent = 1;
  crash.from = 5;
  crash.until = 40;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 2;
  straggler.staleness = 3;
  scenario.faults = {byz, crash, straggler};
  scenario.validate();

  const chaos::ScenarioResult result = chaos::run_scenario(scenario);
  EXPECT_GT(result.byzantine_replies, 0u);
  EXPECT_GT(result.crashed_absences, 0u);
  EXPECT_GT(result.stale_replies, 0u);
  EXPECT_GT(result.dropped_replies, 0u);
  EXPECT_GT(result.delayed_replies, 0u);
  EXPECT_GT(result.duplicated_replies, 0u);
  // Crash windows end: agent 1 recovers, so the absence count is bounded.
  EXPECT_LE(result.crashed_absences, 35u);
}

TEST(ChaosSuite, AdaptiveAttacksAreRegisteredInScenarioVocabulary) {
  const auto& names = chaos::scenario_attack_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "camouflage"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "orthogonal_drift"), names.end());
}

// ---------------------------------------------------------------------------
// The fault schedule: per-(agent, round) channel decisions and fates
// (suite names kept from test_transport so the cases keep their ids).
// ---------------------------------------------------------------------------

TEST(TransportChannel, ZeroedFaultsAreIdentity) {
  const chaos::ChannelFaults none;
  for (std::size_t agent = 0; agent < 4; ++agent) {
    const auto decision = chaos::channel_decision(none, 7, agent, agent * 3);
    EXPECT_FALSE(decision.drop);
    EXPECT_FALSE(decision.duplicate);
    EXPECT_EQ(decision.delay, 0u);
  }
}

TEST(TransportChannel, DecisionsArePureInSeedAgentRound) {
  chaos::ChannelFaults faults;
  faults.drop_probability = 0.3;
  faults.duplicate_probability = 0.3;
  faults.max_delay = 3;
  // Same key, same decision — regardless of evaluation order or count.
  for (std::size_t agent = 0; agent < 6; ++agent) {
    for (std::size_t round = 0; round < 10; ++round) {
      const auto a = chaos::channel_decision(faults, 42, agent, round);
      const auto b = chaos::channel_decision(faults, 42, agent, round);
      EXPECT_EQ(a.drop, b.drop);
      EXPECT_EQ(a.duplicate, b.duplicate);
      EXPECT_EQ(a.delay, b.delay);
    }
  }
  // Different seeds decouple the streams.
  bool any_difference = false;
  for (std::size_t round = 0; round < 40 && !any_difference; ++round) {
    const auto a = chaos::channel_decision(faults, 1, 0, round);
    const auto b = chaos::channel_decision(faults, 2, 0, round);
    any_difference = a.drop != b.drop || a.duplicate != b.duplicate || a.delay != b.delay;
  }
  EXPECT_TRUE(any_difference);
}

TEST(TransportChannel, DropShortCircuitsDuplicateAndDelay) {
  chaos::ChannelFaults faults;
  faults.drop_probability = 1.0;
  faults.duplicate_probability = 1.0;
  faults.max_delay = 3;
  for (std::size_t round = 0; round < 10; ++round) {
    const auto decision = chaos::channel_decision(faults, 9, 0, round);
    EXPECT_TRUE(decision.drop);
  }
}

TEST(AgentReplicaFate, MirrorsTheFaultSchedule) {
  chaos::Scenario s;
  s.name = "fate";
  s.seed = 23;
  s.n = 6;
  s.f = 1;
  s.d = 2;
  s.rounds = 30;
  chaos::FaultSpec byz = fault(chaos::FaultSpec::Kind::kByzantine, 0, 2, 5);
  chaos::FaultSpec straggler = fault(chaos::FaultSpec::Kind::kStraggler, 2, 1, 0);
  straggler.staleness = 2;
  s.faults = {byz, fault(chaos::FaultSpec::Kind::kCrash, 1, 1, 4), straggler};

  EXPECT_FALSE(chaos::round_fate(s, 0, 1).byzantine);
  EXPECT_TRUE(chaos::round_fate(s, 0, 2).byzantine);
  EXPECT_FALSE(chaos::round_fate(s, 0, 5).byzantine);

  EXPECT_TRUE(chaos::round_fate(s, 1, 0).emits);
  EXPECT_FALSE(chaos::round_fate(s, 1, 3).emits);
  EXPECT_TRUE(chaos::round_fate(s, 1, 4).emits);

  // A straggler is only *stale* once an older estimate exists (round 1+).
  EXPECT_FALSE(chaos::round_fate(s, 2, 0).stale);
  EXPECT_TRUE(chaos::round_fate(s, 2, 1).stale);
  // Healthy agent, no channel faults: plain emission.
  const auto healthy = chaos::round_fate(s, 4, 3);
  EXPECT_TRUE(healthy.emits);
  EXPECT_FALSE(healthy.byzantine || healthy.stale || healthy.dropped || healthy.duplicated);
}

// ---------------------------------------------------------------------------
// The all-drivers contract: one fault schedule, one trajectory
// ---------------------------------------------------------------------------

namespace {

#ifndef REDOPT_TESTS_DIR
#error "tests/CMakeLists.txt must define REDOPT_TESTS_DIR"
#endif

std::string read_text(const std::string& relative) {
  std::ifstream in(std::string(REDOPT_TESTS_DIR) + "/" + relative, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << relative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_trace(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!same_bits(a[t], b[t])) return false;
  }
  return true;
}

/// Runs @p s as a serving job in slices of @p slice rounds, with the
/// checkpoint serialized and re-parsed between slices (a restart at
/// every boundary).
chaos::ScenarioResult serve_in_slices(const chaos::Scenario& s,
                                      const chaos::MaterializedScenario& built,
                                      std::size_t slice) {
  serving::JobSpec spec;
  spec.job_id = "contract";
  spec.scenario = s;
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  chaos::RoundKernel kernel(spec.scenario, built);
  while (!ck.finished()) {
    serving::run_job_slice(ck, slice, kernel);
    ck = serving::checkpoint_from_json(ck.to_json());
  }
  return chaos::scenario_result(ck.state, built);
}

transport::SessionOptions inproc_tree() {
  transport::SessionOptions options;
  options.backend = transport::BackendKind::kInproc;
  options.topology = transport::Topology::kTree;
  return options;
}

/// Every driver's run of one fixed-membership scenario.
struct DriverRuns {
  chaos::ScenarioResult executor;
  std::vector<std::pair<std::string, chaos::ScenarioResult>> others;
  transport::ScenarioSession session;
  elastic::ElasticSession churn_free;
};

DriverRuns run_all_drivers(const chaos::Scenario& s) {
  DriverRuns runs;
  runs.executor = chaos::run_scenario(s);
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  for (const std::size_t slice : {std::size_t{1}, std::size_t{5}, std::size_t{7}, s.rounds}) {
    runs.others.emplace_back("serving/" + std::to_string(slice), serve_in_slices(s, built, slice));
  }
  runs.session = transport::run_scenario_transport(s, inproc_tree());
  runs.others.emplace_back("transport", runs.session.result);
  runs.churn_free = elastic::run_elastic(s);
  runs.others.emplace_back("elastic", runs.churn_free.result);
  return runs;
}

/// The drivers that disagree with the executor on @p s (empty when all
/// four agree bit for bit).
std::string disagreeing_drivers(const chaos::Scenario& s) {
  const DriverRuns runs = run_all_drivers(s);
  std::string out;
  for (const auto& [driver, result] : runs.others) {
    if (!chaos::bit_identical(runs.executor, result) ||
        !same_bits(runs.executor.estimate, result.estimate)) {
      out += " " + driver;
    }
  }
  // The two coordinator loops record whole traces: those agree too.
  if (!same_trace(runs.session.estimates, runs.churn_free.estimates)) out += " elastic-trace";
  // A churn-free elastic session books no membership change at all.
  const elastic::ElasticSession& e = runs.churn_free;
  if (e.joins != 0 || e.leaves != 0 || e.absent_agent_rounds != 0 ||
      e.member_agent_rounds != static_cast<std::uint64_t>(s.n) * s.rounds) {
    out += " elastic-membership";
  }
  return out;
}

/// Inputs of the pairwise oracles (ScenarioSession and ElasticCrossBackend
/// in test_transport/test_elastic, Runner in test_serving): the
/// channel-free transport-vs-executor trio, the fault-free
/// serving-vs-executor job, and the churn-free elastic anchor — here run
/// through every driver.
std::vector<chaos::Scenario> pairwise_oracle_inputs() {
  std::vector<chaos::Scenario> inputs;
  chaos::Scenario s;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 6;
  s.f = 1;
  s.d = 2;
  s.rounds = 30;

  s.name = "exec-clean";
  s.seed = 41;
  inputs.push_back(s);

  s.name = "exec-byz";
  s.seed = 42;
  s.faults = {fault(chaos::FaultSpec::Kind::kByzantine, 1, 0, 0)};
  inputs.push_back(s);

  s.name = "exec-crash-straggler";
  s.seed = 43;
  s.n = 8;
  s.f = 2;
  chaos::FaultSpec straggler = fault(chaos::FaultSpec::Kind::kStraggler, 4, 1, 0);
  straggler.staleness = 2;
  s.faults = {fault(chaos::FaultSpec::Kind::kCrash, 0, 1, 9), straggler};
  inputs.push_back(s);

  chaos::Scenario clean;
  clean.name = "serving-clean";
  clean.seed = 17;
  clean.problem = "regression";
  clean.filter = "cge";
  clean.n = 8;
  clean.f = 2;
  clean.d = 2;
  clean.rounds = 30;
  inputs.push_back(clean);

  chaos::Scenario anchor = elastic::make_churn_scenario(elastic::ChurnProfile::kJoinHeavy, 11);
  anchor.membership.clear();
  anchor.name = "churn-free-anchor";
  inputs.push_back(anchor);

  for (const chaos::Scenario& input : inputs) input.validate();
  return inputs;
}

}  // namespace

TEST(AllDrivers, BitIdenticalOnEveryGeneratedScenario) {
  constexpr std::size_t kDraws = 200;
  chaos::GeneratorSpec spec;
  spec.elastic_probability = 0.0;
  chaos::Generator generator(spec, kMasterSeed);
  std::size_t disagreeing = 0;
  std::string first;
  for (std::size_t k = 0; k < kDraws; ++k) {
    const chaos::Scenario s = generator.next();
    ASSERT_FALSE(s.elastic()) << s.name;
    const std::string drivers = disagreeing_drivers(s);
    if (drivers.empty()) continue;
    if (++disagreeing <= 5) first += "\n  " + s.name + ":" + drivers;
  }
  EXPECT_EQ(disagreeing, 0u) << disagreeing << " of " << kDraws
                             << " generated scenarios disagree across drivers, e.g." << first;

  for (const chaos::Scenario& s : pairwise_oracle_inputs()) {
    EXPECT_EQ(disagreeing_drivers(s), "") << s.name;
  }

  // Churning draws: the in-process oracle and the in-process transport
  // agree on every one, and the transport's attribution reconciles.
  chaos::GeneratorSpec churny;
  churny.elastic_probability = 1.0;
  chaos::Generator elastic_generator(churny, kMasterSeed);
  std::size_t churning = 0;
  for (std::size_t k = 0; k < 50; ++k) {
    const chaos::Scenario s = elastic_generator.next();
    churning += s.elastic() ? 1 : 0;
    const elastic::ElasticSession oracle = elastic::run_elastic(s);
    const elastic::ElasticSession inproc = elastic::run_elastic_transport(s, inproc_tree());
    EXPECT_TRUE(elastic::bit_identical(oracle, inproc)) << s.name;
    EXPECT_TRUE(inproc.attribution.ok()) << s.name;
  }
  EXPECT_GE(churning, 25u);
}

TEST(AllDrivers, BitIdenticalToTheFaultyLossyGolden) {
  // tests/golden/chaos_faulty_lossy.json pins the in-process session on
  // the committed faulty, lossy scenario (test_golden_traces); the other
  // drivers must land on exactly those bits.
  const chaos::Scenario s =
      chaos::scenario_from_json(read_text("scenarios/faulty_lossy_n8_cge.json"));
  const util::JsonValue golden = util::json_parse(read_text("golden/chaos_faulty_lossy.json"));
  const util::JsonValue& counters = golden.at("counters");
  const auto matches_golden = [&](const chaos::ScenarioResult& r) {
    const auto& estimate = golden.at("final_estimate").as_array();
    if (estimate.size() != r.estimate.size()) return false;
    for (std::size_t i = 0; i < estimate.size(); ++i) {
      if (!same_bits(estimate[i].as_number(), r.estimate[i])) return false;
    }
    const auto count = [&](const char* name) {
      return static_cast<std::uint64_t>(counters.at(name).as_int(0, 1 << 30));
    };
    return same_bits(golden.at("initial_distance").as_number(), r.initial_distance) &&
           same_bits(golden.at("final_distance").as_number(), r.final_distance) &&
           same_bits(golden.at("max_distance").as_number(), r.max_distance) &&
           count("byzantine_replies") == r.byzantine_replies &&
           count("crashed_absences") == r.crashed_absences &&
           count("stale_replies") == r.stale_replies &&
           count("dropped_replies") == r.dropped_replies &&
           count("delayed_replies") == r.delayed_replies &&
           count("duplicated_replies") == r.duplicated_replies &&
           count("superseded_replies") == r.superseded_replies &&
           count("filter_rebuilds") == r.filter_rebuilds;
  };

  const DriverRuns runs = run_all_drivers(s);
  EXPECT_TRUE(matches_golden(runs.executor)) << "executor";
  for (const auto& [driver, result] : runs.others) {
    EXPECT_TRUE(matches_golden(result)) << driver;
  }
  std::vector<Vector> trace;
  for (const util::JsonValue& row : golden.at("estimates").as_array()) {
    Vector x(row.as_array().size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = row.as_array()[i].as_number();
    trace.push_back(x);
  }
  EXPECT_TRUE(same_trace(runs.churn_free.estimates, trace));
  // The scenario exercises what it claims: every fault kind fires.
  EXPECT_GT(runs.executor.byzantine_replies, 0u);
  EXPECT_GT(runs.executor.crashed_absences, 0u);
  EXPECT_GT(runs.executor.stale_replies, 0u);
  EXPECT_GT(runs.executor.dropped_replies, 0u);
  EXPECT_GT(runs.executor.duplicated_replies, 0u);
  EXPECT_GT(runs.executor.delayed_replies, 0u);
}

// Golden-trace regression tests: a seeded attack x filter matrix runs DGD
// on the paper's regression instance and the serialized trace must match
// the checked-in JSON byte for byte.  Catches any silent numerical drift —
// a reordered reduction, a changed default, a "harmless" refactor.
//
// To regenerate after an intentional behaviour change:
//
//   REDOPT_UPDATE_GOLDEN=1 ./tests/test_golden_traces   (or scripts/update_golden.sh)
//
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "attacks/registry.h"
#include "chaos/scenario.h"
#include "data/regression.h"
#include "dgd/trainer.h"
#include "elastic/churn.h"
#include "elastic/session.h"
#include "filters/registry.h"
#include "transport/session.h"
#include "util/json.h"

using namespace redopt;
using linalg::Vector;

namespace {

#ifndef REDOPT_GOLDEN_DIR
#error "tests/CMakeLists.txt must define REDOPT_GOLDEN_DIR"
#endif

std::string golden_path(const std::string& name) {
  return std::string(REDOPT_GOLDEN_DIR) + "/" + name + ".json";
}

std::string vector_json(const Vector& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (k > 0) os << ",";
    os << util::json_number(v[k]);
  }
  os << "]";
  return os.str();
}

/// Serializes the observables we pin: deterministic member order and the
/// repo's fixed number formatting (json_number round-trips doubles).
std::string trace_json(const std::string& name, const dgd::TrainResult& result) {
  std::ostringstream os;
  os << "{\"case\":\"" << util::json_escape(name) << "\"";
  os << ",\"final_estimate\":" << vector_json(result.estimate);
  os << ",\"final_loss\":" << util::json_number(result.final_loss);
  os << ",\"final_distance\":" << util::json_number(result.final_distance);
  os << ",\"iterations\":[";
  for (std::size_t k = 0; k < result.trace.iteration.size(); ++k) {
    if (k > 0) os << ",";
    os << result.trace.iteration[k];
  }
  os << "],\"loss\":[";
  for (std::size_t k = 0; k < result.trace.loss.size(); ++k) {
    if (k > 0) os << ",";
    os << util::json_number(result.trace.loss[k]);
  }
  os << "],\"distance\":[";
  for (std::size_t k = 0; k < result.trace.distance.size(); ++k) {
    if (k > 0) os << ",";
    os << util::json_number(result.trace.distance[k]);
  }
  os << "],\"estimates\":[";
  for (std::size_t k = 0; k < result.trace.estimates.size(); ++k) {
    if (k > 0) os << ",";
    os << vector_json(result.trace.estimates[k]);
  }
  os << "]}\n";
  return os.str();
}

dgd::TrainResult run_case(const std::string& attack_name, const std::string& filter_name) {
  rng::Rng rng(7);
  const auto inst = data::make_regression(data::paper_matrix(), Vector{1.0, 1.0}, 0.0, 1, rng);
  const Vector x_h = data::regression_argmin(inst, dgd::honest_ids(6, {2}));

  filters::FilterParams fp;
  fp.n = 6;
  fp.f = 1;
  dgd::TrainerConfig cfg;
  cfg.filter = filters::make_filter(filter_name, fp);
  cfg.schedule = std::make_shared<dgd::HarmonicSchedule>(
      (filter_name == "cge" || filter_name == "sum") ? 0.5 : 2.0);
  cfg.projection = std::make_shared<dgd::BoxProjection>(dgd::BoxProjection::cube(2, 10.0));
  cfg.iterations = 60;
  cfg.trace_stride = 10;
  cfg.seed = 7;

  const auto attack = attacks::make_attack(attack_name);
  return dgd::train(inst.problem, {2}, attack.get(), cfg, x_h);
}

/// Serializes the deterministic observables of an elastic churn session:
/// the scenario itself (so a golden also pins the serialized schedule),
/// the estimate trace, and every membership/stream counter.
std::string elastic_trace_json(const std::string& name, const chaos::Scenario& scenario,
                               const elastic::ElasticSession& session) {
  std::ostringstream os;
  os << "{\"case\":\"" << util::json_escape(name) << "\"";
  os << ",\"scenario\":" << scenario.to_json();
  os << ",\"final_estimate\":" << vector_json(session.result.estimate);
  os << ",\"reference\":" << vector_json(session.result.reference);
  os << ",\"initial_distance\":" << util::json_number(session.result.initial_distance);
  os << ",\"final_distance\":" << util::json_number(session.result.final_distance);
  os << ",\"max_distance\":" << util::json_number(session.result.max_distance);
  os << ",\"joins\":" << session.joins << ",\"leaves\":" << session.leaves
     << ",\"member_agent_rounds\":" << session.member_agent_rounds
     << ",\"absent_agent_rounds\":" << session.absent_agent_rounds
     << ",\"stream_rows\":" << session.stream_rows
     << ",\"f_rederivations\":" << session.f_rederivations
     << ",\"rounds_below_redundancy\":" << session.rounds_below_redundancy
     << ",\"filter_rebuilds\":" << session.result.filter_rebuilds;
  os << ",\"query_distances\":[";
  for (std::size_t k = 0; k < session.query_distances.size(); ++k) {
    if (k > 0) os << ",";
    os << util::json_number(session.query_distances[k]);
  }
  os << "],\"estimates\":[";
  for (std::size_t k = 0; k < session.estimates.size(); ++k) {
    if (k > 0) os << ",";
    os << vector_json(session.estimates[k]);
  }
  os << "]}\n";
  return os.str();
}

/// Serializes the deterministic observables of a fixed-membership
/// transport session: the scenario, the estimate trace and every fault
/// counter.
std::string session_trace_json(const std::string& name, const chaos::Scenario& scenario,
                               const transport::ScenarioSession& session) {
  const chaos::ScenarioResult& r = session.result;
  std::ostringstream os;
  os << "{\"case\":\"" << util::json_escape(name) << "\"";
  os << ",\"scenario\":" << scenario.to_json();
  os << ",\"final_estimate\":" << vector_json(r.estimate);
  os << ",\"reference\":" << vector_json(r.reference);
  os << ",\"initial_distance\":" << util::json_number(r.initial_distance);
  os << ",\"final_distance\":" << util::json_number(r.final_distance);
  os << ",\"max_distance\":" << util::json_number(r.max_distance);
  os << ",\"counters\":{\"byzantine_replies\":" << r.byzantine_replies
     << ",\"crashed_absences\":" << r.crashed_absences
     << ",\"stale_replies\":" << r.stale_replies
     << ",\"dropped_replies\":" << r.dropped_replies
     << ",\"delayed_replies\":" << r.delayed_replies
     << ",\"duplicated_replies\":" << r.duplicated_replies
     << ",\"superseded_replies\":" << r.superseded_replies
     << ",\"filter_rebuilds\":" << r.filter_rebuilds << "}";
  os << ",\"estimates\":[";
  for (std::size_t k = 0; k < session.estimates.size(); ++k) {
    if (k > 0) os << ",";
    os << vector_json(session.estimates[k]);
  }
  os << "]}\n";
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void compare_or_update(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);

  if (std::getenv("REDOPT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_LOG_(INFO) << "regenerated " << path;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run scripts/update_golden.sh and review the diff)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << name << " drifted from its golden trace; if the change is intentional, "
      << "regenerate with scripts/update_golden.sh and review the diff";
}

void check_golden(const std::string& attack_name, const std::string& filter_name) {
  const std::string name = attack_name + "_" + filter_name;
  compare_or_update(name, trace_json(name, run_case(attack_name, filter_name)));
}

void check_elastic_golden(const std::string& name, elastic::ChurnProfile profile) {
  const chaos::Scenario scenario = elastic::make_churn_scenario(profile, 11);
  const elastic::ElasticSession session = elastic::run_elastic(scenario);
  compare_or_update(name, elastic_trace_json(name, scenario, session));
}

}  // namespace

TEST(GoldenTraces, GradientReverseCge) { check_golden("gradient_reverse", "cge"); }
TEST(GoldenTraces, GradientReverseCwtm) { check_golden("gradient_reverse", "cwtm"); }
TEST(GoldenTraces, LieCge) { check_golden("lie", "cge"); }
TEST(GoldenTraces, LieCwtm) { check_golden("lie", "cwtm"); }
TEST(GoldenTraces, IpmCge) { check_golden("ipm", "cge"); }
TEST(GoldenTraces, IpmCwtm) { check_golden("ipm", "cwtm"); }

// Elastic churn sessions: the golden pins the seeded membership schedule
// (via the embedded scenario JSON), the full estimate trace and every
// membership counter, so any drift in event folding, filter re-derivation
// or the serving path shows up as a byte diff.
TEST(GoldenTraces, ElasticChurnJoinHeavy) {
  check_elastic_golden("elastic_churn_join_heavy", elastic::ChurnProfile::kJoinHeavy);
}
TEST(GoldenTraces, ElasticChurnLeaveHeavy) {
  check_elastic_golden("elastic_churn_leave_heavy", elastic::ChurnProfile::kLeaveHeavy);
}

// A faulty, lossy fixed-membership round: a `random` Byzantine agent, a
// crash window, a straggler, and a dropping/duplicating/delaying channel,
// run as an in-process transport session.  AllDrivers in test_chaos ties
// the executor, the serving runner and the elastic session to these bits.
TEST(GoldenTraces, ChaosFaultyLossy) {
  const chaos::Scenario scenario = chaos::scenario_from_json(
      read_file(std::string(REDOPT_GOLDEN_DIR) + "/../scenarios/faulty_lossy_n8_cge.json"));
  const transport::ScenarioSession session = transport::run_scenario_transport(scenario);
  compare_or_update("chaos_faulty_lossy",
                    session_trace_json("chaos_faulty_lossy", scenario, session));
}

// The golden files pin parsed-and-reserialized stability too: loading a
// golden through the strict JSON parser and re-emitting its numbers must
// not change a byte (the parser keeps integers exact and json_number
// round-trips doubles).
TEST(GoldenTraces, GoldenFilesParseCleanly) {
  for (const std::string name :
       {"gradient_reverse_cge", "gradient_reverse_cwtm", "lie_cge", "lie_cwtm", "ipm_cge",
        "ipm_cwtm", "elastic_churn_join_heavy", "elastic_churn_leave_heavy",
        "chaos_faulty_lossy"}) {
    std::ifstream in(golden_path(name), std::ios::binary);
    if (!in.good()) continue;  // covered by the per-case tests above
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const util::JsonValue doc = util::json_parse(buffer.str());
    EXPECT_EQ(doc.at("case").as_string(), name);
    if (doc.find("scenario") != nullptr) {
      EXPECT_GE(doc.at("estimates").as_array().size(), 2u);
      // The embedded scenario round-trips through the strict parser and
      // still validates — goldens double as schema regression fixtures.
      const chaos::Scenario parsed =
          chaos::scenario_from_json(util::json_serialize(doc.at("scenario")));
      EXPECT_NO_THROW(parsed.validate());
      EXPECT_EQ(parsed.elastic(), name.rfind("elastic_", 0) == 0);
    } else {
      EXPECT_GE(doc.at("iterations").as_array().size(), 2u);
    }
  }
}

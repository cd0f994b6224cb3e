// Behavioral tests for the serving subsystem: job specs, checkpoints,
// the resumable slice runner, the scheduler's admission control and
// fairness, cross-job gradient stacking, and the daemon's wire protocol
// end to end over a real Unix-domain socket.
//
// The load-bearing claims are all byte-equality claims, asserted as
// such: a checkpoint round-trips through JSON bit-exactly, a job sliced
// 1 round at a time (with a serialize/reload between every slice — a
// simulated crash at every boundary) ends in the same bytes as an
// uninterrupted run, a fault-free serving trajectory equals the chaos
// executor's, and the cross-job stacked evaluator equals the virtual
// cost path down to the final manifest.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/executor.h"
#include "chaos/scenario.h"
#include "core/batch_gradient.h"
#include "linalg/vector.h"
#include "runtime/runtime.h"
#include "serving/checkpoint.h"
#include "serving/client.h"
#include "serving/daemon.h"
#include "serving/job.h"
#include "serving/runner.h"
#include "serving/scheduler.h"
#include "telemetry/events.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "util/error.h"
#include "util/json.h"

using namespace redopt;
using linalg::Vector;

namespace {

namespace fs = std::filesystem;

/// A scenario that exercises every runner path: Byzantine window with an
/// rng-consuming attack, a crash window, a straggler, and a lossy
/// delaying/duplicating channel.
chaos::Scenario faulty_scenario(std::uint64_t seed) {
  chaos::Scenario s;
  s.name = "serving-faulty";
  s.seed = seed;
  s.problem = "regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 40;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 1;
  byz.from = 5;
  byz.until = 0;
  byz.attack = "random";
  byz.attack_param = 50.0;
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultSpec::Kind::kCrash;
  crash.agent = 3;
  crash.from = 10;
  crash.until = 20;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 5;
  straggler.from = 2;
  straggler.until = 0;
  straggler.staleness = 3;
  s.faults = {byz, crash, straggler};
  s.channel.drop_probability = 0.1;
  s.channel.duplicate_probability = 0.1;
  s.channel.max_delay = 2;
  s.validate();
  return s;
}

/// No faults, no channel randomness: the serving runner must match
/// chaos::run_scenario bit for bit on these.
chaos::Scenario clean_scenario(std::uint64_t seed) {
  chaos::Scenario s;
  s.name = "serving-clean";
  s.seed = seed;
  s.problem = "regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 30;
  s.validate();
  return s;
}

serving::JobSpec make_job(const std::string& id, const chaos::Scenario& scenario) {
  serving::JobSpec spec;
  spec.job_id = id;
  spec.scenario = scenario;
  return spec;
}

/// Runs a job to completion in `slice` -round slices, optionally
/// serializing + reloading the checkpoint between every slice (a
/// simulated crash at each boundary).
serving::JobCheckpoint run_sliced(const serving::JobSpec& spec,
                                  const chaos::MaterializedScenario& built, std::size_t slice,
                                  bool reload_between_slices) {
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  serving::SliceContext ctx;
  ctx.built = &built;
  while (!ck.finished()) {
    serving::run_job_slice(ck, slice, ctx);
    if (reload_between_slices) ck = serving::checkpoint_from_json(ck.to_json());
  }
  return ck;
}

void expect_bytes_equal(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = a[i];
    const double xb = b[i];
    ASSERT_EQ(std::memcmp(&xa, &xb, sizeof(double)), 0) << "coordinate " << i;
  }
}

std::string temp_dir(const std::string& tag) {
  return (fs::temp_directory_path() / ("redopt_serving_" + tag)).string();
}

}  // namespace

TEST(JobSpec, RoundTripsThroughJsonBitExactly) {
  const serving::JobSpec spec = make_job("exp-01.a", faulty_scenario(7));
  const std::string json = spec.to_json();
  const serving::JobSpec back = serving::job_spec_from_json(json);
  EXPECT_EQ(back.job_id, "exp-01.a");
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.scenario.to_json(), spec.scenario.to_json());
}

TEST(JobSpec, RejectsIdsThatCannotNameStateFiles) {
  for (const std::string bad :
       {std::string(""), std::string("has space"), std::string("a/b"), std::string(".hidden"),
        std::string(101, 'x')}) {
    serving::JobSpec spec = make_job(bad, clean_scenario(1));
    EXPECT_THROW(spec.validate(), PreconditionError) << "id: '" << bad << "'";
  }
  serving::JobSpec ok = make_job("A-z.0_9", clean_scenario(1));
  EXPECT_NO_THROW(ok.validate());
}

TEST(JobSpec, RejectsElasticScenarios) {
  chaos::Scenario s = clean_scenario(1);
  chaos::MembershipEvent leave;
  leave.kind = chaos::MembershipEvent::Kind::kLeave;
  leave.agent = 7;
  leave.round = 3;
  s.membership = {leave};
  s.validate();  // valid as a scenario —
  serving::JobSpec spec = make_job("churny", s);
  EXPECT_THROW(spec.validate(), PreconditionError);  // — but not as a serving job
}

TEST(JobSpec, ParserRejectsUnknownMembers) {
  const std::string json = make_job("a", clean_scenario(1)).to_json();
  const std::string extra = "{\"extra\":1," + json.substr(1);
  EXPECT_THROW(serving::job_spec_from_json(extra), PreconditionError);
}

TEST(Checkpoint, RoundTripsThroughJsonBitExactly) {
  const serving::JobSpec spec = make_job("ck", faulty_scenario(11));
  const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  serving::SliceContext ctx;
  ctx.built = &built;
  serving::run_job_slice(ck, 17, ctx);  // mid-flight: history + pending populated
  ASSERT_FALSE(ck.finished());

  const std::string json = ck.to_json();
  const serving::JobCheckpoint back = serving::checkpoint_from_json(json);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.next_round, ck.next_round);
  EXPECT_EQ(back.counters, ck.counters);
  EXPECT_EQ(back.pending.size(), ck.pending.size());
  expect_bytes_equal(back.x, ck.x);
}

TEST(Checkpoint, ParserRejectsHostileDocuments) {
  const serving::JobSpec spec = make_job("ck", faulty_scenario(11));
  const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  serving::SliceContext ctx;
  ctx.built = &built;
  serving::run_job_slice(ck, 9, ctx);
  const std::string json = ck.to_json();

  // Unknown member.
  EXPECT_THROW(serving::checkpoint_from_json("{\"bogus\":1," + json.substr(1)),
               PreconditionError);
  // Truncated document.
  EXPECT_THROW(serving::checkpoint_from_json(json.substr(0, json.size() - 2)),
               PreconditionError);
  // Round index beyond the scenario's schedule.
  const std::string marker = "\"next_round\":" + std::to_string(ck.next_round);
  const auto at = json.find(marker);
  ASSERT_NE(at, std::string::npos);
  const std::string beyond = json.substr(0, at) + "\"next_round\":" +
                             std::to_string(spec.scenario.rounds + 5) +
                             json.substr(at + marker.size());
  EXPECT_THROW(serving::checkpoint_from_json(beyond), PreconditionError);
  // Empty document / non-object.
  EXPECT_THROW(serving::checkpoint_from_json(""), PreconditionError);
  EXPECT_THROW(serving::checkpoint_from_json("[1,2]"), PreconditionError);
}

TEST(Runner, SliceSizeAndReloadBoundariesDoNotChangeTheTrajectory) {
  const serving::JobSpec spec = make_job("slices", faulty_scenario(13));
  const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);

  const serving::JobCheckpoint whole = run_sliced(spec, built, spec.scenario.rounds, false);
  const serving::JobCheckpoint by_one = run_sliced(spec, built, 1, true);
  const serving::JobCheckpoint by_seven = run_sliced(spec, built, 7, true);

  ASSERT_TRUE(whole.finished());
  // A crash (serialize + reload) at every single round boundary, and a
  // different slice partition, both end in the same bytes.
  EXPECT_EQ(by_one.to_json(), whole.to_json());
  EXPECT_EQ(by_seven.to_json(), whole.to_json());
  // The run exercised what it claims: faults and channel noise fired.
  EXPECT_GT(whole.counters.byzantine_replies, 0u);
  EXPECT_GT(whole.counters.crashed_absences, 0u);
  EXPECT_GT(whole.counters.stale_replies, 0u);
  EXPECT_GT(whole.counters.dropped_replies + whole.counters.delayed_replies +
                whole.counters.duplicated_replies,
            0u);
}

TEST(Runner, FaultFreeTrajectoryMatchesTheChaosExecutorBitForBit) {
  const chaos::Scenario scenario = clean_scenario(17);
  const chaos::ScenarioResult oracle = chaos::run_scenario(scenario);

  const serving::JobSpec spec = make_job("oracle", scenario);
  const chaos::MaterializedScenario built = chaos::materialize_scenario(scenario);
  const serving::JobCheckpoint ck = run_sliced(spec, built, 5, true);

  expect_bytes_equal(ck.x, oracle.estimate);
  const double a = ck.initial_distance;
  const double b = oracle.initial_distance;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
  const double ma = ck.max_distance;
  const double mb = oracle.max_distance;
  EXPECT_EQ(std::memcmp(&ma, &mb, sizeof(double)), 0);
}

TEST(Runner, ManifestIsStableAcrossThreadCountsAndWallClock) {
  const serving::JobSpec spec = make_job("threads", faulty_scenario(19));
  const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);

  const std::size_t before = runtime::threads();
  runtime::set_threads(1);
  const serving::JobCheckpoint one = run_sliced(spec, built, 6, false);
  runtime::set_threads(4);
  const serving::JobCheckpoint four = run_sliced(spec, built, 6, false);
  runtime::set_threads(before);

  const std::string stable_one =
      telemetry::stable_json_projection(serving::job_manifest_json(one, built, 0.25));
  const std::string stable_four =
      telemetry::stable_json_projection(serving::job_manifest_json(four, built, 99.0));
  // Different thread counts AND different wall-clock readings: the
  // stable projection strips the latter, the runtime contract kills the
  // former, so the manifests agree byte for byte.
  EXPECT_EQ(stable_one, stable_four);
}

TEST(BatchGradient, GroupedEvaluationMatchesPerGroupAndVirtualPaths) {
  const chaos::MaterializedScenario a = chaos::materialize_scenario(clean_scenario(23));
  const chaos::MaterializedScenario b = chaos::materialize_scenario(clean_scenario(29));
  const std::vector<std::vector<core::CostPtr>> groups = {a.problem.costs, b.problem.costs};

  auto grouped = core::BatchGradientEvaluator::try_create_grouped(groups);
  ASSERT_NE(grouped, nullptr);
  ASSERT_EQ(grouped->num_groups(), 2u);
  ASSERT_EQ(grouped->group_agents(0), a.problem.costs.size());
  ASSERT_EQ(grouped->group_offset(1), a.problem.costs.size());

  // Two distinct iterates, one per group.
  Vector xa(2), xb(2);
  xa[0] = 0.75;
  xa[1] = -2.5;
  xb[0] = -1.125;
  xb[1] = 3.0;

  std::vector<std::vector<Vector>> stacked;
  grouped->evaluate_groups({xa, xb}, stacked);
  ASSERT_EQ(stacked.size(), 2u);

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Vector& x = g == 0 ? xa : xb;
    auto single = core::BatchGradientEvaluator::try_create(groups[g]);
    ASSERT_NE(single, nullptr);
    std::vector<Vector> per_group;
    single->evaluate_all(x, per_group);
    ASSERT_EQ(stacked[g].size(), per_group.size());
    for (std::size_t i = 0; i < per_group.size(); ++i) {
      expect_bytes_equal(stacked[g][i], per_group[i]);
      expect_bytes_equal(stacked[g][i], groups[g][i]->gradient(x));
      // The per-agent path at the global index agrees too.
      Vector ws, out;
      grouped->evaluate_agent(grouped->group_offset(g) + i, x, ws, out);
      expect_bytes_equal(stacked[g][i], out);
    }
  }
}

TEST(Scheduler, CrossJobStackingIsBitIdenticalToTheVirtualPath) {
  telemetry::registry().reset();
  // Two concurrent least-squares jobs stack into one grouped evaluator;
  // their manifests must match jobs run alone through the virtual path.
  serving::SchedulerOptions options;
  options.slice_rounds = 7;
  serving::Scheduler scheduler(options);
  const serving::JobSpec job_a = make_job("stack-a", faulty_scenario(31));
  const serving::JobSpec job_b = make_job("stack-b", faulty_scenario(37));
  ASSERT_EQ(scheduler.submit(job_a), "");
  ASSERT_EQ(scheduler.submit(job_b), "");
  ASSERT_NE(scheduler.group_evaluator(), nullptr);
  ASSERT_EQ(scheduler.group_evaluator()->num_groups(), 2u);

  while (!scheduler.idle()) scheduler.step(nullptr);

  for (const serving::JobSpec& spec : {job_a, job_b}) {
    const serving::JobCheckpoint* stacked = scheduler.finished_checkpoint(spec.job_id);
    ASSERT_NE(stacked, nullptr);
    // Same job, alone, virtual cost path, different slice partition.
    const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);
    const serving::JobCheckpoint alone = run_sliced(spec, built, 11, true);
    EXPECT_EQ(stacked->to_json(), alone.to_json()) << spec.job_id;
  }
}

TEST(Scheduler, AdmissionControlRejectsWithExactReasons) {
  telemetry::registry().reset();
  serving::SchedulerOptions options;
  options.max_jobs = 1;
  options.max_rounds_per_job = 50;
  options.max_dimension = 4;
  serving::Scheduler scheduler(options);

  ASSERT_EQ(scheduler.submit(make_job("only", clean_scenario(1))), "");
  EXPECT_EQ(scheduler.submit(make_job("only", clean_scenario(2))),
            "job id already known: only");
  EXPECT_EQ(scheduler.submit(make_job("late", clean_scenario(2))),
            "admission: job table full (1 live jobs)");

  serving::Scheduler roomy({/*max_jobs=*/8, /*max_rounds_per_job=*/50, /*max_dimension=*/4,
                            /*slice_rounds=*/16});
  chaos::Scenario long_run = clean_scenario(3);
  long_run.rounds = 51;
  EXPECT_EQ(roomy.submit(make_job("long", long_run)),
            "admission: rounds 51 exceed the per-job budget 50");
  chaos::Scenario wide = clean_scenario(4);
  wide.d = 5;
  wide.n = 12;  // keep n - 2f >= d
  EXPECT_EQ(roomy.submit(make_job("wide", wide)),
            "admission: dimension 5 exceeds the cap 4");
  // Rejected jobs never enter the table.
  EXPECT_FALSE(roomy.status("long").has_value());
  EXPECT_FALSE(roomy.status("wide").has_value());
  EXPECT_EQ(telemetry::registry().counter("serving.jobs_rejected").value(), 4u);
  EXPECT_EQ(telemetry::registry().counter("serving.jobs_admitted").value(), 1u);
}

TEST(Scheduler, RoundRobinSharesSlicesFairly) {
  serving::SchedulerOptions options;
  options.slice_rounds = 4;
  serving::Scheduler scheduler(options);
  chaos::Scenario ten = clean_scenario(5);
  ten.rounds = 10;
  ASSERT_EQ(scheduler.submit(make_job("a", ten)), "");
  ASSERT_EQ(scheduler.submit(make_job("b", ten)), "");

  // 10 rounds at 4 per slice = 3 slices each, strictly alternating.
  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) order.push_back(scheduler.step(nullptr));
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.step(nullptr), "");
  EXPECT_EQ(scheduler.live_jobs(), 0u);
  for (const serving::JobStatus& status : scheduler.list()) {
    EXPECT_EQ(status.state, serving::JobState::kDone);
    EXPECT_EQ(status.rounds_done, 10u);
  }
}

TEST(Daemon, ServesTheFullJobLifecycleOverTheSocket) {
  const std::string root = temp_dir("daemon");
  fs::remove_all(root);
  fs::create_directories(root);
  serving::DaemonOptions options;
  options.socket_path = root + "/d.sock";
  options.state_dir = root + "/state";
  options.scheduler.slice_rounds = 8;

  serving::Daemon daemon(options);
  EXPECT_EQ(daemon.recover(), 0u);
  std::thread server([&daemon] { daemon.serve(); });

  serving::Client client(options.socket_path);
  const serving::JobSpec spec = make_job("wire", faulty_scenario(41));
  const util::JsonValue accepted = util::json_parse(client.submit(spec));
  ASSERT_TRUE(accepted.at("ok").as_bool());
  EXPECT_EQ(accepted.at("state").as_string(), "queued");
  // Resubmission of a live id is rejected over the wire, too.
  const util::JsonValue dup = util::json_parse(client.submit(spec));
  EXPECT_FALSE(dup.at("ok").as_bool());

  std::string state;
  for (int i = 0; i < 2000 && state != "done"; ++i) {
    state = util::json_parse(client.status("wire")).at("state").as_string();
  }
  ASSERT_EQ(state, "done");

  const util::JsonValue result = util::json_parse(client.result("wire"));
  ASSERT_TRUE(result.at("ok").as_bool());
  const util::JsonValue& manifest = result.at("manifest");
  EXPECT_EQ(manifest.at("job").as_string(), "wire");
  EXPECT_EQ(manifest.at("rounds").as_int(0, 1000000), 40);
  EXPECT_NE(manifest.find("result"), nullptr);
  EXPECT_NE(manifest.find("telemetry"), nullptr);

  const util::JsonValue unknown = util::json_parse(client.status("nope"));
  EXPECT_FALSE(unknown.at("ok").as_bool());

  client.shutdown_daemon();
  server.join();
  EXPECT_TRUE(daemon.shutdown_requested());
  // The finished job left a manifest and no checkpoint behind.
  EXPECT_TRUE(fs::exists(options.state_dir + "/wire.manifest.json"));
  EXPECT_FALSE(fs::exists(options.state_dir + "/wire.ckpt.json"));
  fs::remove_all(root);
}

TEST(Daemon, KillAndResumeProducesByteIdenticalManifests) {
  const std::string root = temp_dir("resume");
  fs::remove_all(root);
  fs::create_directories(root);
  const serving::JobSpec spec = make_job("revive", faulty_scenario(43));

  // Reference: one daemon instance runs the job to completion.
  std::string reference;
  {
    serving::DaemonOptions options;
    options.socket_path = root + "/ref.sock";
    options.state_dir = root + "/ref";
    options.scheduler.slice_rounds = 8;
    serving::Daemon daemon(options);
    util::json_parse(daemon.handle_request("{\"op\":\"submit\",\"job\":" + spec.to_json() + "}"));
    while (!daemon.scheduler().idle()) daemon.poll_once();
    std::ifstream in(options.state_dir + "/revive.manifest.json", std::ios::binary);
    reference.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    ASSERT_FALSE(reference.empty());
  }

  // Crash: a daemon dies (destructor — the persisted checkpoint is all
  // that survives) after a few slices; a fresh instance over the same
  // state dir adopts the checkpoint and finishes the job.
  {
    serving::DaemonOptions options;
    options.socket_path = root + "/cr.sock";
    options.state_dir = root + "/cr";
    options.scheduler.slice_rounds = 8;
    {
      serving::Daemon daemon(options);
      util::json_parse(
          daemon.handle_request("{\"op\":\"submit\",\"job\":" + spec.to_json() + "}"));
      daemon.poll_once();
      daemon.poll_once();  // a couple of slices, then "crash"
    }
    ASSERT_TRUE(fs::exists(options.state_dir + "/revive.ckpt.json"));
    serving::Daemon revived(options);
    EXPECT_EQ(revived.recover(), 1u);
    // recover() must resume mid-job, not restart: the adopted
    // checkpoint carries the progress already made.
    ASSERT_GT(revived.scheduler().checkpoint("revive")->next_round, 0u);
    while (!revived.scheduler().idle()) revived.poll_once();
  }
  std::ifstream in(root + "/cr/revive.manifest.json", std::ios::binary);
  const std::string resumed((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(resumed, reference);
  EXPECT_FALSE(fs::exists(root + "/cr/revive.ckpt.json"));
  fs::remove_all(root);
}

TEST(Daemon, FinishedJobsReleaseTheirInstanceAndKeepAnswering) {
  const std::string root = temp_dir("release");
  fs::remove_all(root);
  fs::create_directories(root);
  serving::DaemonOptions options;
  options.socket_path = root + "/r.sock";
  options.state_dir = root + "/state";
  options.scheduler.slice_rounds = 8;
  serving::Daemon daemon(options);

  const serving::JobSpec spec = make_job("freed", faulty_scenario(47));
  const std::string submit = "{\"op\":\"submit\",\"job\":" + spec.to_json() + "}";
  ASSERT_EQ(daemon.handle_request(submit), "{\"ok\":true,\"job\":\"freed\",\"state\":\"queued\"}");
  ASSERT_NE(daemon.scheduler().built("freed"), nullptr);
  while (!daemon.scheduler().idle()) daemon.poll_once();

  // Once the manifest is written the daemon drops the instance ...
  EXPECT_EQ(daemon.scheduler().built("freed"), nullptr);

  // ... and every request about the job answers exactly as before.
  EXPECT_EQ(daemon.handle_request("{\"op\":\"status\",\"job\":\"freed\"}"),
            "{\"ok\":true,\"job\":\"freed\",\"state\":\"done\",\"rounds_done\":40,"
            "\"rounds_total\":40}");
  EXPECT_EQ(daemon.handle_request("{\"op\":\"list\"}"),
            "{\"ok\":true,\"jobs\":[{\"job\":\"freed\",\"state\":\"done\",\"rounds_done\":40,"
            "\"rounds_total\":40}]}");
  EXPECT_EQ(daemon.handle_request(submit),
            "{\"ok\":false,\"error\":\"job id already known: freed\"}");

  // The manifest matches an in-process scheduler that never releases
  // (and refuses to release a job that is not done).
  serving::Scheduler replay(options.scheduler);
  ASSERT_EQ(replay.submit(spec), "");
  EXPECT_THROW(replay.release("freed"), PreconditionError);
  while (!replay.idle()) replay.step(nullptr);
  ASSERT_NE(replay.built("freed"), nullptr);
  const std::string expected = telemetry::stable_json_projection(serving::job_manifest_json(
      *replay.finished_checkpoint("freed"), *replay.built("freed"), 0.0));
  EXPECT_EQ(daemon.handle_request("{\"op\":\"result\",\"job\":\"freed\"}"),
            "{\"ok\":true,\"job\":\"freed\",\"manifest\":" + expected + "}");
  fs::remove_all(root);
}

TEST(Daemon, HandleRequestTurnsEveryFailureIntoAStructuredError) {
  const std::string root = temp_dir("errors");
  fs::remove_all(root);
  fs::create_directories(root);
  serving::DaemonOptions options;
  options.socket_path = root + "/e.sock";
  options.state_dir = root + "/state";
  serving::Daemon daemon(options);

  for (const std::string request :
       {std::string("{\"op\":\"nope\"}"), std::string("not json at all"),
        std::string("{\"op\":\"status\",\"job\":\"ghost\"}"),
        std::string("{\"op\":\"result\",\"job\":\"ghost\"}"),
        std::string("{\"op\":\"submit\",\"job\":{\"job\":\"x\"}}")}) {
    const util::JsonValue response = util::json_parse(daemon.handle_request(request));
    EXPECT_FALSE(response.at("ok").as_bool()) << request;
    EXPECT_NE(response.find("error"), nullptr) << request;
  }
  fs::remove_all(root);
}

#include "probes.h"

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>

#include "chaos/executor.h"
#include "core/batch_gradient.h"
#include "elastic/session.h"
#include "filters/registry.h"
#include "serving/daemon.h"
#include "serving/runner.h"
#include "serving/scheduler.h"
#include "telemetry/metrics.h"
#include "telemetry/ship.h"
#include "transport/session.h"
#include "util/error.h"
#include "util/frame.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serving = redopt::serving;
using redopt::linalg::Vector;
using Clock = std::chrono::steady_clock;

namespace {

double us_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// Times @p fn in batches of @p batch calls until @p budget_s passed (at
/// least @p min_samples batches); one sample per batch, in microseconds
/// per call.
template <typename Fn>
std::vector<double> sample_us(Fn&& fn, std::size_t batch, double budget_s,
                              std::size_t min_samples = 21) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < min_samples ||
         std::chrono::duration<double>(Clock::now() - start).count() < budget_s) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    samples.push_back(us_between(begin, Clock::now()) / static_cast<double>(batch));
  }
  return samples;
}

/// Mirrors Scheduler::restack's candidate selection, then builds the
/// grouped evaluator it would build over the live jobs.
double time_restack(const serving::Scheduler& scheduler, const std::deque<std::string>& live) {
  const Clock::time_point begin = Clock::now();
  std::vector<std::vector<redopt::core::CostPtr>> groups;
  std::size_t d = 0;
  for (const std::string& id : live) {
    std::size_t job_d = 0;
    const auto& costs = scheduler.built(id)->problem.costs;
    if (!redopt::core::BatchGradientEvaluator::all_least_squares(costs, &job_d)) continue;
    if (groups.empty()) d = job_d;
    if (job_d == d) groups.push_back(costs);
  }
  if (!groups.empty()) {
    const auto evaluator = redopt::core::BatchGradientEvaluator::try_create_grouped(groups);
    REDOPT_REQUIRE(evaluator != nullptr, "perfbench: restack probe built no evaluator");
  }
  return us_between(begin, Clock::now()) / 1e3;
}

}  // namespace

ReplayStats replay_serving(const Workload& workload, const std::string& state_dir) {
  constexpr std::size_t kWindow = 6;  // 3 clients x 2 jobs in flight, as the daemon sees
  fs::remove_all(state_dir);
  fs::create_directories(state_dir);
  ReplayStats stats;
  serving::SchedulerOptions options;
  options.max_jobs = 8;
  options.slice_rounds = 16;
  serving::Scheduler scheduler(options);
  const auto restacks = redopt::telemetry::registry().counter("serving.restacks");
  const std::uint64_t restacks_before = restacks.value();

  auto path = [&](const std::string& id, const char* suffix) {
    return (fs::path(state_dir) / (id + suffix)).string();
  };
  auto persist_checkpoint = [&](const serving::JobCheckpoint& ck, bool count_bytes) {
    const Clock::time_point begin = Clock::now();
    const std::string bytes = ck.to_json();
    const Clock::time_point serialized = Clock::now();
    serving::atomic_write_file(path(ck.spec.job_id, ".ckpt.json"), bytes);
    const Clock::time_point written = Clock::now();
    stats.ckpt_serialize_us.push_back(us_between(begin, serialized));
    stats.ckpt_write_us.push_back(us_between(serialized, written));
    if (count_bytes) {
      stats.ckpt_bytes += bytes.size();
      stats.ckpt_total_us += us_between(begin, written);
    }
  };

  std::deque<std::string> live;
  std::size_t next = 0;
  auto admit = [&]() {
    const serving::JobSpec spec = job_spec(workload, next++);
    const Clock::time_point begin = Clock::now();
    const std::string reason = scheduler.submit(spec);
    stats.admit_ms.push_back(us_between(begin, Clock::now()) / 1e3);
    REDOPT_REQUIRE(reason.empty(), "perfbench: replay admission failed: " + reason);
    const Clock::time_point materialize = Clock::now();
    const redopt::chaos::MaterializedScenario built =
        redopt::chaos::materialize_scenario(spec.scenario);
    stats.materialize_ms.push_back(us_between(materialize, Clock::now()) / 1e3);
    live.push_back(spec.job_id);
    stats.restack_ms.push_back(time_restack(scheduler, live));
    persist_checkpoint(*scheduler.checkpoint(spec.job_id), false);
  };
  while (next < std::min(kWindow, workload.fixed_jobs)) admit();

  while (!scheduler.idle()) {
    double callback_us = 0.0;
    std::string finished_id;
    const Clock::time_point begin = Clock::now();
    scheduler.step([&](const serving::JobCheckpoint& ck, bool finished) {
      const Clock::time_point callback = Clock::now();
      if (!finished) {
        persist_checkpoint(ck, true);
      } else {
        const std::string& id = ck.spec.job_id;
        const std::string manifest = redopt::telemetry::stable_json_projection(
            serving::job_manifest_json(ck, *scheduler.built(id), 0.0));
        serving::atomic_write_file(path(id, ".manifest.json"), manifest);
        fs::remove(path(id, ".ckpt.json"));
        stats.manifest_us.push_back(us_between(callback, Clock::now()));
        finished_id = id;
      }
      callback_us = us_between(callback, Clock::now());
    });
    const double slice_us = us_between(begin, Clock::now()) - callback_us;
    stats.slice_us.push_back(slice_us);
    stats.slice_total_us += slice_us;
    ++stats.slices;
    if (!finished_id.empty()) {
      ++stats.jobs;
      std::erase(live, finished_id);
      stats.restack_ms.push_back(time_restack(scheduler, live));
      if (next < workload.fixed_jobs) admit();
    }
  }
  stats.restacks = restacks.value() - restacks_before;
  fs::remove_all(state_dir);
  return stats;
}

SessionRun run_session(const Workload& workload, std::size_t index) {
  const redopt::chaos::Scenario& scenario = workload.sessions.at(index);
  redopt::transport::SessionOptions options;
  options.topology = redopt::transport::Topology::kTree;
  SessionRun run;
  run.rounds = scenario.rounds;
  if (index == 0) {
    redopt::transport::ScenarioSession session =
        redopt::transport::run_scenario_transport(scenario, options);
    run.estimates = std::move(session.estimates);
    run.transport = session.transport;
    run.filter_rebuilds = session.result.filter_rebuilds;
  } else {
    redopt::elastic::ElasticSession session =
        redopt::elastic::run_elastic_transport(scenario, options);
    run.estimates = std::move(session.estimates);
    run.transport = session.transport;
    run.filter_rebuilds = session.result.filter_rebuilds;
  }
  return run;
}

bool same_trace(const std::vector<Vector>& a, const std::vector<Vector>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].size() != b[t].size()) return false;
    if (std::memcmp(a[t].data().data(), b[t].data().data(), a[t].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

LayerProbes probe_layers(const Workload& workload) {
  LayerProbes probes;
  const redopt::chaos::Scenario& scenario = workload.sessions.at(0);

  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point begin = Clock::now();
    const redopt::chaos::ScenarioResult result = redopt::chaos::run_scenario(scenario);
    REDOPT_REQUIRE(!result.nonfinite, "perfbench: executor probe diverged");
    probes.executor_round_us.push_back(us_between(begin, Clock::now()) /
                                       static_cast<double>(scenario.rounds));
  }

  // One job's agents at x0, through the stacked evaluator when the
  // population is least squares (the serving path), else the cost objects.
  const redopt::chaos::MaterializedScenario built = redopt::chaos::materialize_scenario(scenario);
  const auto& costs = built.problem.costs;
  const Vector x(scenario.d, 0.5);
  const auto evaluator = redopt::core::BatchGradientEvaluator::try_create(costs);
  std::vector<Vector> residual(costs.size()), out(costs.size());
  probes.gradient_us = sample_us(
      [&] {
        for (std::size_t i = 0; i < costs.size(); ++i) {
          if (evaluator != nullptr) {
            evaluator->evaluate_agent(i, x, residual[i], out[i]);
          } else {
            out[i] = costs[i]->gradient(x);
          }
        }
      },
      20, 0.2);

  // A recorded round at n = 16, d = 64: every agent's gradient of a block
  // regression instance at x0, the serve_wide filter inputs.
  redopt::chaos::Scenario recorded;
  recorded.seed = workload.job_pool.at(0).seed;
  recorded.problem = "block_regression";
  recorded.n = 16;
  recorded.f = 3;
  recorded.d = 64;
  const redopt::chaos::MaterializedScenario round_built =
      redopt::chaos::materialize_scenario(recorded);
  std::vector<Vector> gradients;
  for (const auto& cost : round_built.problem.costs) {
    gradients.push_back(cost->gradient(Vector(recorded.d, 0.5)));
  }
  redopt::filters::FilterParams params;
  params.n = recorded.n;
  params.f = recorded.f;
  for (auto [name, samples] : {std::make_pair("cge", &probes.filter_cge_us),
                               std::make_pair("cwtm", &probes.filter_cwtm_us),
                               std::make_pair("krum", &probes.filter_krum_us)}) {
    const auto filter = redopt::filters::make_filter(name, params);
    Vector sink;
    *samples = sample_us([&] { sink = filter->apply(gradients); }, 20, 0.1);
  }

  redopt::util::Frame frame;
  frame.type = redopt::util::FrameType::kGradient;
  frame.agent = 3;
  frame.round = 17;
  frame.emitted = 16;
  frame.hops = 2;
  frame.payload = gradients.at(0).data();
  std::size_t decoded = 0;
  probes.codec_us = sample_us(
      [&] { decoded += redopt::util::decode_frame(redopt::util::encode_frame(frame)).payload.size(); },
      100, 0.1);
  REDOPT_REQUIRE(decoded > 0, "perfbench: codec probe decoded nothing");
  return probes;
}

}  // namespace perfbench

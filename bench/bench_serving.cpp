// R-S1 — serving throughput and time-to-result under multi-client load
// (google-benchmark).
//
// Three questions, one binary:
//
//   * jobs/sec through the scheduler — the in-process core: admission,
//     round-robin slices through each job's kept kernel, checkpoint
//     serialization after every slice (the daemon's persistence cost
//     without the filesystem).  The jobs_per_second counter is the R-S1
//     headline number.
//
//   * what one admission costs — serving/admit submits an n = 16, d = 64
//     block_regression job (materialization with its honest-minimum QR,
//     the initial checkpoint, the job's round kernel) into a table
//     already holding five live jobs of that shape; it copies none of
//     their rows.
//
//   * time-to-result over the wire — a live daemon on a Unix-domain
//     socket, client threads submitting a batch of jobs and polling to
//     completion exactly like scripts/check_serving.sh does.  Reported
//     per entry: p50/p99 submit-to-result latency over all jobs.
//     (Latency samples are timing, not arithmetic — expect noise; the
//     perf gate holds only the ratio to baseline.)
//
// Per-entry ride-alongs (rounds_total, jobs) pin the workload, so a
// scenario change that silently alters the work shows up next to its
// timing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/scenario.h"
#include "perf_common.h"
#include "serving/client.h"
#include "serving/daemon.h"
#include "serving/job.h"
#include "serving/scheduler.h"
#include "util/json.h"

using namespace redopt;

namespace {

constexpr std::uint64_t kBenchSeed = 131;

/// One synthetic training job: a faulty regression scenario that takes
/// the full runner path (Byzantine window, straggler history, lossy
/// channel) so the benchmark prices real slices, not the no-fault fast
/// path.
serving::JobSpec bench_job(const std::string& id, std::uint64_t seed) {
  chaos::Scenario s;
  s.name = "bench-serving";
  s.seed = kBenchSeed + seed;
  s.problem = "regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 60;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 1;
  byz.from = 5;
  byz.attack = "random";
  byz.attack_param = 50.0;
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 5;
  straggler.from = 2;
  straggler.staleness = 3;
  s.faults = {byz, straggler};
  s.channel.drop_probability = 0.05;
  s.channel.duplicate_probability = 0.05;
  s.channel.max_delay = 2;

  serving::JobSpec spec;
  spec.job_id = id;
  spec.scenario = s;
  return spec;
}

/// A serve_wide-shaped job: block regression n = 16, f = 3, d = 64 under
/// CWTM with a gradient_reverse Byzantine agent.
serving::JobSpec wide_job(const std::string& id, std::uint64_t seed, std::size_t rounds) {
  chaos::Scenario s;
  s.name = "bench-admit";
  s.seed = kBenchSeed + seed;
  s.problem = "block_regression";
  s.filter = "cwtm";
  s.n = 16;
  s.f = 3;
  s.d = 64;
  s.rounds = rounds;
  chaos::FaultSpec byz;
  byz.kind = chaos::FaultSpec::Kind::kByzantine;
  byz.agent = 2;
  byz.attack = "gradient_reverse";
  byz.attack_param = 1.0;
  s.faults = {byz};

  serving::JobSpec spec;
  spec.job_id = id;
  spec.scenario = s;
  return spec;
}

/// Scheduler::submit of one job into a table of five live jobs.  Only the
/// submit is timed; the admitted job (one slice long) is then run to done
/// and released untimed, so every iteration admits into the same table.
void scheduler_admit(benchmark::State& state) {
  serving::SchedulerOptions options;
  options.max_jobs = 6;
  options.slice_rounds = 16;
  serving::Scheduler scheduler(options);
  for (std::size_t k = 0; k < 5; ++k) {
    // Long enough never to finish while the benchmark runs.
    const std::string live = "live-" + std::to_string(k);
    const std::string reason = scheduler.submit(wide_job(live, k, options.max_rounds_per_job));
    if (!reason.empty()) state.SkipWithError(reason.c_str());
  }
  std::size_t admitted = 0;
  for (auto _ : state) {
    const std::string id = "admit-" + std::to_string(admitted);
    const std::string reason = scheduler.submit(wide_job(id, 5 + admitted % 16, 16));
    if (!reason.empty()) {
      state.SkipWithError(reason.c_str());
      break;
    }
    state.PauseTiming();
    while (scheduler.status(id)->state != serving::JobState::kDone) scheduler.step(nullptr);
    scheduler.release(id);
    ++admitted;
    state.ResumeTiming();
  }
  state.counters["live_jobs"] = 5.0;
}

/// Scheduler-only throughput: K concurrent jobs through admission,
/// stacking, slicing and per-slice checkpoint serialization.
void scheduler_jobs_per_second(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::uint64_t jobs_done = 0;
  std::uint64_t rounds_total = 0;
  for (auto _ : state) {
    serving::SchedulerOptions options;
    options.max_jobs = batch;
    options.slice_rounds = 16;
    serving::Scheduler scheduler(options);
    for (std::size_t k = 0; k < batch; ++k) {
      const std::string reason =
          scheduler.submit(bench_job("job-" + std::to_string(k), k));
      if (!reason.empty()) state.SkipWithError(reason.c_str());
    }
    std::string checkpoint_bytes;
    while (!scheduler.idle()) {
      scheduler.step([&checkpoint_bytes](const serving::JobCheckpoint& ck, bool) {
        // Price what the daemon persists after every slice.
        checkpoint_bytes = ck.to_json();
      });
    }
    benchmark::DoNotOptimize(checkpoint_bytes.data());
    jobs_done += batch;
    rounds_total += batch * 60;
  }
  state.counters["jobs_per_second"] = benchmark::Counter(
      static_cast<double>(jobs_done), benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(batch);
  state.counters["rounds_total"] = static_cast<double>(rounds_total);
}

/// Full wire path: a daemon thread serving a Unix-domain socket, client
/// threads submitting a job batch and polling each job to its result.
void daemon_time_to_result(benchmark::State& state) {
  namespace fs = std::filesystem;
  const auto clients = static_cast<std::size_t>(state.range(0));
  const std::size_t jobs_per_client = 4;
  const std::string root =
      (fs::temp_directory_path() / "redopt_bench_serving").string();

  std::vector<double> samples;
  std::uint64_t jobs_done = 0;
  for (auto _ : state) {
    fs::remove_all(root);
    fs::create_directories(root);
    serving::DaemonOptions options;
    options.socket_path = root + "/bench.sock";
    options.state_dir = root + "/state";
    options.scheduler.max_jobs = clients * jobs_per_client;
    options.scheduler.slice_rounds = 16;
    serving::Daemon daemon(options);
    std::thread server([&daemon] { daemon.serve(); });

    std::vector<std::vector<double>> lanes(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&options, c, &lane = lanes[c]] {
        serving::Client client(options.socket_path);
        for (std::size_t k = 0; k < jobs_per_client; ++k) {
          std::ostringstream id_stream;
          id_stream << 'c' << c << "-j" << k;
          const std::string id = id_stream.str();
          const auto begin = std::chrono::steady_clock::now();
          client.submit(bench_job(id, c * jobs_per_client + k));
          while (true) {
            const util::JsonValue status = util::json_parse(client.status(id));
            if (status.at("ok").as_bool() &&
                status.at("state").as_string() == "done") {
              break;
            }
          }
          const std::string result = client.result(id);
          const auto end = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(result.data());
          lane.push_back(
              std::chrono::duration<double, std::milli>(end - begin).count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    serving::Client(options.socket_path).shutdown_daemon();
    server.join();
    for (const std::vector<double>& lane : lanes) {
      samples.insert(samples.end(), lane.begin(), lane.end());
    }
    jobs_done += clients * jobs_per_client;
  }
  fs::remove_all(root);

  std::sort(samples.begin(), samples.end());
  auto percentile = [&samples](double p) {
    if (samples.empty()) return 0.0;
    const auto at =
        static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
    return samples[at];
  };
  state.counters["jobs_per_second"] = benchmark::Counter(
      static_cast<double>(jobs_done), benchmark::Counter::kIsRate);
  state.counters["ttr_p50_ms"] = percentile(0.50);
  state.counters["ttr_p99_ms"] = percentile(0.99);
}

BENCHMARK(scheduler_jobs_per_second)
    ->Name("serving/scheduler/jobs")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8);
BENCHMARK(scheduler_admit)->Name("serving/admit")->Unit(benchmark::kMillisecond);
BENCHMARK(daemon_time_to_result)
    ->Name("serving/daemon/ttr")
    ->Arg(1)
    ->Arg(2)
    // Real time, not CPU: the daemon thread does the work while the
    // client threads wait, so rate counters must divide by wall clock.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return redopt::bench::run_perf_bench(argc, argv); }

// R-E1 — elastic session throughput and serving-path latency
// (google-benchmark).
//
// Two questions, one binary:
//
//   * rounds/sec under churn — the full elastic coordinator loop
//     (membership epochs, f re-derivation, filter rebuilds, freshest-
//     reply dedup, per-round snapshot publish) per profile, on the
//     in-process oracle and behind the inproc transport backend.  The
//     rounds_per_second counter is the R-E1 headline number.
//
//   * query p99 under churn — reader threads hammer the EstimateService
//     while a session trains and publishes; the exported p50/p99
//     latencies bound what a concurrent client pays for a consistent
//     snapshot mid-run.  (Latency samples are timing, not arithmetic —
//     expect noise; the perf gate holds only the ratio to baseline.)
//
// Membership counters ride along per entry (joins, leaves,
// absent_agent_rounds) so a schedule change that silently alters the
// workload shows up next to its timing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "chaos/scenario.h"
#include "elastic/churn.h"
#include "elastic/serving.h"
#include "elastic/session.h"
#include "perf_common.h"
#include "transport/session.h"

using namespace redopt;

namespace {

constexpr std::uint64_t kBenchSeed = 97;

chaos::Scenario profile_scenario(elastic::ChurnProfile profile, bool streaming) {
  return streaming ? elastic::make_streaming_churn_scenario(profile, kBenchSeed)
                   : elastic::make_churn_scenario(profile, kBenchSeed);
}

void export_membership(benchmark::State& state, const elastic::ElasticSession& session,
                       double rounds) {
  state.counters["rounds_per_second"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["joins"] = static_cast<double>(session.joins);
  state.counters["leaves"] = static_cast<double>(session.leaves);
  state.counters["absent_agent_rounds"] = static_cast<double>(session.absent_agent_rounds);
}

void run_oracle(benchmark::State& state, elastic::ChurnProfile profile, bool streaming) {
  const chaos::Scenario scenario = profile_scenario(profile, streaming);
  elastic::ElasticSession session;
  for (auto _ : state) {
    session = elastic::run_elastic(scenario);
    benchmark::DoNotOptimize(session.result.final_distance);
  }
  export_membership(state, session, static_cast<double>(scenario.rounds));
}

void oracle_join_heavy(benchmark::State& state) {
  run_oracle(state, elastic::ChurnProfile::kJoinHeavy, false);
}
void oracle_leave_heavy(benchmark::State& state) {
  run_oracle(state, elastic::ChurnProfile::kLeaveHeavy, false);
}
void oracle_streaming(benchmark::State& state) {
  run_oracle(state, elastic::ChurnProfile::kJoinHeavy, true);
}

void inproc_join_heavy(benchmark::State& state) {
  const chaos::Scenario scenario = profile_scenario(elastic::ChurnProfile::kJoinHeavy, false);
  transport::SessionOptions options;  // inproc star
  elastic::ElasticSession session;
  for (auto _ : state) {
    session = elastic::run_elastic_transport(scenario, options);
    benchmark::DoNotOptimize(session.result.final_distance);
  }
  export_membership(state, session, static_cast<double>(scenario.rounds));
}

/// Serving-path latency: readers time query() while the session trains
/// and publishes.  Reported per entry: p50/p99 over all reader samples.
void serving_query_latency(benchmark::State& state) {
  const auto readers = static_cast<std::size_t>(state.range(0));
  const chaos::Scenario scenario = profile_scenario(elastic::ChurnProfile::kLeaveHeavy, false);

  std::vector<double> samples;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    elastic::EstimateService service;
    elastic::ElasticOptions options;
    options.service = &service;

    std::atomic<bool> done{false};
    std::vector<std::vector<double>> lanes(readers);
    std::vector<std::thread> threads;
    for (std::size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&done, &service, &lane = lanes[r]] {
        do {
          const auto begin = std::chrono::steady_clock::now();
          const elastic::EstimateService::Snapshot snap = service.query();
          const auto end = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(snap.version);
          lane.push_back(std::chrono::duration<double, std::nano>(end - begin).count());
        } while (!done.load(std::memory_order_acquire));
      });
    }

    const elastic::ElasticSession session = elastic::run_elastic(scenario, options);
    done.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(session.result.final_distance);

    for (std::vector<double>& lane : lanes) {
      samples.insert(samples.end(), lane.begin(), lane.end());
    }
    queries = service.queries_served();
  }

  std::sort(samples.begin(), samples.end());
  auto percentile = [&samples](double p) {
    if (samples.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(p * static_cast<double>(samples.size() - 1));
    return samples[at];
  };
  state.counters["query_p50_ns"] = percentile(0.50);
  state.counters["query_p99_ns"] = percentile(0.99);
  state.counters["queries_served"] = static_cast<double>(queries);
}

BENCHMARK(oracle_join_heavy)->Name("elastic/oracle/join_heavy");
BENCHMARK(oracle_leave_heavy)->Name("elastic/oracle/leave_heavy");
BENCHMARK(oracle_streaming)->Name("elastic/oracle/streaming");
BENCHMARK(inproc_join_heavy)->Name("elastic/inproc/join_heavy");
BENCHMARK(serving_query_latency)->Name("elastic/serving/query")->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return redopt::bench::run_perf_bench(argc, argv); }

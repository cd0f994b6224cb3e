// Heap-allocation counts of the admission path, the scenario and trainer
// rounds, a serving slice and whole transport sessions.
//
// This binary replaces the global operator new / delete with a pair that
// counts every allocation of the calling thread, for every case in it.
// That is why it is not in tests/sanitize_suites.txt: ASan and TSan bring
// their own allocator.  Counts are exact work counts (no timing), so they
// are pinned exactly where the code promises a number, and bounded where
// the promise is "few".
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "chaos/executor.h"
#include "chaos/round.h"
#include "chaos/scenario.h"
#include "data/regression.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "dgd/trainer.h"
#include "elastic/session.h"
#include "filters/registry.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "serving/checkpoint.h"
#include "serving/runner.h"
#include "serving/scheduler.h"
#include "telemetry/events.h"
#include "transport/session.h"

namespace {

thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_bytes = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
  t_bytes += size;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace redopt;

/// Allocations (and bytes requested) on this thread since construction.
class AllocationCount {
 public:
  std::size_t value() const { return t_allocations - start_; }
  std::size_t bytes() const { return t_bytes - start_bytes_; }

 private:
  std::size_t start_ = t_allocations;
  std::size_t start_bytes_ = t_bytes;
};

/// One serve_wide-shaped job: block regression n = 16, f = 3, d = 64 with a
/// gradient_reverse Byzantine agent.
chaos::Scenario block_regression_scenario(std::uint64_t seed) {
  chaos::Scenario s;
  s.seed = seed;
  s.problem = "block_regression";
  s.filter = "cge";
  s.n = 16;
  s.f = 3;
  s.d = 64;
  s.rounds = 400;
  chaos::FaultSpec byzantine;
  byzantine.kind = chaos::FaultSpec::Kind::kByzantine;
  byzantine.agent = 5;
  byzantine.attack = "gradient_reverse";
  byzantine.attack_param = 1.0;
  s.faults = {byzantine};
  s.validate();
  return s;
}

}  // namespace

TEST(Allocations, TheCounterSeesThisThreadsAllocations) {
  const AllocationCount count;
  auto* v = new std::vector<double>(8);
  delete v;
  EXPECT_EQ(count.value(), 2u);  // the vector object and its buffer
}

TEST(Allocations, MaterializingABlockRegressionJobAllocatesLittle) {
  // Admission builds sixteen 64 x 64 orthonormal blocks by Gram-Schmidt
  // in the storage their least-squares costs adopt, and solves the
  // 896 x 64 honest system by pivoted QR from the costs' own rows.  Each
  // block, observation vector and the QR's working set are a handful of
  // buffers; per-row or per-projection temporaries would cost tens of
  // thousands.  While the instance also kept its own copy of every block
  // and observation, this took 117 allocations and 2,078,822 bytes; one
  // copy of the blocks (16 x 64 x 64 doubles) is gone.
  runtime::set_threads(1);
  const chaos::Scenario s = block_regression_scenario(7);
  const AllocationCount count;
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  const std::size_t allocations = count.value();
  ASSERT_EQ(built.reference.size(), 64u);
  EXPECT_EQ(allocations, 75u);
  EXPECT_LE(count.bytes(), 2078822u - 16u * 64u * 64u * sizeof(double));
}

namespace {

/// Allocations of one dgd::OnlineTrainer::step after ten warm-up steps, at
/// one lane, on a block regression n = 16, f = 3, d = 64 with agent 5
/// running gradient_reverse.  Every round buffer is reused: the agents
/// evaluate into their slots, the attack and the filter write in place,
/// and the projected step updates the iterate in place.
std::size_t steady_state_step_allocations(const std::string& filter) {
  runtime::set_threads(1);
  rng::Rng rng(11);
  linalg::Vector x_star(64);
  for (auto& v : x_star) v = rng.uniform(-3.0, 3.0);
  const auto inst = data::make_orthonormal_regression(16, 64, 3, 0.1, x_star, rng);
  const auto attack = attacks::make_attack("gradient_reverse");
  filters::FilterParams fp;
  fp.n = 16;
  fp.f = 3;
  dgd::TrainerConfig cfg;
  cfg.filter = filters::make_filter(filter, fp);
  cfg.schedule = std::make_shared<dgd::HarmonicSchedule>(filter == "cge" ? 0.05 : 0.5);
  cfg.projection = std::make_shared<dgd::IdentityProjection>();
  dgd::OnlineTrainer trainer(inst.problem, {5}, attack.get(), cfg);
  trainer.run(10);
  const AllocationCount count;
  trainer.step();
  return count.value();
}

}  // namespace

// Pinned exactly: a change in either direction moves these counts.
TEST(Allocations, OnlineTrainerStepWithCge) { EXPECT_EQ(steady_state_step_allocations("cge"), 0u); }

TEST(Allocations, OnlineTrainerStepWithCwtm) {
  EXPECT_EQ(steady_state_step_allocations("cwtm"), 0u);
}

TEST(Allocations, OnlineTrainerStepWithKrum) {
  EXPECT_EQ(steady_state_step_allocations("krum"), 0u);
}

namespace {

/// One serve_wide-shaped job: the block regression above under @p filter,
/// with a crash window on agent 11 (rounds 40 to 119) and 5% drop.
chaos::Scenario serve_wide_scenario(std::uint64_t seed, const std::string& filter) {
  chaos::Scenario s = block_regression_scenario(seed);
  s.filter = filter;
  chaos::FaultSpec crash;
  crash.kind = chaos::FaultSpec::Kind::kCrash;
  crash.agent = 11;
  crash.from = 40;
  crash.until = 120;
  s.faults.push_back(crash);
  s.channel.drop_probability = 0.05;
  s.validate();
  return s;
}

/// Heap traffic of rounds @p from_round.. of a scenario's second run.
struct Rerun {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
  std::size_t stranded = 0;  ///< replies the first run left pending
};

/// Rounds @p from_round.. of @p s, run a second time through the kernel
/// that ran it once: every filter the rounds meet is cached and every
/// round buffer has its size.
Rerun warm_kernel_rerun(const chaos::Scenario& s, std::size_t from_round) {
  runtime::set_threads(1);
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  chaos::RoundKernel kernel(s, built);
  chaos::RoundState warm = chaos::initial_round_state(s, built);
  while (!warm.finished(s.rounds)) kernel.step(warm);
  chaos::RoundState state = chaos::initial_round_state(s, built);
  while (state.next_round < from_round) kernel.step(state);
  const AllocationCount count;
  while (!state.finished(s.rounds)) kernel.step(state);
  const Rerun rerun{count.value(), count.bytes(), warm.pending.size()};
  // The second run retraces the first bit for bit.
  EXPECT_EQ(state.x, warm.x);
  EXPECT_EQ(state.counters, warm.counters);
  EXPECT_GT(state.counters.byzantine_replies, 0u);
  EXPECT_GT(state.counters.crashed_absences, 0u);
  EXPECT_GT(state.counters.dropped_replies, 0u);
  return rerun;
}

}  // namespace

// All 400 rounds, pinned exactly.
TEST(Allocations, WarmRoundKernelStepWithCge) {
  EXPECT_EQ(warm_kernel_rerun(serve_wide_scenario(7, "cge"), 0).allocations, 0u);
}

TEST(Allocations, WarmRoundKernelStepWithCwtm) {
  EXPECT_EQ(warm_kernel_rerun(serve_wide_scenario(7, "cwtm"), 0).allocations, 0u);
}

TEST(Allocations, WarmRoundKernelStepWithKrum) {
  EXPECT_EQ(warm_kernel_rerun(serve_wide_scenario(7, "krum"), 0).allocations, 0u);
}

TEST(Allocations, WarmRoundKernelStepWithDelaysDuplicatesAndAStraggler) {
  // Duplicates point at the original payload, the straggler window
  // slides in place once it holds staleness + 1 iterates (from round 3
  // on), and a delayed reply takes the buffer of one delivered earlier.
  // The kernel's pool holds every buffer the first run needed at its
  // busiest round except the 13 that replies still pending after its
  // last round keep, so the rerun allocates 11 of those again, one
  // reply payload each, and nothing else.
  chaos::Scenario s = serve_wide_scenario(7, "cge");
  chaos::FaultSpec straggler;
  straggler.kind = chaos::FaultSpec::Kind::kStraggler;
  straggler.agent = 2;
  straggler.from = 1;
  straggler.staleness = 2;
  s.faults.push_back(straggler);
  s.channel.duplicate_probability = 0.1;
  s.channel.max_delay = 2;
  s.validate();
  const Rerun rerun = warm_kernel_rerun(s, 3);
  EXPECT_EQ(rerun.stranded, 13u);
  EXPECT_EQ(rerun.allocations, 11u);
  EXPECT_EQ(rerun.bytes, rerun.allocations * 64 * sizeof(double));
}

TEST(Allocations, SecondServingSliceAndItsCheckpoint) {
  // The second 16-round slice of a serve_wide-shaped job through the
  // job's kept kernel, plus the checkpoint JSON the daemon persists after
  // it.  The slice allocates nothing; the JSON text does.
  runtime::set_threads(1);
  telemetry::set_enabled(false);
  serving::JobSpec spec;
  spec.job_id = "wide-0";
  spec.scenario = serve_wide_scenario(7, "cge");
  const chaos::MaterializedScenario built = chaos::materialize_scenario(spec.scenario);
  serving::JobCheckpoint ck = serving::make_initial_checkpoint(spec, built);
  chaos::RoundKernel kernel(spec.scenario, built);
  serving::run_job_slice(ck, 16, kernel);
  const AllocationCount count;
  serving::run_job_slice(ck, 16, kernel);
  const std::size_t slice = count.value();
  const std::string json = ck.to_json();
  const std::size_t slice_and_json = count.value();
  ASSERT_EQ(ck.state.next_round, 32u);
  EXPECT_EQ(slice, 0u);
  EXPECT_EQ(slice_and_json, 170u);
}

TEST(Allocations, SubmittingASixthServeWideJobCopiesNoOtherJobsRows) {
  // Admission materializes the new job, copies its spec and checkpoint
  // and builds its kernel.  The five live jobs' rows (16 x 64 x 65
  // doubles each) stay where they are, and the sixth job's replies may
  // wait up to the parser's cap of 2^20 rounds without the kernel sizing
  // anything by that bound: the extra bytes beyond the materialization
  // stay below one agent's rows.
  runtime::set_threads(1);
  serving::SchedulerOptions options;
  options.max_jobs = 8;
  options.slice_rounds = 16;
  serving::Scheduler scheduler(options);
  const auto job = [](std::size_t k) {
    serving::JobSpec spec;
    spec.job_id = "wide-" + std::to_string(k);
    spec.scenario = serve_wide_scenario(100 + k, k % 2 == 0 ? "cge" : "cwtm");
    return spec;
  };
  for (std::size_t k = 0; k < 5; ++k) ASSERT_EQ(scheduler.submit(job(k)), "");
  for (std::size_t k = 0; k < 5; ++k) scheduler.step(nullptr);
  serving::JobSpec sixth = job(5);
  sixth.scenario.channel.max_delay = std::size_t{1} << 20;

  std::size_t materialize_bytes = 0;
  {
    const AllocationCount count;
    const chaos::MaterializedScenario built = chaos::materialize_scenario(sixth.scenario);
    materialize_bytes = count.bytes();
  }
  const AllocationCount count;
  ASSERT_EQ(scheduler.submit(sixth), "");
  const std::size_t submit_bytes = count.bytes();
  const std::size_t agent_rows = 64 * 65 * sizeof(double);
  ASSERT_GE(submit_bytes, materialize_bytes);
  EXPECT_LT(submit_bytes - materialize_bytes, agent_rows);
}

namespace {

/// perfbench's session_tree shape: mean, n = 16, f = 2, d = 64 under CGE,
/// a gradient_reverse Byzantine agent, drop 0.05, duplicate 0.2, delay
/// <= 2, 500 rounds.  The churn twin adds three leave/rejoin cycles of
/// fault-free agents and keeps the 2f-redundancy headroom throughout.
chaos::Scenario session_tree_scenario(bool churn) {
  chaos::Scenario s;
  s.name = churn ? "session_tree-churn" : "session_tree";
  s.seed = 5;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 16;
  s.f = 2;
  s.d = 64;
  s.rounds = 500;
  chaos::FaultSpec byzantine;
  byzantine.kind = chaos::FaultSpec::Kind::kByzantine;
  byzantine.agent = 9;
  byzantine.attack = "gradient_reverse";
  byzantine.attack_param = 1.0;
  s.faults = {byzantine};
  s.channel.drop_probability = 0.05;
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  if (churn) {
    using Kind = chaos::MembershipEvent::Kind;
    s.membership.push_back({Kind::kLeave, 2, 60});
    s.membership.push_back({Kind::kJoin, 2, 140});
    s.membership.push_back({Kind::kLeave, 7, 150});
    s.membership.push_back({Kind::kLeave, 11, 240});
    s.membership.push_back({Kind::kJoin, 7, 260});
    s.membership.push_back({Kind::kJoin, 11, 400});
  }
  s.validate();
  return s;
}

/// Allocations of one in-process tree session at one lane, after a
/// warm-up session of the same kind (metric registration and the
/// runtime's first-use state stay out of the count).
std::size_t session_allocations(bool churn) {
  runtime::set_threads(1);
  telemetry::set_enabled(false);
  const chaos::Scenario s = session_tree_scenario(churn);
  transport::SessionOptions options;
  options.topology = transport::Topology::kTree;
  const auto run = [&] {
    if (churn) {
      const elastic::ElasticSession session = elastic::run_elastic_transport(s, options);
      EXPECT_FALSE(session.result.nonfinite);
    } else {
      const transport::ScenarioSession session = transport::run_scenario_transport(s, options);
      EXPECT_FALSE(session.result.nonfinite);
    }
  };
  run();
  const AllocationCount count;
  run();
  return count.value();
}

}  // namespace

// Bounded by the counts measured once the channel and attack fork labels
// stopped going through the heap (117,872 and 115,950: about 236 and 232
// per round; 133,372 and 130,750 before, 145,619 and 142,303 before the
// fixed and elastic coordinators shared one round loop).  A session's
// heap traffic may only fall.
TEST(Allocations, FixedInprocTreeSession) { EXPECT_LE(session_allocations(false), 117872u); }

TEST(Allocations, ChurnInprocTreeSession) { EXPECT_LE(session_allocations(true), 115950u); }

// Heap-allocation counts of the admission path, the trainer round and
// whole transport sessions.
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
#include "chaos/scenario.h"
#include "data/regression.h"
#include "dgd/projection.h"
#include "dgd/schedule.h"
#include "dgd/trainer.h"
#include "elastic/session.h"
#include "filters/registry.h"
#include "rng/rng.h"
#include "runtime/runtime.h"
#include "telemetry/events.h"
#include "transport/session.h"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocations;
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

/// Allocations made on this thread since construction.
class AllocationCount {
 public:
  std::size_t value() const { return t_allocations - start_; }

 private:
  std::size_t start_ = t_allocations;
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
  // Admission builds sixteen 64 x 64 orthonormal blocks by Gram-Schmidt,
  // their least-squares costs, and solves the 896 x 64 honest system by
  // pivoted QR.  Each block, observation vector, cost copy and the QR's
  // working set are a handful of buffers; per-row or per-projection
  // temporaries would cost tens of thousands.
  runtime::set_threads(1);
  const chaos::Scenario s = block_regression_scenario(7);
  const AllocationCount count;
  const chaos::MaterializedScenario built = chaos::materialize_scenario(s);
  const std::size_t allocations = count.value();
  ASSERT_EQ(built.reference.size(), 64u);
  EXPECT_LE(allocations, 200u);
}

namespace {

/// Allocations of one dgd::OnlineTrainer::step after ten warm-up steps, at
/// one lane, on a block regression n = 16, f = 3, d = 64 with agent 5
/// running gradient_reverse.  The round buffers are reused; what remains
/// is the attack's crafted vector, the filter's output and scratch, and
/// the update's temporaries.
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
TEST(Allocations, OnlineTrainerStepWithCge) { EXPECT_EQ(steady_state_step_allocations("cge"), 7u); }

TEST(Allocations, OnlineTrainerStepWithCwtm) {
  EXPECT_EQ(steady_state_step_allocations("cwtm"), 7u);
}

TEST(Allocations, OnlineTrainerStepWithKrum) {
  EXPECT_EQ(steady_state_step_allocations("krum"), 12u);
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

// Bounded by the counts measured with these cases before the fixed and
// elastic coordinators shared one round loop (145,619 and 142,303: about
// 291 and 285 per round).  A session's heap traffic may only fall.
TEST(Allocations, FixedInprocTreeSession) { EXPECT_LE(session_allocations(false), 145619u); }

TEST(Allocations, ChurnInprocTreeSession) { EXPECT_LE(session_allocations(true), 142303u); }

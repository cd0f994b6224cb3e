#include "workloads.h"

#include <algorithm>

#include "rng/rng.h"
#include "util/error.h"

namespace perfbench {

using redopt::chaos::FaultSpec;
using redopt::chaos::MembershipEvent;
using redopt::chaos::Scenario;
using redopt::rng::Rng;

namespace {

std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

/// @p k distinct agents of [0, n) outside @p taken.
std::vector<std::size_t> pick_agents(Rng& rng, std::size_t n, std::size_t k,
                                     std::vector<std::size_t> taken) {
  std::vector<std::size_t> out;
  while (out.size() < k) {
    const std::size_t agent = pick(rng, 0, n - 1);
    if (std::find(taken.begin(), taken.end(), agent) != taken.end()) continue;
    taken.push_back(agent);
    out.push_back(agent);
  }
  return out;
}

FaultSpec byzantine(std::size_t agent, std::size_t from, const std::string& attack, double param) {
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kByzantine;
  spec.agent = agent;
  spec.from = from;
  spec.attack = attack;
  spec.attack_param = param;
  return spec;
}

/// Regression n=8 f=2 d=2 under CGE: a random-attack Byzantine agent, a
/// staleness-3 straggler, and a lossy, duplicating, delaying channel.
Scenario serve_small_job(Rng rng) {
  Scenario s;
  s.name = "serve_small";
  s.seed = rng.next_u64() >> 1;
  s.problem = "regression";
  s.filter = "cge";
  s.n = 8;
  s.f = 2;
  s.d = 2;
  s.rounds = 240;
  const auto agents = pick_agents(rng, s.n, 2, {});
  FaultSpec straggler;
  straggler.kind = FaultSpec::Kind::kStraggler;
  straggler.agent = agents[1];
  straggler.from = pick(rng, 1, 20);
  straggler.staleness = 3;
  s.faults = {byzantine(agents[0], pick(rng, 1, 20), "random", 50.0), straggler};
  s.channel.drop_probability = 0.05;
  s.channel.duplicate_probability = 0.05;
  s.channel.max_delay = 2;
  return s;
}

/// Block regression n=16 f=3 d=64, filter rotating with the pool index: one
/// Byzantine agent, one crash window, 5% drop.  No delay and no straggler,
/// so a checkpoint holds two iterates.
Scenario serve_wide_job(Rng rng, std::size_t index) {
  static const std::vector<std::string> kFilters = {"cge", "cwtm", "krum"};
  Scenario s;
  s.name = "serve_wide";
  s.seed = rng.next_u64() >> 1;
  s.problem = "block_regression";
  s.filter = kFilters[index % kFilters.size()];
  s.n = 16;
  s.f = 3;
  s.d = 64;
  s.rounds = 400;
  const auto agents = pick_agents(rng, s.n, 2, {});
  FaultSpec crash;
  crash.kind = FaultSpec::Kind::kCrash;
  crash.agent = agents[1];
  crash.from = pick(rng, 20, 150);
  crash.until = crash.from + pick(rng, 20, 100);
  s.faults = {byzantine(agents[0], 0, "gradient_reverse", 1.0), crash};
  s.channel.drop_probability = 0.05;
  return s;
}

/// Mean n=16 f=2 d=64 under CGE: a gradient_reverse Byzantine agent, 20%
/// duplicate, 5% drop, delay <= 2, 500 rounds.
Scenario session_job(Rng rng) {
  Scenario s;
  s.name = "session_tree";
  s.seed = rng.next_u64() >> 1;
  s.problem = "mean";
  s.filter = "cge";
  s.n = 16;
  s.f = 2;
  s.d = 64;
  s.rounds = 500;
  s.faults = {byzantine(pick(rng, 0, s.n - 1), 0, "gradient_reverse", 1.0)};
  s.channel.drop_probability = 0.05;
  s.channel.duplicate_probability = 0.2;
  s.channel.max_delay = 2;
  return s;
}

/// @p s with @p churners fault-free agents each leaving once and rejoining
/// later.  Required to keep the 2f-redundancy headroom in every round.
Scenario with_churn(Scenario s, Rng rng, std::size_t churners) {
  std::vector<std::size_t> faulty;
  for (const FaultSpec& spec : s.faults) faulty.push_back(spec.agent);
  for (std::size_t agent : pick_agents(rng, s.n, churners, faulty)) {
    const std::size_t leave = pick(rng, s.rounds / 10, s.rounds / 2);
    const std::size_t join = pick(rng, leave + s.rounds / 25, s.rounds - s.rounds / 10);
    s.membership.push_back({MembershipEvent::Kind::kLeave, agent, leave});
    s.membership.push_back({MembershipEvent::Kind::kJoin, agent, join});
  }
  std::sort(s.membership.begin(), s.membership.end(),
            [](const MembershipEvent& a, const MembershipEvent& b) {
              return a.round != b.round ? a.round < b.round : a.agent < b.agent;
            });
  s.name += "-churn";
  s.validate();
  REDOPT_REQUIRE(s.redundant_throughout(), "perfbench: churn broke 2f-redundancy");
  return s;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const Rng root = Rng(seed).fork(name);
  Workload w;
  w.name = name;
  std::size_t churners = 1;
  if (name == "serve_small") {
    w.min_jobs = 1000;
    w.fixed_jobs = 48;
    for (std::size_t j = 0; j < 64; ++j) {
      w.job_pool.push_back(serve_small_job(root.fork("job-" + std::to_string(j))));
    }
  } else if (name == "serve_wide") {
    w.fixed_jobs = 12;
    for (std::size_t j = 0; j < 12; ++j) {
      w.job_pool.push_back(serve_wide_job(root.fork("job-" + std::to_string(j)), j));
    }
  } else {
    REDOPT_REQUIRE(name == "session_tree",
                   "unknown workload: " + name + " (serve_small, serve_wide, session_tree)");
    w.primary = Primary::kSession;
    w.fixed_jobs = 6;
    for (std::size_t j = 0; j < 6; ++j) {
      w.job_pool.push_back(session_job(root.fork("job-" + std::to_string(j))));
    }
    churners = 3;
  }
  for (const Scenario& s : w.job_pool) s.validate();
  w.sessions = {w.job_pool[0], with_churn(w.job_pool[0], root.fork("churn"), churners)};
  return w;
}

redopt::serving::JobSpec job_spec(const Workload& workload, std::size_t k) {
  redopt::serving::JobSpec spec;
  spec.job_id = workload.name + "-" + std::to_string(k);
  spec.scenario = workload.job_pool[k % workload.job_pool.size()];
  return spec;
}

}  // namespace perfbench
